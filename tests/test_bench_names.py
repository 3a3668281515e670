"""The names that ``bench/tracer.py`` looks up in mvgraph by string still
resolve, so renaming one cannot silently empty a per-layer metric."""

import ast
import importlib
import inspect
from pathlib import Path

from mvgraph.manifolds import Manifold

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
NAMES = ("PRIVATE", "SWEEP_SPANS", "BUILDERS", "KERNEL_OPS")


def _tracer_constants():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    return {node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in NAMES}


def _layer_function(layer, attr):
    """The function ``mvgraph.<layer>.<attr>``, defined in that module
    (the tracer wraps no re-export), or None."""
    mod = importlib.import_module(f"mvgraph.{layer}")
    fn = getattr(mod, attr, None)
    if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
        return fn
    return None


def test_tracer_names_resolve_in_mvgraph():
    const = _tracer_constants()
    assert sorted(const) == sorted(NAMES)
    spans = [(layer, attr) for layer, attrs in const["PRIVATE"].items()
             for attr in attrs]
    spans += [tuple(name.split(".")) for name in const["SWEEP_SPANS"]]
    spans += [("graphs", name) for name in const["BUILDERS"]]
    assert [s for s in spans if _layer_function(*s) is None] == []
    kinds = Manifold.__subclasses__()
    assert kinds
    missing = [(cls.__name__, op) for cls in kinds
               for op in const["KERNEL_OPS"]
               if not inspect.isfunction(getattr(cls, op, None))]
    assert missing == []

"""The package's public namespace: every exported name resolves, is listed
once, and nothing imported into it publicly is left out of ``__all__``."""

import ast
from pathlib import Path

import mvgraph


def _imported_names():
    tree = ast.parse(Path(mvgraph.__file__).read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def test_all_resolves_without_duplicates():
    names = mvgraph.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mvgraph, name)]
    assert missing == []


def test_every_public_import_is_exported():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert public
    assert sorted(public - set(mvgraph.__all__)) == []

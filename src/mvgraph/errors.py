"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numerical/domain problems with 3.
"""


class MvgraphError(Exception):
    """Base class for all package errors."""


class ConfigError(MvgraphError, ValueError):
    """Invalid configuration or arguments (CLI exit code 2)."""


class DomainError(MvgraphError, ValueError):
    """Input violates a mathematical precondition (CLI exit code 3)."""


class InjectivityError(DomainError):
    """A log/step left the injectivity domain of the exponential map.

    ``vertex`` (and optionally ``neighbor``) identify where the violation
    was detected, when known.
    """

    def __init__(self, message, vertex=None, neighbor=None):
        super().__init__(message)
        self.vertex = vertex
        self.neighbor = neighbor


class DivergenceError(DomainError):
    """An iteration diverged: a sweep produced a non-finite iterate or a
    failed linear-algebra kernel (CLI exit code 3)."""


class FormatError(MvgraphError, ValueError):
    """Malformed file content (CLI exit code 3)."""

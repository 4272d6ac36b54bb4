"""Exception types shared across the package."""


class TaskCascadeError(Exception):
    """Base class for all package errors."""


class ConfigError(TaskCascadeError, ValueError):
    """Invalid configuration values or malformed config files."""


class DataFormatError(TaskCascadeError, ValueError):
    """On-disk task collections that violate the expected layout."""


class ShapeMismatchError(TaskCascadeError, ValueError):
    """Array operands whose dimensions do not agree."""


class DegenerateDesignError(TaskCascadeError, ValueError):
    """Design matrices that are zero or singular where invertibility is required."""


class NonFiniteGramError(DegenerateDesignError):
    """A design whose Gram matrix X^T X overflows; ``index`` is its position
    among the designs built together, when known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DivergenceError(TaskCascadeError, RuntimeError):
    """Refinement produced non-finite or runaway parameter values."""


class GraphError(TaskCascadeError, ValueError):
    """Edge sets that are not spanning trees, or non-finite edge weights."""


class InfeasibleBudgetError(TaskCascadeError, ValueError):
    """Total budget too small to give every task at least one step."""

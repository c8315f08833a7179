"""Error taxonomy shared by the whole package."""


class CoxforgeError(Exception):
    """Base class for all package errors."""


class ParameterError(CoxforgeError):
    """Invalid argument (bad rank, malformed graph, length mismatch, ...)."""


class UnsupportedGraphError(CoxforgeError):
    """The graph falls outside the shape a rule is defined for."""


class HypothesisViolationError(CoxforgeError):
    """A reduction step does not satisfy the hypotheses of its rule.

    The message names the failed condition.
    """


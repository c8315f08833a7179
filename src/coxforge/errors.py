"""Error taxonomy shared by the whole package, and the one integer check
that every integer from outside passes."""


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


def require_int(value, what):
    """``value`` when it is an int and not a bool, else a ParameterError
    that names ``what``. The builders take their arguments only through
    it, and the CLI its flags and config values once ``_ascii_int`` has
    read their digits: int() would also take 3.7, True or '5'."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ParameterError("%s needs an integer, got %r" % (what, value))

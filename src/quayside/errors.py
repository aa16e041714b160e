"""Exception types shared across quayside modules, and the rules for the numbers they take."""

import math
import numbers
import sys

# InversionSpec's Gaver-Stehfest order, defined here so that the CLI parser can
# offer it without importing lst_inversion and its `fractions` (about 3 ms)
DEFAULT_ORDER = 14


class QuaysideError(Exception):
    """Base class for all quayside errors."""


class ConvergenceError(QuaysideError):
    """Fixed-point iteration failed to reach tolerance.

    Carries the last iterate and its residual so callers can inspect
    how close the solve got.
    """

    def __init__(self, message, last_value=None, residual=None, iterations=None):
        super().__init__(message)
        self.last_value = last_value
        self.residual = residual
        self.iterations = iterations


class SingularityError(QuaysideError):
    """A transform denominator is (numerically) zero at the requested point."""


class StationarityError(QuaysideError):
    """The requested quantity has no stationary meaning (traffic >= 1)."""

    def __init__(self, message, first_overloaded_class=None):
        super().__init__(message)
        self.first_overloaded_class = first_overloaded_class


class InversionError(QuaysideError):
    """Numerical Laplace inversion produced a non-finite result."""


class NumericOverflowError(QuaysideError):
    """A transform value underflowed/overflowed past usable precision."""

    def __init__(self, message, class_index=None):
        super().__init__(message)
        self.class_index = class_index


class ScenarioError(QuaysideError):
    """A scenario file failed validation; message names the offending field."""


def real(value, name):
    """`value` as a float, if it is a real number other than a bool (an integer
    beyond the double range is an infinity); ValueError naming `name` otherwise."""
    np = sys.modules.get("numpy")  # a numpy bool exists only once numpy is loaded
    if not isinstance(value, (bool, np.bool_) if np else bool):
        try:
            math.isfinite(value)  # refuses a string, which float() would parse
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
        except (TypeError, ValueError):
            pass
    raise ValueError("%s must be a number, got %r" % (name, value))


def positive_finite(value, name):
    """`value` as a float, if it is a number in (0, inf); ValueError naming `name` otherwise."""
    if value.__class__ is not float:  # a float needs no second call
        value = real(value, name)
    if not 0 < value < math.inf:
        raise ValueError("%s must be positive and finite, got %r" % (name, value))
    return value


def store_double(obj, name, value):
    """Set field `name` of the frozen dataclass `obj` to `value`, the float real or positive_finite
    made of it, unless the field holds a Python int: that keeps its repr (`Erlang(k=2, rate=4)`)
    and computes as its double, where a float32 or a Decimal computes in its own type."""
    if getattr(obj, name).__class__ is not int:
        object.__setattr__(obj, name, value)


def integer(value, name, low):
    """`value` as an int, if it is an integer >= low other than a bool; ValueError otherwise."""
    if value.__class__ is bool or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError("%s must be an integer >= %d, got %r" % (name, low, value))
    return int(value)

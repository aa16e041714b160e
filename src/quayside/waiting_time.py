"""LIFO and FIFO waiting-time transforms for M|G|1 and their inversion.

Transforms are evaluated even when the queue is overloaded (the source
tables include such rows); only the CDF refuses, because W(x) has no
stationary meaning at traffic >= 1.  The CDF is recovered by inverting
w(s)/s -- the ordinary Laplace transform of the distribution function --
which absorbs the probability atom at zero that a pointwise density
inversion could not represent.
"""

import math
from dataclasses import dataclass
from typing import Optional

from .busy_period import BusyPeriodSolution, busy_period_lst
from .errors import SingularityError, StationarityError
from .lst_inversion import InversionSpec, invert

__all__ = ["WaitEvaluation", "lifo_wait_lst", "fifo_wait_lst", "wait_cdf"]

LIFO = "lifo"
FIFO = "fifo"


@dataclass(frozen=True)
class WaitEvaluation:
    discipline: str                 # "lifo" or "fifo"
    point: float                    # s (transform) or x (cdf)
    value: float
    stationary: bool                # a * moment1 < 1
    kind: str = "transform"         # "transform" or "cdf"
    solver_info: Optional[BusyPeriodSolution] = None


def _check_args(a, point, name):
    if not 0 < a < math.inf:
        raise ValueError("arrival rate must be positive and finite, got %r" % (a,))
    if not 0 < point < math.inf:
        raise ValueError("%s must be positive and finite, got %r" % (name, point))


def lifo_wait_lst(d, a, s):
    """w(s) = (1 - a*beta1) + a(1 - pi(s)) / (s + a - a*pi(s))."""
    _check_args(a, s, "s")
    sol = busy_period_lst(d, a, s)
    pi = sol.value
    value = (1.0 - a * d.moment1()) + a * (1.0 - pi) / (s + a - a * pi)
    return WaitEvaluation(
        discipline=LIFO,
        point=s,
        value=value,
        stationary=a * d.moment1() < 1.0,
        solver_info=sol,
    )


def fifo_wait_lst(d, a, s):
    """w(s) = (1 - a*beta1) * s / (s - a + a*beta(s))."""
    _check_args(a, s, "s")
    denom = s - a + a * d.lst(s)
    if abs(denom) < 1e-14:
        raise SingularityError(
            "FIFO transform denominator vanishes at s=%g (a=%g, %s)"
            % (s, a, d.literal())
        )
    value = (1.0 - a * d.moment1()) * s / denom
    return WaitEvaluation(
        discipline=FIFO,
        point=s,
        value=value,
        stationary=a * d.moment1() < 1.0,
    )


def wait_cdf(discipline, d, a, x, inv=InversionSpec()):
    """W(x) by numerical inversion of s -> w(s)/s, clamped to [0, 1]."""
    _check_args(a, x, "x")
    rho = a * d.moment1()
    if rho >= 1.0:
        raise StationarityError(
            "waiting-time CDF undefined: traffic coefficient %.6g >= 1" % rho
        )
    if discipline == LIFO:
        transform = lambda s: lifo_wait_lst(d, a, float(s)).value / s
    elif discipline == FIFO:
        transform = lambda s: fifo_wait_lst(d, a, float(s)).value / s
    else:
        raise ValueError("unknown discipline %r" % (discipline,))
    value = invert(transform, x, inv)
    value = min(max(value, 0.0), 1.0)
    return WaitEvaluation(
        discipline=discipline,
        point=x,
        value=value,
        stationary=True,
        kind="cdf",
    )

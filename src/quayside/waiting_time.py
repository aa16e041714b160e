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


def _lifo(d, a, s):
    sol = busy_period_lst(d, a, s)
    pi = sol.value
    return (1.0 - a * d.moment1()) + a * (1.0 - pi) / (s + a - a * pi), sol


def _fifo(d, a, s):
    denom = s - a + a * d.lst(s)
    if abs(denom) < 1e-14:
        raise SingularityError(
            "FIFO transform denominator vanishes at s=%g (a=%g, %s)"
            % (s, a, d.literal())
        )
    return (1.0 - a * d.moment1()) * s / denom


def lifo_wait_lst(d, a, s):
    """w(s) = (1 - a*beta1) + a(1 - pi(s)) / (s + a - a*pi(s))."""
    _check_args(a, s, "s")
    value, sol = _lifo(d, a, s)
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
    return WaitEvaluation(
        discipline=FIFO,
        point=s,
        value=_fifo(d, a, s),
        stationary=a * d.moment1() < 1.0,
    )


def wait_cdf(discipline, d, a, x, inv=InversionSpec()):
    """W(x) by numerical inversion of s -> w(s)/s, clamped to [0, 1].

    w is evaluated at each Gaver-Stehfest node rounded to double, as the
    public transforms would be; w(s)/s divides by the extended-precision
    node, and `invert` forms the weighted sum.
    """
    if discipline not in (LIFO, FIFO):
        raise ValueError("unknown discipline %r" % (discipline,))
    _check_args(a, x, "x")
    rho = a * d.moment1()
    if rho >= 1.0:
        raise StationarityError(
            "waiting-time CDF undefined: traffic coefficient %.6g >= 1" % rho
        )

    def over_s(s):
        point = float(s)
        # at a subnormal x the largest nodes k*ln2/x overflow a double
        if point == math.inf:
            raise ValueError("x=%r is too small: its Gaver-Stehfest nodes overflow a double" % (x,))
        w = _lifo(d, a, point)[0] if discipline == LIFO else _fifo(d, a, point)
        return w / s

    return WaitEvaluation(
        discipline=discipline,
        point=x,
        value=min(max(invert(over_s, x, inv), 0.0), 1.0),
        stationary=True,
        kind="cdf",
    )

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

import numpy as np

from .busy_period import BusyPeriodSolution, busy_period_lst
from .errors import SingularityError, StationarityError
from .lst_inversion import _LONG, InversionSpec, _combine, _nodes

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

    All Gaver-Stehfest nodes are evaluated in one pass: w is computed at
    each node rounded to double, as the public transforms would be, and
    w(s)/s and the weighted sum are formed in extended precision.
    """
    _check_args(a, x, "x")
    rho = a * d.moment1()
    if rho >= 1.0:
        raise StationarityError(
            "waiting-time CDF undefined: traffic coefficient %.6g >= 1" % rho
        )
    if discipline not in (LIFO, FIFO):
        raise ValueError("unknown discipline %r" % (discipline,))
    nodes = _nodes(x, inv.order)
    # the nodes increase with k; at a subnormal x the last ones overflow a double
    if float(nodes[-1]) == math.inf:
        raise ValueError("x=%r is too small: its Gaver-Stehfest nodes overflow a double" % (x,))
    points = nodes.astype(float).tolist()
    if discipline == LIFO:
        values = [_lifo(d, a, s)[0] for s in points]
    else:
        values = [_fifo(d, a, s) for s in points]
    value = _combine(np.array(values, dtype=_LONG) / nodes, x, inv.order)
    value = min(max(value, 0.0), 1.0)
    return WaitEvaluation(
        discipline=discipline,
        point=x,
        value=value,
        stationary=True,
        kind="cdf",
    )

"""LIFO and FIFO waiting-time transforms for M|G|1 and their inversion.

Transforms are evaluated even when the queue is overloaded (the source
tables include such rows); only the CDF refuses, because W(x) has no
stationary meaning at traffic >= 1.  The CDF is recovered by inverting
w(s)/s -- the ordinary Laplace transform of the distribution function --
which absorbs the probability atom at zero that a pointwise density
inversion could not represent.
"""

from typing import NamedTuple, Optional

from .busy_period import BusyPeriodSolution, _kendall
from .errors import SingularityError, StationarityError, positive_finite
from .lst_inversion import InversionSpec, _nodes, _sum_over_s
from .traffic import FIFO, LIFO

__all__ = ["WaitEvaluation", "lifo_wait_lst", "fifo_wait_lst", "wait_cdf"]


class WaitEvaluation(NamedTuple):
    """w(s) or W(x); the discipline and the point are the caller's arguments."""
    value: float
    stationary: bool                # a * moment1 < 1
    solver_info: Optional[BusyPeriodSolution] = None   # the Kendall solve of a LIFO transform


# _lifo and _fifo take rho = a * d.moment1(), computed once per public call


def _lifo(d, a, rho, s):
    sol = _kendall(d, a, s)
    # (s + a) - a*pi cancels when s << a; 1 - pi is exact for pi >= 1/2
    au = a * (1.0 - sol.value)
    return (1.0 - rho) + au / (s + au), sol


def _fifo(d, a, rho, s):
    denom = s - a + a * d.lst(s)
    if abs(denom) < 1e-14:
        raise SingularityError(
            "FIFO transform denominator vanishes at s=%g (a=%g, %s)"
            % (s, a, d.literal())
        )
    return (1.0 - rho) * s / denom


def lifo_wait_lst(d, a, s):
    """w(s) = (1 - a*beta1) + a(1 - pi(s)) / (s + a - a*pi(s))."""
    a, s = positive_finite(a, "arrival rate"), positive_finite(s, "s")
    rho = a * d.moment1()
    value, sol = _lifo(d, a, rho, s)
    return WaitEvaluation(value, rho < 1.0, sol)


def fifo_wait_lst(d, a, s):
    """w(s) = (1 - a*beta1) * s / (s - a + a*beta(s))."""
    a, s = positive_finite(a, "arrival rate"), positive_finite(s, "s")
    rho = a * d.moment1()
    return WaitEvaluation(_fifo(d, a, rho, s), rho < 1.0)


def wait_cdf(discipline, d, a, x, inv=InversionSpec()):
    """W(x) by numerical inversion of s -> w(s)/s, clamped to [0, 1].

    w is evaluated at each Gaver-Stehfest node correctly rounded to double,
    as the public transforms would be; the node cancels against the 1/s, so
    W(x) is the weighted sum of those values, rounded once by `_sum_over_s`.
    InversionError if x is so small that a node overflows a double.
    """
    if discipline not in (LIFO, FIFO):
        raise ValueError("unknown discipline %r" % (discipline,))
    a, x = positive_finite(a, "arrival rate"), positive_finite(x, "x")
    if not isinstance(inv, InversionSpec):
        raise ValueError("inv must be an InversionSpec, got %r" % (inv,))
    rho = a * d.moment1()
    if rho >= 1.0:
        raise StationarityError(
            "waiting-time CDF undefined: traffic coefficient %.6g >= 1" % rho
        )
    nodes = _nodes(x, inv.order)
    if discipline == LIFO:
        values = [_lifo(d, a, rho, s)[0] for s in nodes]
    else:
        values = [_fifo(d, a, rho, s) for s in nodes]
    return WaitEvaluation(min(max(_sum_over_s(values, x), 0.0), 1.0), True)

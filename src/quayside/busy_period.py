"""Busy-period transform via the Kendall functional equation.

The busy-period LST pi(s) solves pi = beta(s + a - a*pi) where beta is
the service-time transform and a the Poisson arrival rate.  The map is
monotone increasing in pi, so plain iteration from 0 climbs to the least
fixed point, which is the probabilistically meaningful branch (it stays
correct even when the queue is overloaded).
"""

import math
from typing import NamedTuple

from .errors import ConvergenceError

__all__ = ["BusyPeriodSolution", "busy_period_lst"]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10**6


class BusyPeriodSolution(NamedTuple):
    value: float      # pi(s), in [0, 1]
    iterations: int
    residual: float   # |pi - beta(s + a - a*pi)|


def busy_period_lst(d, a, s):
    """Least fixed point of pi -> lst(d, s + a - a*pi) in [0, 1].

    Raises ConvergenceError (carrying the last iterate and residual) if
    the residual is still above DEFAULT_TOL after DEFAULT_MAX_ITER steps.
    """
    if not 0 < s < math.inf:
        raise ValueError("s must be positive and finite, got %r" % (s,))
    if not 0 < a < math.inf:
        raise ValueError("arrival rate must be positive and finite, got %r" % (a,))

    # beta(s + a - a*nxt), computed for the residual, is the next iterate:
    # one transform evaluation per step.  nxt <= 1 keeps the argument >= s.
    pi = 0.0
    nxt = d.lst(s + a - a * pi)
    for it in range(1, DEFAULT_MAX_ITER + 1):
        if nxt < pi:
            # monotone iterates can only stall on floating-point noise
            nxt = pi
        beta = d.lst(s + a - a * nxt)
        residual = abs(nxt - beta)
        if residual <= DEFAULT_TOL:
            return BusyPeriodSolution(nxt, it, residual)
        pi, nxt = nxt, beta
    raise ConvergenceError(
        "Kendall iteration did not reach tol=%g in %d iterations (residual %g)"
        % (DEFAULT_TOL, DEFAULT_MAX_ITER, residual),
        last_value=pi,
        residual=residual,
        iterations=DEFAULT_MAX_ITER,
    )

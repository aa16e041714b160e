"""Busy-period transform via the Kendall functional equation.

The busy-period LST pi(s) solves pi = beta(s + a - a*pi) where beta is
the service-time transform and a the Poisson arrival rate.  The root
sought is the least one in [0, 1], which is the probabilistically
meaningful branch (it stays correct even when the queue is overloaded).

beta is completely monotone, so f(pi) = beta(s + a - a*pi) - pi is convex
on [0, 1], with f(0) > 0 and f(1) < 0 for s > 0.  A secant through two
points left of the root therefore lands left of it, and never short of
the plain fixed-point step pi -> beta: safeguarded secant steps climb
from 0 to the least root like plain iteration does, only faster near
saturation, where the plain step ratio tends to 1.
"""

import math
from typing import NamedTuple

from .errors import ConvergenceError, positive_finite

__all__ = ["BusyPeriodSolution", "busy_period_lst"]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100  # over twice the 39 steps a solve took at most (README, "Numerical notes")


class BusyPeriodSolution(NamedTuple):
    value: float      # pi(s), in [0, 1]
    iterations: int
    residual: float   # |pi - beta(s + a - a*pi)|


def busy_period_lst(d, a, s):
    """Least fixed point of pi -> lst(d, s + a - a*pi) in [0, 1].

    Calls d.lst once per step.  Raises ConvergenceError (carrying the
    last iterate and residual) if no residual within DEFAULT_TOL was seen
    in DEFAULT_MAX_ITER steps.
    """
    return _kendall(d, positive_finite(a, "arrival rate"), positive_finite(s, "s"))


def _kendall(d, a, s):  # busy_period_lst for an a and s already checked to be floats in (0, inf)
    # Each step evaluates beta once, at the iterate nxt; pi is the iterate
    # before it and f = f(pi).  The secant through (pi, f) and (nxt, g) is
    # taken only when both points lie left of the root (0 < g < f) and it
    # lands in [beta, 1]; otherwise the step is the plain one, nxt -> beta.
    # Every iterate is <= 1, which keeps the transform's argument >= s.
    # Once the residual is within DEFAULT_TOL, stepping goes on while the
    # residual still falls, and the iterate with the least residual is
    # returned: the rounding floor, not the tolerance, ends the solve.
    pi, f = 0.0, d.lst(s + a)
    nxt, best, least = f, None, math.inf
    for it in range(1, DEFAULT_MAX_ITER + 1):
        beta = d.lst(s + a - a * nxt)
        g = beta - nxt
        residual = abs(g)
        if residual <= DEFAULT_TOL:
            if residual >= least:
                return BusyPeriodSolution(best, it, least)
            if residual == 0.0:
                return BusyPeriodSolution(nxt, it, 0.0)
            best, least = nxt, residual
        step = beta
        if 0.0 < g < f:
            secant = nxt + g * (nxt - pi) / (f - g)
            if beta <= secant <= 1.0:
                step = secant
        pi, f, nxt = nxt, g, step
    if best is not None:
        return BusyPeriodSolution(best, DEFAULT_MAX_ITER, least)
    raise ConvergenceError(
        "Kendall solve did not reach tol=%g in %d iterations (residual %g)"
        % (DEFAULT_TOL, DEFAULT_MAX_ITER, residual),
        last_value=pi,
        residual=residual,
        iterations=DEFAULT_MAX_ITER,
    )

"""Gaver-Stehfest inversion of Laplace transforms on the real axis.

The method only ever evaluates the transform at positive real points,
which is exactly what the Kendall fixed-point solve can deliver; contour
methods would need an analytic continuation we do not have.  Weights are
computed exactly as rationals and the summation runs in the widest
hardware float available (80-bit extended on x86), because the weights
alternate with magnitudes up to ~1e10 at order 20 and plain double
accumulation loses the low digits.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InversionError, integer, positive_finite

__all__ = ["InversionSpec", "invert", "stehfest_weights", "DEFAULT_ORDER"]

DEFAULT_ORDER = 14

_LONG = np.longdouble  # 80-bit on linux/x86_64; degrades gracefully elsewhere
_LN2 = np.log(_LONG(2))


@dataclass(frozen=True)
class InversionSpec:
    order: int = DEFAULT_ORDER

    def __post_init__(self):
        object.__setattr__(self, "order", _check_order(self.order, 4))


def _check_order(n, low):
    """n as a Python int (a numpy one overflows the exact weights), if it
    is an even integer in [low, 20]."""
    # weight formula itself is fine down to n=2; the public range starts at 4
    n = integer(n, "order", low)
    if n % 2 != 0 or n > 20:
        raise ValueError("order must be an even integer in [%d, 20], got %r" % (low, n))
    return n


@lru_cache(maxsize=None)
def _weights_exact(n):
    """Stehfest weights V_1..V_n as exact Fractions."""
    n = _check_order(n, 2)
    h = n // 2
    out = []
    for k in range(1, n + 1):
        total = Fraction(0)
        for j in range((k + 1) // 2, min(k, h) + 1):
            total += Fraction(
                j**h * math.factorial(2 * j),
                math.factorial(h - j)
                * math.factorial(j)
                * math.factorial(j - 1)
                * math.factorial(k - j)
                * math.factorial(2 * j - k),
            )
        out.append((-1) ** (h + k) * total)
    return tuple(out)


@lru_cache(maxsize=None)
def _weights_long(n):
    return tuple(_LONG(v.numerator) / _LONG(v.denominator) for v in _weights_exact(n))


def stehfest_weights(n):
    """Stehfest weights for even order n <= 20, as floats."""
    return [float(v) for v in _weights_exact(n)]


def invert(transform, x, spec=InversionSpec()):
    """Gaver-Stehfest estimate of f(x) from its Laplace transform.

    `transform` is called once per node, at s_k = k*ln2/x for k = 1..order
    in that order; each s is a numpy longdouble scalar, so that
    pure-arithmetic transforms keep the extra precision automatically.
    The weighted sum runs in extended precision, one term after another in
    node order: a pairwise sum such as np.sum's would change the last bits.
    """
    positive_finite(x, "inversion point x")  # x as given: a longdouble keeps its digits
    step = _LN2 / _LONG(x)
    total = _LONG(-0.0)  # -0.0 + t is t, also for t = -0.0: the first term's bits
    for k, weight in enumerate(_weights_long(spec.order), start=1):
        total += weight * transform(k * step)
    result = float(total * step)
    if not math.isfinite(result):
        raise InversionError(
            "Gaver-Stehfest sum is not finite at x=%g (order %d)" % (x, spec.order)
        )
    return result

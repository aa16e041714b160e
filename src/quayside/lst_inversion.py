"""Gaver-Stehfest inversion of Laplace transforms on the real axis.

The method only ever evaluates the transform at positive real points,
which is exactly what the Kendall fixed-point solve can deliver; contour
methods would need an analytic continuation we do not have.  Weights are
computed exactly as rationals, because they alternate with magnitudes up
to ~1e10 at order 20 and plain double accumulation loses the low digits.

`invert` evaluates a caller's transform at extended-precision nodes, in
the widest hardware float available (80-bit extended on x86), so it is
the one part of this module that loads numpy.  The waiting-time CDF needs
no extended precision: it evaluates w at nodes correctly rounded to
double (`_nodes`).  Both end in `_sum_over_s`, which forms
sum_k (V_k / k) w_k in integers and rounds it once: for a transform of
the form w(s)/s the node cancels, and `invert` hands it s_k f(s_k).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DEFAULT_ORDER, InversionError, integer, positive_finite

__all__ = ["InversionSpec", "invert", "stehfest_weights", "DEFAULT_ORDER"]

# ln 2 to 50 digits, and floor(ln2 * 2**160)
_LN2 = Fraction("0.69314718055994530941723212145817656807550013436026")
_LN2_160 = math.floor(_LN2 * 2**160)


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


def stehfest_weights(n):
    """Stehfest weights for even order n <= 20, as floats."""
    return [float(v) for v in _weights_exact(n)]


def invert(transform, x, spec=InversionSpec()):
    """Gaver-Stehfest estimate of f(x) from its Laplace transform.

    `transform` is called once per node, at s_k = k*ln2/x for k = 1..order
    in that order; each s is a numpy longdouble scalar, so that
    pure-arithmetic transforms keep the extra precision automatically.
    The terms t_k = s_k f(s_k) are formed in that precision and scaled by
    the power of two 2**-e that puts the largest |t_k| in [1/2, 1);
    `_sum_over_s` rounds 2**e sum_k (V_k/k) t_k once.
    """
    import numpy as np

    if not isinstance(spec, InversionSpec):
        raise ValueError("spec must be an InversionSpec, got %r" % (spec,))
    positive_finite(x, "inversion point x")  # x as given: a longdouble keeps its digits
    step = np.log(np.longdouble(2)) / np.longdouble(x)
    nodes = (k * step for k in range(1, spec.order + 1))
    terms = np.array([s * transform(s) for s in nodes], np.longdouble)
    e = int(np.frexp(np.max(np.abs(terms)))[1])
    return _sum_over_s(np.ldexp(terms, -e), x, e)


def _nodes(x, n):
    """The nodes s_k = k*ln2/x for k = 1..n, each correctly rounded to a double.

    With x = M * 2**(e-53) for an integer M, s_k = k*ln2*2**160/M * 2**(53-e-160).
    q = floor(ln2*2**160/M) has over 106 bits, so k*q is k*ln2*2**160/M to
    2**-106 relative, and its conversion to double rounds once.  The power of
    two applies last and exactly, except below the normal range (x above
    about 2.6e307), where a node rounds twice.  InversionError if a node
    overflows a double.
    """
    m, e = math.frexp(x)  # x = m * 2**e, 0.5 <= m < 1
    q = _LN2_160 // int(m * 2.0**53)
    shift = 53 - e - 160
    try:
        return [math.ldexp(k * q, shift) for k in range(1, n + 1)]
    except OverflowError:
        raise InversionError(
            "x=%r is too small: its Gaver-Stehfest nodes overflow a double" % (x,)
        ) from None


@lru_cache(maxsize=None)
def _weights_over_k(n):
    """V_k/k = c_k/D for k = 1..n, with D the lcm of their denominators, as
    ((c_1, ..., c_n), D * 2**160): the denominator of sum_k c_k * w_k * 2**160."""
    weights = [v / k for k, v in enumerate(_weights_exact(n), start=1)]
    d = math.lcm(*(v.denominator for v in weights))
    return tuple(v.numerator * (d // v.denominator) for v in weights), d << 160


def _sum_over_s(values, x, e=0):
    """2**e * sum_k (V_k/k) w_k, rounded once, ties to even.  At e = 0 and
    w_k = w(s_k) at the nodes s_k = k*ln2/x it is the Gaver-Stehfest estimate
    at x of the inverse of w(s)/s, as V_k w(s_k)/s_k * ln2/x = (V_k/k) w(s_k).

    A double w with |w| >= 2**-108, or an 80-bit longdouble one with
    |w| >= 2**-97, has no bit below 2**-160, so w * 2**160 is an integer and
    the sum is exact up to its one rounding, in the subnormal range too.  A
    smaller |w| loses its bits below 2**-160, which moves the sum by less
    than 2**e * 2**-160 * sum_k |V_k/k|.
    """
    weights, denom = _weights_over_k(len(values))
    total = 0
    try:
        for c, w in zip(weights, values):
            total += c * int(w * 2.0**160)
        return (total << e) / denom if e >= 0 else total / (denom << -e)
    except (OverflowError, ValueError):  # w is NaN or infinite, or the sum overflows a double
        raise InversionError(
            "Gaver-Stehfest sum is not finite at x=%g (order %d)" % (x, len(values))
        ) from None

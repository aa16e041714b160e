"""Gaver-Stehfest inversion of Laplace transforms on the real axis.

The method only ever evaluates the transform at positive real points,
which is exactly what the Kendall fixed-point solve can deliver; contour
methods would need an analytic continuation we do not have.  Weights are
computed exactly as rationals, because they alternate with magnitudes up
to ~1e10 at order 20 and plain double accumulation loses the low digits.

`invert` sums a caller's transform in the widest hardware float available
(80-bit extended on x86), at extended-precision nodes, so it is the one
part of this module that loads numpy.  The waiting-time CDF needs no
extended precision: for a transform of the form w(s)/s the node cancels,
f(x) = sum_k (V_k / k) w(s_k), and `_sum_over_s` forms that sum of exact
products with math.fsum at nodes correctly rounded to double (`_nodes`).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DEFAULT_ORDER, InversionError, integer, positive_finite

__all__ = ["InversionSpec", "invert", "stehfest_weights", "DEFAULT_ORDER"]

# ln 2 to 50 digits, and as the sum of two doubles
_LN2 = Fraction("0.69314718055994530941723212145817656807550013436026")
_LN2_HI = float(_LN2)
_LN2_LO = float(_LN2 - Fraction(_LN2_HI))

# Veltkamp's splitter: SPLIT*v - (SPLIT*v - v) is v rounded to its upper 26
# bits, and v minus that fits in 26 bits too, so that the product of two
# halves is exact.  SPLIT*v overflows for |v| above about 1.3e300.
_SPLIT = 134217729.0  # 2**27 + 1


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
    """ln 2 and the weights V_1..V_n as numpy longdoubles."""
    import numpy as np

    long = np.longdouble  # 80-bit on linux/x86_64; degrades gracefully elsewhere
    return np.log(long(2)), tuple(long(v.numerator) / long(v.denominator) for v in _weights_exact(n))


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
    import numpy as np

    positive_finite(x, "inversion point x")  # x as given: a longdouble keeps its digits
    ln2, weights = _weights_long(spec.order)
    step = ln2 / np.longdouble(x)
    total = np.longdouble(-0.0)  # -0.0 + t is t, also for t = -0.0: the first term's bits
    for k, weight in enumerate(weights, start=1):
        total += weight * transform(k * step)
    result = float(total * step)
    if not math.isfinite(result):
        raise InversionError(
            "Gaver-Stehfest sum is not finite at x=%g (order %d)" % (x, spec.order)
        )
    return result


def _split(v):
    """v as two doubles of at most 26 significant bits each; |v| < 1.3e300."""
    big = _SPLIT * v
    hi = big - (big - v)
    return hi, v - hi


def _nodes(x, n):
    """The nodes s_k = k*ln2/x for k = 1..n, each correctly rounded to a double.

    For the mantissa m of x, ln2/m is formed as hi + lo: hi has 48 bits, so
    k*hi is exact for k < 32, and lo carries the rest to about 2**-100, so
    that k*hi + k*lo rounds once.  The power of two of x applies last and
    exactly, so nothing overflows before it; a node below the normal range
    (x above about 2.6e307) rounds twice.  ValueError if a node overflows.
    """
    m, e = math.frexp(x)  # x = m * 2**e, 0.5 <= m < 1
    q = _LN2_HI / m
    q1, q2 = _split(q)
    m1, m2 = _split(m)
    p = q * m
    # q*m = p + (((q1*m1 - p) + q1*m2 + q2*m1) + q2*m2) exactly, and ln2_hi - p is
    # exact, so q + r is ln2/m to about 2**-104
    r = ((_LN2_HI - p) - (((q1 * m1 - p) + q1 * m2 + q2 * m1) + q2 * m2) + _LN2_LO) / m
    hi = 33.0 * q  # Veltkamp with 2**5 + 1: q to its upper 48 bits
    hi -= hi - q
    lo = (q - hi) + r
    # below x = 2**-1025 the scale itself overflows, and every node past the first
    scale = math.ldexp(1.0, -e) if e > -1024 else math.inf
    nodes = [(k * hi + k * lo) * scale for k in range(1, n + 1)]
    if nodes[-1] == math.inf:
        raise ValueError("x=%r is too small: its Gaver-Stehfest nodes overflow a double" % (x,))
    return nodes


@lru_cache(maxsize=None)
def _weights_over_k(n):
    """V_k/k for k = 1..n as (hi1, hi2, lo): hi1 + hi2 is the double nearest
    V_k/k, split into 26-bit halves, and lo is the double nearest the rest."""
    out = []
    for k, v in enumerate(_weights_exact(n), start=1):
        c = v / k
        hi = float(c)
        out.append((*_split(hi), float(c - Fraction(hi))))
    return tuple(out)


def _sum_over_s(values, x):
    """Gaver-Stehfest estimate at x of the inverse of w(s)/s, from the values
    w(s_k) at the nodes `_nodes(x, len(values))`.

    As s_k = k*ln2/x, the sum sum_k V_k w(s_k)/s_k * ln2/x is
    sum_k (V_k/k) w(s_k); each product is split into exact double
    products, and math.fsum rounds their sum once, so the result is as
    exact as the values it is given.
    """
    terms = []
    for (c1, c2, lo), w in zip(_weights_over_k(len(values)), values):
        big = _SPLIT * w  # _split(w), inline as it runs once per node
        w1 = big - (big - w)
        w2 = w - w1
        terms += (c1 * w1, c1 * w2, c2 * w1, c2 * w2, lo * w)
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a partial sum overflows, or inf meets -inf
        total = math.nan
    if not math.isfinite(total):
        raise InversionError(
            "Gaver-Stehfest sum is not finite at x=%g (order %d)" % (x, len(values))
        )
    return total

"""Service-time distributions: transforms, moments, CDFs and sampling.

Two law families are supported: uniform on [lo, hi] and Erlang of integer
order k >= 1 (rate b).  ``Exponential(b)``, ``Erlang2(b)`` and ``Gamma3(b)``
build the orders 1, 2 and 3 of the source tables; orders 1 and 3 keep the
literals ``exp(b)`` and ``gamma3(b)``, every other order is ``erlang<k>(b)``.
Each law has ``lst(s)`` (the Laplace-Stieltjes transform at real s >= 0, a
float for every s but a numpy longdouble, which keeps its digits),
``moment1()`` (the mean), ``cdf(x)``, ``sample(rng, size)`` and
``literal()`` (the text :func:`parse_distribution` reads back).  Every
object is immutable after construction and all methods are pure;
sampling mutates only the generator handed in by the caller.
"""

import functools
import itertools
import math
import re
import sys
from dataclasses import dataclass

from .errors import integer, positive_finite, real, store_double

__all__ = [
    "Exponential",
    "Uniform",
    "Erlang",
    "Erlang2",
    "Gamma3",
    "parse_distribution",
]


def _check_s(s):
    """s as the law computes with it, if it is a number >= 0 (inf included): a numpy longdouble
    as given, so an inversion node keeps its digits, any other number as its float, so 10**400
    is inf and a float32 gives the value at its double."""
    np = sys.modules.get("numpy")  # a longdouble means numpy is loaded
    value = s if np is not None and isinstance(s, np.longdouble) else real(s, "transform argument s")
    if not value >= 0:
        raise ValueError("transform argument s must be >= 0, got %r" % (value,))
    return value


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = real(self.lo, "lo"), real(self.hi, "hi")
        if not 0 <= lo < hi < math.inf:
            raise ValueError(
                "uniform bounds must satisfy 0 <= lo < hi < inf, got [%r, %r]" % (self.lo, self.hi)
            )
        store_double(self, "lo", lo)
        store_double(self, "hi", hi)

    def lst(self, s):
        if s.__class__ is not float or not s >= 0:  # Kendall and wait_cdf hand in floats >= 0
            s = _check_s(s)
        # a longdouble s keeps its digits through numpy's exp and expm1, which math's round to double
        m = math if s.__class__ is float else sys.modules["numpy"]
        z = s * (self.hi - self.lo)
        # e^{-s.lo}(1 - e^{-z})/z, free of cancellation for every z > 0; at
        # lo = 0 the factor e^{-s.lo} is 1, also at s = inf, where -s*lo is NaN
        shift = m.exp(-s * self.lo) if self.lo else 1.0
        return shift * (-m.expm1(-z)) / z if z else 1.0

    def moment1(self):
        return 0.5 * (self.lo + self.hi)

    def cdf(self, x):
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)

    def literal(self):
        return "unif(%g,%g)" % (self.lo, self.hi)


# the Erlang orders whose literal is not erlang<k>: order 3 keeps the source tables' name
_NAMES = {1: "exp", 3: "gamma3"}


@dataclass(frozen=True)
class Erlang:
    """Sum of k >= 1 independent exponentials with common rate b: transform (b/(s+b))^k.

    At k = 1, the exponential, lst skips the power (a pow call per transform),
    sample skips the sum over one draw (a copy of every draw), and cdf is
    -expm1(-bx): within 1.2 ulp, where the Poisson sum is up to 15 ulp off.
    """

    k: int
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "k", integer(self.k, "Erlang order k", 1))
        store_double(self, "rate", positive_finite(self.rate, "rate"))

    def lst(self, s):
        if s.__class__ is not float or not s >= 0:  # Kendall and wait_cdf hand in floats >= 0
            s = _check_s(s)
        r = self.rate / (s + self.rate)
        return r if self.k == 1 else r ** self.k

    def moment1(self):
        return self.k / self.rate

    def cdf(self, x):
        bx = self.rate * x
        if bx <= 0:  # x <= 0, or x so small that bx underflows
            return 0.0
        if self.k == 1:
            return -math.expm1(-bx)
        if bx == math.inf:
            return 1.0
        log_bx = math.log(bx)

        def p(j):  # Poisson(bx) probability of j, from its logarithm: no term overflows
            return math.exp(j * log_bx - bx - math.lgamma(j + 1))

        if bx < self.k:
            # here 1 - sum_{j<k} p(j) cancels: sum the tail j >= k instead,
            # whose terms fall from p(k) on, as p(j+1)/p(j) = bx/(j+1) < 1
            total = term = p(self.k)
            for j in itertools.count(self.k + 1):
                term *= bx / j
                if total + term == total:
                    return total
                total += term
        return 1.0 - sum(map(p, range(self.k)))

    def sample(self, rng, size):
        """Each variate sums k consecutive exponential draws, so a run of
        variates does not depend on how many are drawn per call."""
        if self.k == 1:
            return rng.exponential(1.0 / self.rate, size)
        return rng.exponential(1.0 / self.rate, (size, self.k)).sum(axis=1)

    def literal(self):
        return "%s(%g)" % (_NAMES.get(self.k) or "erlang%d" % self.k, self.rate)


def Exponential(rate):
    return Erlang(1, rate)


def Erlang2(rate):
    return Erlang(2, rate)


def Gamma3(rate):
    return Erlang(3, rate)


_ORDERS = {name: k for k, name in _NAMES.items()}


def _law_named(name):
    """(law, parameter names) of a literal name: unif, exp, gamma3 or
    erlang<k> with k >= 2; (None, ()) for any other name."""
    if name == "unif":
        return Uniform, ("lo", "hi")
    m = re.fullmatch(r"erlang([0-9]+)", name)
    k = int(m.group(1)) if m else _ORDERS.get(name)
    if k is None or m and k < 2:  # one literal per law: order 1 is exp(b)
        return None, ()
    return functools.partial(Erlang, k), ("b",)


_LITERAL_RE = re.compile(r"^\s*([a-z0-9]+)\s*\(\s*([^)]*)\s*\)\s*$")


def parse_distribution(text):
    """Parse a distribution literal: exp(b), unif(lo,hi), erlang<k>(b), gamma3(b).

    Decimal points only; raises ValueError with the offending literal on
    any syntax or parameter problem.
    """
    if not isinstance(text, str):
        raise ValueError("a service law literal must be a string, got %r" % (text,))
    m = _LITERAL_RE.match(text)
    if not m:
        raise ValueError("unknown distribution literal: %r" % (text,))
    name, argtext = m.group(1), m.group(2)
    try:
        args = [float(p) for p in argtext.split(",")] if argtext.strip() else []
    except ValueError:
        raise ValueError("bad numeric parameter in distribution literal %r" % (text,))
    law, params = _law_named(name)
    if law is None or len(args) != len(params):
        raise ValueError("unknown distribution literal: %r" % (text,))
    try:
        return law(*args)
    except ValueError as exc:
        raise ValueError("invalid %s literal %r: %s" % (name, text, exc))

"""Service-time distributions: transforms, moments, CDFs and sampling.

Three law families are supported: exponential (rate b), uniform on
[lo, hi] and Erlang of integer order k >= 2 (rate b).  ``Erlang2(b)`` and
``Gamma3(b)`` build the orders 2 and 3 of the source tables; order 3 keeps
the literal ``gamma3(b)`` because its transform is (b/(s+b))^3.  Each law
has ``lst(s)`` (the Laplace-Stieltjes transform at real s >= 0),
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

from .errors import integer, positive_finite, real

__all__ = [
    "Exponential",
    "Uniform",
    "Erlang",
    "Erlang2",
    "Gamma3",
    "parse_distribution",
]

_MATH_EXPS = math.exp, math.expm1


def _check_s(s):
    """s as the law computes with it, if it is a number >= 0 (inf included): an int as its
    float, so 10**400 is inf, any other number as given, so a longdouble node keeps its digits."""
    if s.__class__ is not float:  # Kendall and wait_cdf hand in floats
        value = real(s, "transform argument s")
        s = value if isinstance(s, int) else s
    if not s >= 0:
        raise ValueError("transform argument s must be >= 0, got %r" % (s,))
    return s


def _exps(s):
    """exp and expm1 in the precision of s (math's round a longdouble to double)."""
    np = sys.modules.get("numpy")  # a numpy scalar means numpy is loaded
    if np is not None and isinstance(s, np.floating) and not isinstance(s, float):
        return np.exp, np.expm1
    return _MATH_EXPS


@dataclass(frozen=True)
class Exponential:
    rate: float

    def __post_init__(self):
        positive_finite(self.rate, "rate")

    def lst(self, s):
        s = _check_s(s)
        return self.rate / (s + self.rate)

    def moment1(self):
        return 1.0 / self.rate

    def cdf(self, x):
        if x <= 0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def sample(self, rng, size=None):
        return rng.exponential(1.0 / self.rate, size)

    def literal(self):
        return "exp(%g)" % self.rate


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 <= real(self.lo, "lo") < real(self.hi, "hi") < math.inf:
            raise ValueError(
                "uniform bounds must satisfy 0 <= lo < hi < inf, got [%r, %r]" % (self.lo, self.hi)
            )

    def lst(self, s):
        s = _check_s(s)
        exp, expm1 = _MATH_EXPS if s.__class__ is float else _exps(s)
        z = s * (self.hi - self.lo)
        # e^{-s.lo}(1 - e^{-z})/z, free of cancellation for every z > 0; at
        # lo = 0 the factor e^{-s.lo} is 1, also at s = inf, where -s*lo is NaN
        shift = exp(-s * self.lo) if self.lo else 1.0
        return shift * (-expm1(-z)) / z if z else 1.0

    def moment1(self):
        return 0.5 * (self.lo + self.hi)

    def cdf(self, x):
        if x <= self.lo:
            return 0.0
        if x >= self.hi:
            return 1.0
        return (x - self.lo) / (self.hi - self.lo)

    def sample(self, rng, size=None):
        return rng.uniform(self.lo, self.hi, size)

    def literal(self):
        return "unif(%g,%g)" % (self.lo, self.hi)


@dataclass(frozen=True)
class Erlang:
    """Sum of k independent exponentials with common rate: transform (b/(s+b))^k."""

    k: int
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "k", integer(self.k, "Erlang order k", 2))
        positive_finite(self.rate, "rate")

    def lst(self, s):
        s = _check_s(s)
        return (self.rate / (s + self.rate)) ** self.k

    def moment1(self):
        return self.k / self.rate

    def cdf(self, x):
        bx = self.rate * x
        if bx <= 0:  # x <= 0, or x so small that bx underflows
            return 0.0
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

    def sample(self, rng, size=None):
        """Each variate sums k consecutive exponential draws, so a run of
        variates does not depend on how many are drawn per call."""
        shape = (self.k,) if size is None else (size, self.k)
        return rng.exponential(1.0 / self.rate, shape).sum(axis=-1)

    def literal(self):
        name = "gamma3" if self.k == 3 else "erlang%d" % self.k
        return "%s(%g)" % (name, self.rate)


def Erlang2(rate):
    return Erlang(2, rate)


def Gamma3(rate):
    return Erlang(3, rate)


# literal name -> (law, parameter names in literal and reference-table order)
_LAWS = {
    "exp": (Exponential, ("b",)),
    "unif": (Uniform, ("lo", "hi")),
    "gamma3": (Gamma3, ("b",)),
}


def _law_named(name):
    """(law, parameter names) of a literal name: exp, unif, gamma3 or
    erlang<k>; (None, ()) for any other name."""
    m = re.fullmatch(r"erlang([0-9]+)", name)
    if m:
        return functools.partial(Erlang, int(m.group(1))), ("b",)
    return _LAWS.get(name, (None, ()))


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

"""Service-time distributions: transforms, moments, CDFs and sampling.

Three law families are supported: exponential (rate b), uniform on
[lo, hi] and Erlang of integer order k >= 2 (rate b).  ``Erlang2(b)`` and
``Gamma3(b)`` build the orders 2 and 3 of the source tables; order 3 keeps
the literal ``gamma3(b)`` because its transform is (b/(s+b))^3.  Every
object is immutable after construction and all methods are pure;
sampling mutates only the generator handed in by the caller.
"""

import functools
import itertools
import math
import re
from dataclasses import dataclass

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Uniform",
    "Erlang",
    "Erlang2",
    "Gamma3",
    "parse_distribution",
]


@dataclass(frozen=True)
class ServiceDistribution:
    """Common interface: lst, moment1, cdf, sample, literal."""

    def lst(self, s):
        """Laplace-Stieltjes transform evaluated at real s >= 0."""
        raise NotImplementedError

    def moment1(self):
        """Mean service time."""
        raise NotImplementedError

    def cdf(self, x):
        raise NotImplementedError

    def sample(self, rng, size=None):
        """Draw from the law using a caller-supplied numpy Generator."""
        raise NotImplementedError

    def literal(self):
        """ASCII literal accepted by :func:`parse_distribution`."""
        raise NotImplementedError

    def _check_s(self, s):
        if not s >= 0:
            raise ValueError("transform argument s must be >= 0, got %r" % (s,))


@dataclass(frozen=True)
class Exponential(ServiceDistribution):
    rate: float

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite, got %r" % (self.rate,))

    def lst(self, s):
        self._check_s(s)
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
class Uniform(ServiceDistribution):
    lo: float
    hi: float

    def __post_init__(self):
        if not 0 <= self.lo < self.hi < math.inf:
            raise ValueError(
                "uniform bounds must satisfy 0 <= lo < hi < inf, got [%r, %r]" % (self.lo, self.hi)
            )

    def lst(self, s):
        self._check_s(s)
        width = self.hi - self.lo
        z = s * width
        if z < 1e-8 and s * self.lo < 1e-8:
            # 3-term expansion of (e^{-s.lo}-e^{-s.hi})/(s(hi-lo)), valid only
            # while s.hi is small too; the direct quotient cancels to noise as s -> 0.
            lo, hi = self.lo, self.hi
            return 1.0 - s * (lo + hi) / 2.0 + s * s * (lo * lo + lo * hi + hi * hi) / 6.0
        # exact rearrangement, cancellation-free for every s > 0; at lo = 0
        # the factor e^{-s.lo} is 1, also at s = inf, where -s*lo is NaN
        shift = math.exp(-s * self.lo) if self.lo else 1.0
        return shift * (-math.expm1(-z)) / z

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
class Erlang(ServiceDistribution):
    """Sum of k independent exponentials with common rate: transform (b/(s+b))^k."""

    k: int
    rate: float

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 2):
            raise ValueError("Erlang order k must be an integer >= 2, got %r" % (self.k,))
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite, got %r" % (self.rate,))

    def lst(self, s):
        self._check_s(s)
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
        shape = (self.k,) if size is None else (self.k, size)
        return rng.exponential(1.0 / self.rate, shape).sum(axis=0)

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

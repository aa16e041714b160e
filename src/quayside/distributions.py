"""Service-time distributions: transforms, moments, CDFs and sampling.

Four laws are supported: exponential(rate b), uniform on [lo, hi],
Erlang of order 2 (rate b) and Erlang of order 3 (rate b, sold under the
name ``gamma3`` because its transform is (b/(s+b))^3).  Every object is
immutable after construction and all methods are pure; sampling mutates
only the generator handed in by the caller.
"""

import math
import re
from dataclasses import dataclass

__all__ = [
    "ServiceDistribution",
    "Exponential",
    "Uniform",
    "Erlang2",
    "Gamma3",
    "LAWS",
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
        if z < 1e-8:
            # 3-term expansion of (e^{-s.lo}-e^{-s.hi})/(s(hi-lo)); the direct
            # quotient cancels to noise as s -> 0.
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


class _ErlangBase(ServiceDistribution):
    """Erlang with rate b and integer shape; order fixed by the subclass."""

    _order = None

    def __post_init__(self):
        if not 0 < self.rate < math.inf:
            raise ValueError("rate must be positive and finite, got %r" % (self.rate,))

    def lst(self, s):
        self._check_s(s)
        return (self.rate / (s + self.rate)) ** self._order

    def moment1(self):
        return self._order / self.rate

    def cdf(self, x):
        if x <= 0:
            return 0.0
        bx = self.rate * x
        # 1 - e^{-bx} sum_{j<order} (bx)^j/j!
        tail = sum(bx**j / math.factorial(j) for j in range(self._order))
        return 1.0 - math.exp(-bx) * tail

    def sample(self, rng, size=None):
        # sum of `order` independent exponentials with common rate
        if size is None:
            return rng.exponential(1.0 / self.rate, self._order).sum()
        draws = rng.exponential(1.0 / self.rate, (self._order, size))
        return draws.sum(axis=0)


@dataclass(frozen=True)
class Erlang2(_ErlangBase):
    rate: float
    _order = 2

    def literal(self):
        return "erlang2(%g)" % self.rate


@dataclass(frozen=True)
class Gamma3(_ErlangBase):
    """The transform (b/(s+b))^3 forces integer shape 3, i.e. Erlang order 3."""

    rate: float
    _order = 3

    def literal(self):
        return "gamma3(%g)" % self.rate


# literal name -> (law, parameter names in literal and reference-table order)
LAWS = {
    "exp": (Exponential, ("b",)),
    "unif": (Uniform, ("lo", "hi")),
    "erlang2": (Erlang2, ("b",)),
    "gamma3": (Gamma3, ("b",)),
}

_LITERAL_RE = re.compile(r"^\s*([a-z0-9]+)\s*\(\s*([^)]*)\s*\)\s*$")


def parse_distribution(text):
    """Parse a distribution literal: exp(b), unif(lo,hi), erlang2(b), gamma3(b).

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
    law, params = LAWS.get(name, (None, ()))
    if law is None or len(args) != len(params):
        raise ValueError("unknown distribution literal: %r" % (text,))
    try:
        return law(*args)
    except ValueError as exc:
        raise ValueError("invalid %s literal %r: %s" % (name, text, exc))

"""Method-of-moments estimators for arrival and service parameters.

Observation files are plain text: one nonnegative number per line,
blank lines and `#` comments ignored.  The arrival-rate estimator is the
sample mean of arrival counts per unit period (`quayside estimate --kind
arrival`).  For interarrival times the sample mean estimates 1/rate, so
the rate is 1/mean, which is what the service-rate estimator computes
(`--kind service`).
"""

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import integer, real

__all__ = [
    "ObservationSample",
    "empirical_moment",
    "estimate_arrival_rate",
    "estimate_service_rate",
    "load_observations",
]


@dataclass(frozen=True)
class ObservationSample:
    values: Tuple[float, ...]

    def __post_init__(self):
        values = tuple(self.values)
        if not {float}.issuperset(map(type, values)):  # a file's floats pay no per-value rule call
            values = tuple(v if v.__class__ is float else real(v, "observations") for v in values)
        object.__setattr__(self, "values", values)
        if len(self.values) == 0:
            raise ValueError("observation sample must not be empty")
        for v in self.values:
            if not 0 <= v < math.inf:
                raise ValueError("observations must be finite and >= 0, got %r" % (v,))


def empirical_moment(sample, k):
    """Empirical moment of order k: mean of X_i^k.  The values are divided
    by the largest one first, so the mean of a finite sample is finite."""
    k = integer(k, "moment order", 1)  # a numpy integer would turn the powers below into numpy floats
    top = max(sample.values)
    if top == 0:
        return 0.0
    terms = map(top.__rtruediv__, sample.values)  # v / top, each <= 1
    if k > 1:
        terms = (v**k for v in terms)
    try:
        return top**k * (math.fsum(terms) / len(sample.values))
    except OverflowError:
        raise ValueError("order-%d powers of %r overflow a double" % (k, top)) from None


def estimate_arrival_rate(sample):
    """Sample mean of counts per unit period; the unbiased moment estimator
    of the Poisson rate."""
    return empirical_moment(sample, 1)


def estimate_service_rate(sample):
    """Exponential rate b = 1 / sample mean.

    Note 1/mean is biased for small n; no correction is applied, the
    estimator is used exactly as defined.
    """
    mean = empirical_moment(sample, 1)
    if mean <= 0:
        raise ValueError("all-zero service sample: rate estimate is degenerate")
    return 1.0 / mean


def load_observations(path):
    """Read a one-number-per-line observation file."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError("%s:%d: not a number: %r" % (path, lineno, text))
    try:
        return ObservationSample(values)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None

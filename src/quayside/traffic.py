"""Cumulative traffic coefficients for the preemptive-priority queue.

Classes are ordered with index 1 = highest priority; class k sees the
cumulative arrival rate sigma_{k-1} of everything that can interrupt it.
Three disciplines are supported for the fate of an interrupted job:

* resume -- it keeps its remaining work: per-class term lambda_k * beta_k1
* loss   -- it is discarded: term (lambda_k/sigma_{k-1}) * (1 - beta_k(sigma_{k-1}))
* repeat -- it restarts with a fresh draw: term
            (lambda_k/sigma_{k-1}) * (1/beta_k(sigma_{k-1}) - 1)

For the top class all three coincide at lambda_1 * beta_11.  The system
is viable while the cumulative coefficient stays below 1.

FIFO and LIFO, the two orders of a single-class queue, are named here too,
so that every discipline has one definition that needs no numpy.
"""

from dataclasses import dataclass
from typing import NamedTuple, Tuple

from .errors import NumericOverflowError, positive_finite

__all__ = [
    "FIFO",
    "LIFO",
    "RESUME",
    "LOSS",
    "REPEAT",
    "DISCIPLINES",
    "PriorityClass",
    "PriorityScenario",
    "TrafficReport",
    "traffic_coefficients",
]

FIFO = "fifo"
LIFO = "lifo"
RESUME = "resume"
LOSS = "loss"
REPEAT = "repeat"
DISCIPLINES = (RESUME, LOSS, REPEAT)


@dataclass(frozen=True)
class PriorityClass:
    lam: float              # arrival rate
    service: object         # a law of .distributions

    def __post_init__(self):
        positive_finite(self.lam, "arrival rate")


@dataclass(frozen=True)
class PriorityScenario:
    classes: Tuple[PriorityClass, ...]   # index 0 = highest priority
    discipline: str

    def __post_init__(self):
        if len(self.classes) < 1:
            raise ValueError("scenario needs at least one class")
        if self.discipline not in DISCIPLINES:
            raise ValueError("unknown discipline %r" % (self.discipline,))
        object.__setattr__(self, "classes", tuple(self.classes))


class TrafficReport(NamedTuple):
    sigma: Tuple[float, ...]        # cumulative arrival rates
    rho: Tuple[float, ...]          # cumulative traffic coefficients

    @property
    def stationary_flags(self):
        """Per class k, whether rho_k < 1."""
        return tuple(r < 1.0 for r in self.rho)

    @property
    def stationary(self):
        return all(self.stationary_flags)

    @property
    def stationary_prefix(self):
        """Largest m such that classes 1..m are viable (rho_1..rho_m < 1)."""
        flags = self.stationary_flags
        return flags.index(False) if False in flags else len(flags)

    @property
    def first_overloaded_class(self):
        """1-based index of the first class with rho >= 1, or None."""
        return None if self.stationary else self.stationary_prefix + 1


def _class_term(cls, discipline, sigma_prev, index):
    """Expected server time consumed per unit time by class `index` (1-based)."""
    if index == 1 or discipline == RESUME:
        return cls.lam * cls.service.moment1()
    beta = cls.service.lst(sigma_prev)
    if discipline == LOSS:
        return (cls.lam / sigma_prev) * (1.0 - beta)
    # repeat-different: mean effective service (1/beta - 1)/sigma_prev
    if beta <= 0.0:
        raise NumericOverflowError(
            "repeat-discipline term for class %d overflows: beta(sigma=%g) underflowed to 0"
            % (index, sigma_prev),
            class_index=index,
        )
    return (cls.lam / sigma_prev) * (1.0 / beta - 1.0)


def traffic_coefficients(sc):
    """Cumulative sigma_k and rho_k for every class of the scenario."""
    sigma = []
    rho = []
    total_rate = 0.0
    total_rho = 0.0
    for i, cls in enumerate(sc.classes, start=1):
        term = _class_term(cls, sc.discipline, total_rate, i)
        total_rate += cls.lam
        total_rho += term
        sigma.append(total_rate)
        rho.append(total_rho)
    return TrafficReport(tuple(sigma), tuple(rho))

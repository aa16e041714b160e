"""Discrete-event simulation oracle for the single-server queue.

One event engine runs every case: non-preemptive M|G|1 under FIFO or LIFO
order, and the preemptive-priority queue under the resume / loss / repeat
disciplines.  The order within a class is the only thing FIFO and LIFO
change; preemption can only happen when there are at least two classes.
Every run is driven by numpy substreams derived from one master seed
(separate streams per class for interarrivals and service draws), so a
given SimConfig always reproduces bit-identical results and adding a
class does not perturb the other classes' draws.  Each stream is drawn in
blocks of _CHUNK values per generator call; the block size changes no
result, because numpy's exponential and uniform draws do not depend on it
and an Erlang service sums k consecutive draws.

Discipline semantics, fixed here once:

* resume -- a preempted job keeps its remaining work and waits at the
  head of its class queue.
* loss   -- only the job in service is discarded on preemption; queued
  jobs are never dropped.
* repeat -- a preempted job re-enters at the head of its class with a
  freshly resampled service time (repeat-different).

Ties between an arrival and a completion at the same instant resolve
completion-first, so a job with zero remaining work is never preempted.
Simultaneous arrivals enter in class order.  A job's wait runs from its
arrival to its first start of service.  The first 10% of
``total_arrivals`` arrivals warm the queue up and are not measured; the
measured waits are kept in arrival order, and the 95% confidence
interval of their mean comes from 20 batch means over that order.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from typing import NamedTuple, Tuple

import numpy as np

from .errors import StationarityError, integer, positive_finite, real
from .traffic import FIFO, LIFO, REPEAT, RESUME, traffic_coefficients

__all__ = ["SimConfig", "SimResult", "simulate_mg1", "simulate_priority"]

# draws per generator call, turned into Python floats a block at a time:
# a larger block leaves megabytes of objects behind and slows the caller
_CHUNK = 1 << 11
_BATCHES = 20
# Student t quantile t_{0.975} with _BATCHES - 1 = 19 degrees of freedom,
# correctly rounded from a 30-digit root of the t distribution function
_T_975 = 2.0930240544083096
_NO_ARRIVAL = (math.inf, None)


@dataclass(frozen=True)
class SimConfig:
    seed: int
    total_arrivals: int                  # measured (post-warmup) arrivals
    ecdf_grid: Tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", integer(self.seed, "seed", 0))
        object.__setattr__(self, "total_arrivals", integer(self.total_arrivals, "total_arrivals", 1))
        object.__setattr__(self, "ecdf_grid", tuple(sorted(real(x, "ecdf_grid point") for x in self.ecdf_grid)))
        if not all(map(math.isfinite, self.ecdf_grid)):
            raise ValueError("ecdf_grid points must be finite, got %r" % (self.ecdf_grid,))

    @property
    def warmup(self):
        """Arrivals simulated before measuring: 10% of total_arrivals."""
        return self.total_arrivals // 10


class SimResult(NamedTuple):
    mean_wait: float
    ci_half_width: float                 # 95% batch-means CI, 20 batches
    ecdf: Tuple[float, ...]              # empirical W(x) on the config grid
    utilization_prefix: Tuple[float, ...]  # busy fraction of classes 1..k
    completed: Tuple[int, ...]
    lost: Tuple[int, ...]
    idle_at_arrival: float               # fraction of measured arrivals finding idle
    horizon: float
    total_busy_time: float


def _substream(seed, group, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(group, index)))


def _floats(blocks):
    """Python floats of an endless run of numpy blocks."""
    return chain.from_iterable(map(np.ndarray.tolist, blocks))


def _epochs(rng, rate):
    """Endless epochs of one Poisson class: running sums of its exponential gaps."""
    return accumulate(_floats(map(rng.exponential, repeat(1.0 / rate), repeat(_CHUNK))))


def _arrivals(seed, rates):
    """Endless (epoch, class) pairs of all Poisson classes in time order.

    Class k's epochs come from substream (0, k); equal epochs go lower
    class first, by tuple order.
    """
    return heapq.merge(*(zip(_epochs(_substream(seed, 0, k), rate), repeat(k))
                         for k, rate in enumerate(rates)))


def _services(rng, law):
    """Endless service times of one class, drawn in _CHUNK blocks."""
    return _floats(map(law.sample, repeat(rng), repeat(_CHUNK)))


def _batch_means_ci(waits):
    if len(waits) < _BATCHES:
        return float(np.mean(waits)), math.inf
    usable = (len(waits) // _BATCHES) * _BATCHES
    batches = waits[:usable].reshape(_BATCHES, -1).mean(axis=1)
    half = _T_975 * batches.std(ddof=1) / math.sqrt(_BATCHES)
    return float(np.mean(waits)), float(half)


def _ecdf(waits, grid):
    if not grid:
        return ()
    return tuple((np.searchsorted(np.sort(waits), grid, side="right") / len(waits)).tolist())


def _simulate(classes, discipline, cfg):
    """The event loop behind both public entry points.

    `classes` holds (arrival rate, service law) pairs, highest priority
    first; `discipline` is FIFO or LIFO (one class) or a preemption
    discipline (FIFO within each class).
    """
    warm = cfg.warmup
    arrivals = islice(_arrivals(cfg.seed, [rate for rate, _ in classes]),
                      cfg.total_arrivals + warm)
    services = [_services(_substream(cfg.seed, 1, k), law) for k, (_, law) in enumerate(classes)]
    queues = [deque() for _ in classes]  # jobs: (arrival time, index, work or None if unstarted)
    enqueue = [q.appendleft if discipline == LIFO else q.append for q in queues]
    waits = np.empty(cfg.total_arrivals)
    busy = [0.0] * len(classes)
    completed = [0] * len(classes)
    lost = [0] * len(classes)
    idle_found = 0
    made = 0
    t = 0.0
    completion = math.inf  # of the job in service, of class `serving`
    serving = None
    at, k = next(arrivals, _NO_ARRIVAL)
    while completion < math.inf or at < math.inf:
        if completion <= at:  # completion first on ties
            t = completion
            completed[serving] += 1
            completion = math.inf
        else:
            t = at
            if completion == math.inf:
                if made >= warm:
                    idle_found += 1
            elif serving > k:
                left = completion - t
                busy[serving] -= left
                completion = math.inf
                if discipline == RESUME:
                    queues[serving].appendleft((None, None, left))
                elif discipline == REPEAT:
                    # drawn now, yet still its class's next draw: it starts
                    # before any other job of its class
                    queues[serving].appendleft((None, None, next(services[serving])))
                else:
                    lost[serving] += 1
            enqueue[k]((t, made, None))
            made += 1
            at, k = next(arrivals, _NO_ARRIVAL)
        if completion == math.inf:
            for serving, queue in enumerate(queues):
                if queue:
                    arrived, idx, work = queue.popleft()
                    if work is None:
                        work = next(services[serving])
                        if idx >= warm:
                            waits[idx - warm] = t - arrived
                    busy[serving] += work
                    completion = t + work
                    break

    mean, half = _batch_means_ci(waits)
    busy_prefix = list(accumulate(busy))
    return SimResult(
        mean,
        half,
        _ecdf(waits, cfg.ecdf_grid),
        tuple(v / t for v in busy_prefix),
        tuple(completed),
        tuple(lost),
        idle_found / cfg.total_arrivals,
        t,
        busy_prefix[-1],
    )


def simulate_mg1(d, a, order, cfg):
    """Non-preemptive single-class queue; `order` is "fifo" or "lifo"."""
    if order not in (FIFO, LIFO):
        raise ValueError("order must be fifo or lifo, got %r" % (order,))
    a = positive_finite(a, "arrival rate")
    rho = a * d.moment1()
    if rho >= 1.0:
        raise StationarityError(
            "oracle only runs stationary cases: traffic coefficient %.6g >= 1" % rho
        )
    return _simulate(((a, d),), order, cfg)


def simulate_priority(sc, cfg):
    """Preemptive-priority queue; higher class interrupts immediately."""
    report = traffic_coefficients(sc)
    if not report.stationary:
        raise StationarityError(
            "scenario not stationary under %s: class %d has rho=%.4g >= 1"
            % (sc.discipline, report.first_overloaded_class,
               report.rho[report.first_overloaded_class - 1]),
            first_overloaded_class=report.first_overloaded_class,
        )
    return _simulate([(c.lam, c.service) for c in sc.classes], sc.discipline, cfg)

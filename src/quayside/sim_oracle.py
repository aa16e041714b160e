"""Discrete-event simulation oracle for the single-server queue.

One event engine runs every case: non-preemptive M|G|1 under FIFO or LIFO
order, and the preemptive-priority queue under the resume / loss / repeat
disciplines.  The order within a class is the only thing FIFO and LIFO
change; preemption can only happen when there are at least two classes.
Every run is driven by numpy substreams derived from one master seed
(separate streams per class for interarrivals and service draws), so a
given SimConfig always reproduces bit-identical results and adding a
class does not perturb the other classes' draws.

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
arrival to its first start of service; waits are kept in arrival order,
and the 95% confidence interval of their mean comes from 20 batch means
over that order.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Optional, Tuple

import numpy as np

from .errors import StationarityError
from .traffic import REPEAT, RESUME, traffic_coefficients
from .waiting_time import FIFO, LIFO

__all__ = ["SimConfig", "SimResult", "simulate_mg1", "simulate_priority"]

_CHUNK = 1 << 16  # draws per generator call; it fixes which draws an Erlang service sums
# values turned into Python floats at a time: converting a whole chunk at
# once leaves megabytes of objects behind and slows the caller's next steps
_SLICE = 1 << 11
_BATCHES = 20
# Student t quantile t_{0.975} with _BATCHES - 1 = 19 degrees of freedom,
# correctly rounded from a 30-digit root of the t distribution function
_T_975 = 2.0930240544083096
_NO_ARRIVAL = (math.inf, None)


@dataclass(frozen=True)
class SimConfig:
    seed: int
    total_arrivals: int                  # measured (post-warmup) arrivals
    warmup_arrivals: Optional[int] = None  # default: 10% of total
    ecdf_grid: Tuple[float, ...] = ()

    def __post_init__(self):
        if self.total_arrivals < 1:
            raise ValueError("total_arrivals must be >= 1")
        if self.warmup_arrivals is not None and self.warmup_arrivals < 0:
            raise ValueError("warmup_arrivals must be >= 0, got %r" % (self.warmup_arrivals,))
        object.__setattr__(self, "ecdf_grid", tuple(sorted(self.ecdf_grid)))
        if not all(map(math.isfinite, self.ecdf_grid)):
            raise ValueError("ecdf_grid points must be finite, got %r" % (self.ecdf_grid,))

    @property
    def warmup(self):
        if self.warmup_arrivals is None:
            return self.total_arrivals // 10
        return self.warmup_arrivals


@dataclass(frozen=True)
class SimResult:
    mean_wait: float
    ci_half_width: float                 # 95% batch-means CI, 20 batches
    ecdf: Tuple[float, ...]              # empirical W(x) on the config grid
    utilization_prefix: Tuple[float, ...]  # busy fraction of classes 1..k
    completed: Tuple[int, ...]
    lost: Tuple[int, ...]
    idle_at_arrival: float               # fraction of measured arrivals finding idle
    horizon: float
    total_busy_time: float
    seed: int


def _substream(seed, group, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(group, index)))


def _floats(blocks):
    """Python floats of an endless run of numpy blocks, _SLICE values at a time."""
    for block in blocks:
        for i in range(0, len(block), _SLICE):
            yield from block[i:i + _SLICE].tolist()


def _epochs(rng, rate):
    """Endless epoch blocks of one Poisson class: running sums of _CHUNK exponential draws."""
    last = 0.0
    while True:
        block = rng.exponential(1.0 / rate, _CHUNK)
        block[0] += last
        yield np.cumsum(block, out=block)  # sequential: same bits as a running sum
        last = block[-1]


def _arrivals(seed, rates):
    """Endless (epoch, class) pairs of all Poisson classes in time order.

    Class k's epochs come from substream (0, k); equal epochs go lower
    class first, by tuple order.
    """
    return heapq.merge(*(zip(_floats(_epochs(_substream(seed, 0, k), rate)), repeat(k))
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
    return SimResult(
        mean_wait=mean,
        ci_half_width=half,
        ecdf=_ecdf(waits, cfg.ecdf_grid),
        utilization_prefix=tuple(float(v) for v in np.cumsum(busy) / t),
        completed=tuple(completed),
        lost=tuple(lost),
        idle_at_arrival=idle_found / cfg.total_arrivals,
        horizon=t,
        total_busy_time=float(np.sum(busy)),
        seed=cfg.seed,
    )


def simulate_mg1(d, a, order, cfg):
    """Non-preemptive single-class queue; `order` is "fifo" or "lifo"."""
    if order not in (FIFO, LIFO):
        raise ValueError("order must be fifo or lifo, got %r" % (order,))
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

"""Discrete-event simulation oracle for the single-server queue.

Single-class FIFO runs by Lindley's recursion: each arrival starts at its
epoch or at the previous departure, whichever is later.  One event engine
runs the other cases: non-preemptive M|G|1 under LIFO order, and the
preemptive-priority queue under the resume / loss / repeat disciplines.
Preemption can only happen when there are at least two classes, so a
one-class priority run is the engine's FIFO queue, and it gives the
recursion's result bit for bit: both take the same draws and the same
float operations.  Every run is driven by numpy substreams derived from
one master seed (separate streams per class for interarrivals and service
draws), so a given SimConfig always reproduces bit-identical results and
adding a class does not perturb the other classes' draws.  The engine
draws each stream in blocks of _CHUNK values per generator call, the
recursion draws a run's values in one call; the block size changes no
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

# draws per engine generator call, and values per slice of the recursion,
# turned into Python floats a block at a time: a larger block leaves
# megabytes of objects behind and slows the caller
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
    """The event loop behind LIFO and every priority run.

    `classes` holds (arrival rate, service law) pairs, highest priority
    first; `discipline` is LIFO (one class) or a preemption discipline
    (FIFO within each class).
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
        mean,
        half,
        _ecdf(waits, cfg.ecdf_grid),
        tuple(v / t for v in accumulate(busy)),
        tuple(completed),
        tuple(lost),
        idle_found / cfg.total_arrivals,
        t,
    )


def _lindley(a, d, cfg):
    """Single-class FIFO by Lindley's recursion, in the engine's float operations.

    Epochs are sequential running sums of the gaps, as the engine's; each
    job starts at its epoch if the previous departure is not later (ties go
    completion first) and departs at start + work.  An arrival that finds
    the berth busy waits D - A > 0, so it found it idle exactly when its
    wait is 0.0.  The busy time is a sequential sum, as the engine's.
    """
    n = cfg.total_arrivals + cfg.warmup
    epochs = _substream(cfg.seed, 0, 0).exponential(1.0 / a, n)
    np.cumsum(epochs, out=epochs)  # in place, here and below: each spares an array of n floats
    work = d.sample(_substream(cfg.seed, 1, 0), n)
    starts = np.empty(n)
    done = 0.0
    for lo in range(0, n, _CHUNK):
        block = []
        for at, w in zip(epochs[lo:lo + _CHUNK].tolist(), work[lo:lo + _CHUNK].tolist()):
            start = at if done <= at else done
            done = start + w
            block.append(start)
        starts[lo:lo + _CHUNK] = block
    waits = np.subtract(starts, epochs, out=starts)[cfg.warmup:]
    mean, half = _batch_means_ci(waits)
    return SimResult(
        mean,
        half,
        _ecdf(waits, cfg.ecdf_grid),
        (float(np.cumsum(work, out=work)[-1]) / done,),
        (n,),
        (0,),
        int(np.count_nonzero(waits == 0.0)) / cfg.total_arrivals,
        done,
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
    return _lindley(a, d, cfg) if order == FIFO else _simulate(((a, d),), order, cfg)


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

"""Run state shared by the benchmark's workloads."""

import math
import random
import statistics
from collections import Counter, deque
from time import perf_counter

from quayside import QuaysideError

# Where a failed operation's input lies decides which known fault it is charged to.
FIFO_CANCELLATION = "fifo-cancellation"  # s - a + a*beta(s) cancels for small s
LIFO_ABOVE_ONE = "lifo-above-one"        # Kendall's absolute 1e-12 stop while 1 - pi(s) ~ s
HIGH_ORDER_NOISE = "high-order-noise"    # order-18/20 weights amplify double-rounded nodes
UNIFORM_KINKS = "uniform-kinks"          # order 14 does not resolve the uniform law's kinked W(x)
EDGE_FAULTS = (FIFO_CANCELLATION, LIFO_ABOVE_ONE, HIGH_ORDER_NOISE)

SMALL_S = 1e-6     # transforms at or below this s are in the cancellation faults' domain
# An order-14 FIFO CDF at x >= 1000 evaluates the transform at s = k ln2 / x <= 1e-2,
# where the cancellation already costs digits that the weights then amplify.
LARGE_X = 1000.0
DIGITS_CAP = 15.0


def lst_fault(discipline, s):
    if s > SMALL_S:
        return None
    return FIFO_CANCELLATION if discipline == "fifo" else LIFO_ABOVE_ONE


def cdf_fault(discipline, literal, x, order):
    if order >= 18:
        return HIGH_ORDER_NOISE
    if discipline == "fifo" and x >= LARGE_X:
        return FIFO_CANCELLATION
    if discipline == "lifo" and literal.startswith("unif(") and order == 14:
        return UNIFORM_KINKS
    return None


def digits(err):
    """-log10 of an absolute error, capped at 15."""
    if err <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))


def median(values):
    """The statistic of every timing, end-to-end and per layer.

    The machine's speed switches between a fast and a slower state every
    second or so, and the mix of states drifts over minutes.  A quantile
    jumps between the states when their mix crosses it.  Over 36 runs in
    four sets of 8 to 10, the largest spread over runs of any timing was
    19 % with the median, against 33 % with the upper quartile and 51 %
    with the minimum.
    """
    return statistics.median(values)


class Run:
    """Seed, scratch directory, tracer, reference values and the tally of checked operations.

    Operations of the workload's own rounds are counted in ``attempted`` and
    ``failed``.  The small fixed covers that give every workload a value
    for every metric are checked too, but not counted, so the failed share
    stays the same whatever the number of rounds.  A cover operation that
    fails in a known fault's domain is listed under the fault, as any failed
    operation is, and counted where its own workload runs.
    """

    def __init__(self, seed, workdir, tracer, refs):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.refs = refs
        self.counting = True
        self.attempted = 0
        self.failed = 0
        self.faults = Counter()
        self.failed_ops = {}  # fault -> {label: None}, the distinct operations it failed
        self.unexpected = []

    def rng(self, part):
        """A generator of its own for each part of the run, so that how many rounds
        one part ran does not change the inputs of the next."""
        return random.Random("%d/%s" % (self.seed, part))

    def check(self, label, problems, fault=None):
        """Record one operation; `problems` lists what its checks found wrong."""
        if self.counting:
            self.attempted += 1
        if not problems:
            return True
        entry = "%s: %s" % (label, "; ".join(problems))
        if fault is None:
            self.unexpected.append(entry)
            return False
        if self.counting:
            self.failed += 1
            self.faults[fault] += 1
        self.failed_ops.setdefault(fault, {})[entry] = None
        return False

    def call(self, name, fn, *args):
        """Call into quayside, inside a span when tracing; errors are returned, not raised."""
        if self.tracer is None:  # no context manager on the untraced path: it is timed
            try:
                return fn(*args)
            except QuaysideError as exc:
                return exc
        with self.tracer.span(name):
            try:
                return fn(*args)
            except QuaysideError as exc:
                return exc


def schedule(run, main, covers, seconds):
    """Whole rounds of `main` until `seconds` of its own time have passed (at least one).

    `covers` is [(work, rounds)].  Their steps are spread evenly over the
    main rounds, so that every metric samples the whole run rather than
    one stretch of it, and they are not counted in ``attempted``.
    """
    placed = []
    for work, rounds in covers:
        steps = [step for _ in range(rounds) for step in work.steps()]
        placed += [((i + 0.5) / len(steps), step) for i, step in enumerate(steps)]
    placed.sort(key=lambda p: p[0])
    pending = deque(step for _, step in placed)

    def run_covers(fraction):
        while pending and len(placed) - len(pending) < fraction * len(placed):
            run.counting = False
            try:
                pending.popleft()()
            finally:
                run.counting = True

    busy = 0.0
    while True:
        this_round = 0.0
        for step in main.steps():
            t0 = perf_counter()
            step()
            dt = perf_counter() - t0
            this_round += dt
            busy += dt
            run_covers(busy / seconds if seconds else 0.0)
        main.round_times.append(this_round)
        if busy >= seconds:
            break
    run_covers(1.0)
    run.counting = False

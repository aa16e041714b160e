"""Spans and counting service laws for the benchmark's traced run.

Spans are recorded by the benchmark around each public quayside call it
makes, with the span that caused it as parent, and kept in memory until
the run writes them out.  ``Counted`` wraps a quayside service law and is
passed into the library in its place, so that the ``lst`` and ``sample``
calls the library makes are counted and timed from outside; the counts
are charged to every span open at the time.
"""

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "lst_calls": 0,
            "lst_s": 0.0,
            "draws": 0,
            "sample_s": 0.0,
        }
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def charge(self, calls_key, calls, time_key, seconds):
        for rec in self._open:
            rec[calls_key] += calls
            rec[time_key] += seconds

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def write(self, path, header):
        with open(path, "w") as fh:
            json.dump({"run": header, "spans": self.spans}, fh)


class Counted:
    """A service law that forwards to a quayside law and reports its calls to a tracer."""

    def __init__(self, law, tracer):
        self._law = law
        self._tracer = tracer

    def lst(self, s):
        t0 = perf_counter()
        value = self._law.lst(s)
        self._tracer.charge("lst_calls", 1, "lst_s", perf_counter() - t0)
        return value

    def sample(self, rng, size=None):
        t0 = perf_counter()
        draws = self._law.sample(rng, size)
        self._tracer.charge("draws", 1 if size is None else size, "sample_s", perf_counter() - t0)
        return draws

    def moment1(self):
        return self._law.moment1()

    def cdf(self, x):
        return self._law.cdf(x)

    def literal(self):
        return self._law.literal()

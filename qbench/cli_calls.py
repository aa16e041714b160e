"""Cold CLI calls: fresh ``python -m quayside.cli`` processes, one at a time.

A round runs wait, cdf, traffic, simulate (small), invert, reproduce and
one overloaded cdf (exit code 3), then estimate on a generated
observation file.  Parameters and files come from the workload seed.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from time import perf_counter

import numpy as np
from quayside import estimate_service_rate, load_observations, load_scenario
from quayside.cli import run as cli_run

import inputs
import reference
from common import median
from sim import CI_WIDTHS, MM1, MM1_MEAN_WAIT, SIM_ARRIVALS

CALL_TIMEOUT_S = 120
MM1_LOADS = (2.5, 3.0, 3.5, 4.0)        # arrival rates for exp(5): rho 0.5 .. 0.8
OVERLOADED_RATES = (5.5, 6.0, 7.0)      # rho 1.1 .. 1.4
PRIORITY_TABLES = ("4.3.1", "4.4.1", "4.5.1")
LST_TOL = 1e-9      # closed forms against values printed with repr
CDF_TOL = 1e-3      # criterion 5
INVERT_ORDER = 18
INVERT_TOL = 1e-6   # criterion 5's point tolerance for 1/(s+1) at order 18
ESTIMATE_RTOL = 1e-9
STATIONARITY_EXIT = 3   # the CLI's documented exit code for a stationarity refusal
FILE_BLOCK = 10**4      # observation lines formatted at a time


class Files:
    """Scenario and observation files written into the run's scratch directory."""

    def __init__(self, run, observations):
        rng = run.rng("cli-files")
        d = run.workdir
        tables = inputs.table_traffic_scenarios()
        self.priority_table = rng.choice(PRIORITY_TABLES)
        discipline, classes = tables[self.priority_table]
        self.priority = self._write(d, "priority.json", {
            "discipline": discipline,
            "classes": [{"lambda": lam, "service": lit} for lam, lit in classes],
        })
        # FIFO: the simulate call is checked against its own CI, which LIFO's is too narrow for
        self.mm1 = self._write(d, "mm1.json", {
            "arrival_rate": MM1[1], "service": "exp(%g)" % MM1[0], "order": "fifo"})
        rate = rng.uniform(2.0, 8.0)
        gen = np.random.default_rng(run.seed)
        self.observations = os.path.join(d, "service.txt")

        def written():
            """Write the lines in blocks and yield the values as read back, so that
            the benchmark never holds a 10^6-line file's lines at once."""
            for i in range(0, observations, FILE_BLOCK):
                lines = ["%.6f" % v for v in gen.exponential(1.0 / rate, min(FILE_BLOCK, observations - i))]
                fh.write("\n".join(lines) + "\n")
                yield from map(float, lines)

        with open(self.observations, "w") as fh:
            fh.write("# service durations, rate %r\n" % rate)
            self.expected_rate = observations / math.fsum(written())
        self.n_observations = observations

    @staticmethod
    def _write(d, name, doc):
        path = os.path.join(d, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


class Calls:
    """The subcommand mix, each call with its argv, expected exit code and output check."""

    def __init__(self, run, files, kinds):
        rng = run.rng("cli-calls")
        self.run = run
        self.files = files
        self.calls = []
        for kind in kinds:
            self.calls.append(getattr(self, "_" + kind)(rng))

    def _wait(self, rng):
        order, a, s = rng.choice(("fifo", "lifo")), rng.choice(MM1_LOADS), 10 ** rng.uniform(-1, 1)
        with reference.mp.workdps(reference.LST_DPS):
            fn = reference.mm1_fifo_lst if order == "fifo" else reference.mm1_lifo_lst
            want = float(fn(a, MM1[0], s))
        argv = ["wait", "--order", order, "--service", "exp(%g)" % MM1[0], "--rate", repr(a), "--s", repr(s),
                "--format", "csv"]
        return ("wait", argv, 0, lambda rows: _close(rows[1][2], want, LST_TOL))

    def _cdf(self, rng):
        a, x = rng.choice(MM1_LOADS), rng.uniform(0.5, 10.0)
        with reference.mp.workdps(reference.CDF_DPS):
            want = float(reference.mm1_fifo_cdf(a, MM1[0], x))
        argv = ["cdf", "--order", "fifo", "--service", "exp(%g)" % MM1[0], "--rate", repr(a), "--x", repr(x),
                "--format", "csv"]
        return ("cdf", argv, 0, lambda rows: _close(rows[1][2], want, CDF_TOL))

    def _overloaded(self, rng):
        a, x = rng.choice(OVERLOADED_RATES), rng.uniform(0.5, 10.0)
        argv = ["cdf", "--order", rng.choice(("fifo", "lifo")), "--service", "exp(%g)" % MM1[0],
                "--rate", repr(a), "--x", repr(x)]
        return ("overloaded-cdf", argv, STATIONARITY_EXIT, lambda rows: [])

    def _traffic(self, rng):
        want = self.run.refs["traffic_rho"][self.files.priority_table]

        def check(rows):
            got = [float(r[4]) for r in rows[1:]]
            if len(got) != len(want):
                return ["%d classes, expected %d" % (len(got), len(want))]
            return [p for g, w in zip(got, want) for p in _close(g, w, 1e-9)]

        return ("traffic", ["traffic", "--scenario", self.files.priority, "--format", "csv"], 0, check)

    def _simulate(self, rng):
        seed = rng.randrange(2**31)
        argv = ["simulate", "--scenario", self.files.mm1, "--arrivals", str(SIM_ARRIVALS), "--seed", str(seed),
                "--format", "csv"]

        def check(rows):
            mean, half = float(rows[1][1]), float(rows[1][2])
            if not abs(mean - MM1_MEAN_WAIT) <= CI_WIDTHS * half:
                return ["mean wait %.4f, CI half-width %.4f" % (mean, half)]
            return []

        return ("simulate", argv, 0, check)

    def _invert(self, rng):
        x = rng.uniform(0.5, 3.0)
        argv = ["invert", "--transform", "one_over_s_plus_1", "--x", repr(x), "--inv-order", str(INVERT_ORDER),
                "--format", "csv"]
        return ("invert", argv, 0, lambda rows: _close(rows[1][2], math.exp(-x), INVERT_TOL))

    def _reproduce(self, rng):
        errata = self.run.refs["errata"]

        def check(rows):
            lines = [r[0] for r in rows if r]  # text output, one cell per line
            summary = [ln for ln in lines if ln.startswith("errata:")]
            if summary != ["errata: %d cell(s) flagged" % len(errata)]:
                return ["errata summary %r, expected %d cells" % (summary, len(errata))]
            flagged = {ln.strip().split(":")[0] for ln in lines if ln.startswith("  table ")}
            want = {"table %s row %d %s" % tuple(e) for e in errata}
            return [] if flagged == want else ["flagged %s, expected %s" % (sorted(flagged), sorted(want))]

        return ("reproduce", ["reproduce", "--format", "text"], 0, check)

    def _estimate(self, rng):
        f = self.files

        def check(rows):
            got, n = float(rows[1][1]), int(rows[1][2])
            problems = _close(got, f.expected_rate, ESTIMATE_RTOL * f.expected_rate)
            if n != f.n_observations:
                problems.append("n = %d, expected %d" % (n, f.n_observations))
            return problems

        return ("estimate", ["estimate", "--kind", "service", "--file", f.observations, "--format", "csv"], 0, check)


def _close(got, want, tol):
    got = float(got)
    return [] if abs(got - want) <= tol else ["%r, expected %r" % (got, want)]


def cli_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# `python -m quayside.cli`, plus a report of the process's own peak RSS at exit.
# VmHWM belongs to the address space the process got at exec; its rusage
# ru_maxrss would also count the benchmark's pages it was forked from.
_RUN_CLI = """\
import atexit, runpy, sys

def _report_peak():
    with open("/proc/self/status") as fh:
        kb = next((line.split()[1] for line in fh if line.startswith("VmHWM:")), "0")
    sys.stderr.write("qbench-peak-kb %s\\n" % kb)

atexit.register(_report_peak)
runpy.run_module("quayside.cli", run_name="__main__", alter_sys=True)
"""
_PEAK_RE = re.compile(r"^qbench-peak-kb (\d+)$", re.M)


def call_cli(run, env, kind, argv, code, check):
    """One fresh CLI process; returns its wall time and peak RSS in MB."""
    cmd = [sys.executable, "-c", _RUN_CLI] + argv
    span = run.tracer.span("cli " + kind) if run.tracer is not None else contextlib.nullcontext()
    with span:
        t0 = perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        wall = perf_counter() - t0
    problems = []
    if proc.returncode != code:
        problems.append("exit code %d, expected %d: %s" % (proc.returncode, code, proc.stderr.strip()[-200:]))
    else:
        rows = [[ln] for ln in proc.stdout.splitlines()] if kind == "reproduce" else _csv_rows(proc.stdout)
        try:
            problems += check(rows)
        except (IndexError, ValueError) as exc:
            problems.append("unreadable output (%s): %r" % (exc, proc.stdout[:200]))
    peak = _PEAK_RE.search(proc.stderr)
    if peak is None:
        problems.append("no peak RSS report on stderr")
    run.check("cli %s" % " ".join(argv), problems)
    return wall, int(peak.group(1)) / 1024.0 if peak else 0.0


# Several calls of each kind, spread through the round, so that cli_call_s and
# cli_estimate_s are each the median of several cold processes.
MIX = ("wait", "estimate", "cdf", "traffic", "estimate", "simulate", "invert", "estimate", "reproduce",
       "overloaded", "cdf", "estimate", "wait", "invert")


class ColdCli:
    def __init__(self, run, src, observations, mix):
        self.run = run
        self.env = cli_env(src)
        self.files = Files(run, observations)
        self.calls = Calls(run, self.files, mix)
        self.call_times = []
        self.estimate_times = []
        self.peak_mb = 0.0  # largest peak RSS of a CLI process
        self.round_times = []

    def steps(self):
        return [lambda call=call: self._call(*call) for call in self.calls.calls]

    def round(self):
        for step in self.steps():
            step()

    def _call(self, kind, argv, code, check):
        wall, peak_mb = call_cli(self.run, self.env, kind, argv, code, check)
        (self.estimate_times if kind == "estimate" else self.call_times).append(wall)
        self.peak_mb = max(self.peak_mb, peak_mb)

    def metrics(self):
        return {
            "cli_call_s": (median(self.call_times), "s"),
            "cli_estimate_s": (median(self.estimate_times), "s"),
            "cli_peak_rss_mb": (self.peak_mb, "MB"),
        }

    def layer_metrics(self):
        """In-process costs behind a CLI call: loading files and dispatching."""
        out = {}
        t0 = perf_counter()
        sample = load_observations(self.files.observations)
        load_s = perf_counter() - t0
        out["estimation.load_rows_per_s"] = (len(sample.values) / load_s, "1/s")
        times = []
        for _ in range(3):
            t0 = perf_counter()
            estimate_service_rate(sample)
            times.append(perf_counter() - t0)
        out["estimation.estimate_ms"] = (median(times) * 1e3, "ms")

        times = []
        for _ in range(50):
            for path in (self.files.mm1, self.files.priority):
                t0 = perf_counter()
                load_scenario(path)
                times.append(perf_counter() - t0)
        out["scenario.load_us"] = (median(times) * 1e6, "us")

        times = []
        with contextlib.redirect_stderr(io.StringIO()):
            for kind, argv, code, _ in self.calls.calls:
                if kind == "estimate":
                    continue
                t0 = perf_counter()
                got = cli_run(argv, out=io.StringIO())
                times.append(perf_counter() - t0)
                self.run.check("in-process cli %s" % kind, [] if got == code else ["exit %d" % got])
        out["cli.run_ms"] = (median(times) * 1e3, "ms")
        return out

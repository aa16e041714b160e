"""The quayside benchmark: one command, two workloads, every layer timed from outside.

    python3 qbench/run.py --workload sweep-paper --seed 1 --seconds 3 --trace 0

Run it from the root of a checkout; quayside is imported from ``src``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics).  Scratch files go under
``.qbench/`` and are removed when the run ends; a traced run leaves its
spans in ``.qbench/trace-<workload>-<seed>.json``.  See README.md for
the workloads, the metrics and the known faults.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "quayside", "__init__.py")):
    sys.exit("qbench: no quayside sources under %s; run from the root of a checkout" % SRC)
sys.path[:0] = [HERE, SRC]

import reference  # noqa: E402
from analytic import Sweep  # noqa: E402
from cli_calls import MIX, ColdCli, cli_env  # noqa: E402
from common import Run, median, schedule  # noqa: E402
from sim import Oracle  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("sweep-paper", "sweep-edge")
PROBE_TIMEOUT_S = 120
SIZES = {
    "probes": 3,                  # fresh set-up processes per run; setup_s is their median
    # covers: fixed work spread over the run, the same on both workloads
    "sim_rounds": 14,             # simulation oracle rounds; the cold CLI makes one round of MIX
    "cli_observations": 10**6,    # lines of the estimate calls' input
}


def machine_facts():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


class Probes:
    """Fresh interpreters that import quayside and call each entry point once.

    One probe is one cover step, so that the probes are spread over the run
    rather than all made while it starts.
    """

    def __init__(self, src, workdir):
        self.obs = os.path.join(workdir, "probe_obs.txt")
        with open(self.obs, "w") as fh:
            fh.write("# probe\n0.5\n0.25\n")
        self.scenario = os.path.join(workdir, "probe_mm1.json")
        with open(self.scenario, "w") as fh:
            json.dump({"arrival_rate": 4, "service": "exp(5)", "order": "fifo"}, fh)
        self.env = cli_env(src)
        self.results = []

    def steps(self):
        return [self.probe]

    def probe(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), self.obs, self.scenario],
                              env=self.env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        self.results.append(json.loads(proc.stdout.splitlines()[-1]))


def timed_round(work):
    t0 = time.perf_counter()
    work.round()
    return time.perf_counter() - t0


def run_workload(workload, seed, seconds, trace, workdir, sizes=SIZES, refs=None):
    """Run one workload; returns (run tally, {metric: (value, unit)}, rounds of its own work)."""
    refs = refs or reference.load()
    tracer = Tracer() if trace else None
    run = Run(seed, workdir, tracer, refs)
    main_work = lambda r: Sweep(r, "edge" if workload == "sweep-edge" else "paper")
    covers = ((Oracle, sizes["sim_rounds"]),
              (lambda r: ColdCli(r, SRC, sizes["cli_observations"], MIX), 1))

    overhead = None
    if trace:
        # one untraced and one traced round of the same in-process work give the tracing overhead
        plain_run, traced_run = Run(seed, workdir, None, refs), Run(seed, workdir, Tracer(), refs)
        plain = timed_round(main_work(plain_run))
        traced = timed_round(main_work(traced_run))
        overhead = traced / plain - 1.0
        run.unexpected += plain_run.unexpected + traced_run.unexpected

    main = main_work(run)
    probes = Probes(SRC, workdir)
    cover_work = [(probes, sizes["probes"])] + [(make(run), rounds) for make, rounds in covers]
    schedule(run, main, cover_work, seconds)
    parts = [main] + [work for work, _ in cover_work[1:]]

    metrics = {}
    if trace:
        for part in parts:
            metrics.update(part.layer_metrics())
        metrics["cli.import_s"] = (median(p["import_s"] for p in probes.results), "s")
        metrics["tracing.overhead_share"] = (overhead, "ratio")
    else:
        metrics["setup_s"] = (median(p["setup_s"] for p in probes.results), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        for part in parts:
            metrics.update(part.metrics())

    if tracer is not None:
        tracer.write(os.path.join(os.path.dirname(workdir), "trace-%s-%d.json" % (workload, seed)),
                     {"workload": workload, "seed": seed, "machine": machine_facts()})
    return run, metrics, len(main.round_times)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    outdir = os.path.join(ROOT, ".qbench")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=outdir)
    try:
        run, metrics, rounds = run_workload(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine: %s" % json.dumps(machine_facts()))
    print("workload %s, seed %d, %g s, trace %d: %d rounds"
          % (args.workload, args.seed, args.seconds, args.trace, rounds))
    for name in sorted(metrics):
        value, unit = metrics[name]
        print("  %-44s %14.6g %s" % (name, value, unit))
    print("attempted %d, failed %d%s" % (
        run.attempted, run.failed,
        "".join(", %s %d" % (f, n) for f, n in sorted(run.faults.items()))))
    for fault, ops in sorted(run.failed_ops.items()):
        for op in ops:
            print("failed [%s] %s" % (fault, op))
    for line in run.unexpected[:20]:
        print("unexpected: %s" % line)
    if len(run.unexpected) > 20:
        print("unexpected: ... %d more" % (len(run.unexpected) - 20))
    print(json.dumps({
        "correct": not run.unexpected,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Quick test of the benchmark itself; takes about two minutes.

    python3 -m pytest -q qbench/test_bench.py

Runs both workloads at a tiny size, shows that the checks can fail, and
that the simulation oracle is bit-reproducible for a given seed.
"""

import copy
import json
import os
import shutil
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402  (puts quayside's sources on the path)
import cli_calls  # noqa: E402
import reference  # noqa: E402
from analytic import Sweep  # noqa: E402
from common import EDGE_FAULTS, UNIFORM_KINKS, Run  # noqa: E402
from sim import Oracle  # noqa: E402

TINY = {
    "probes": 1,
    "sim_rounds": 1,
    "cli_observations": 1000,
}
SEED = 7


@pytest.fixture
def workdir():
    out = os.path.join(bench.ROOT, ".qbench")
    os.makedirs(out, exist_ok=True)
    d = tempfile.mkdtemp(prefix="test-", dir=out)
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.fixture(scope="module")
def refs():
    return reference.load()


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_workload_runs_at_a_tiny_size(workload, trace, workdir):
    run, metrics, rounds = bench.run_workload(workload, SEED, 0, trace, workdir, sizes=TINY)
    assert run.unexpected == []
    assert rounds == 1 and run.attempted >= 1
    # every metric BENCHMARK.json names for this mode, with its unit, and no other
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in spec}
    for value, _ in metrics.values():
        assert isinstance(value, (int, float)) and value == value
    if workload == "sweep-edge":
        # every failure is charged to one of the three known faults
        assert run.failed > 0 and set(run.faults) == set(EDGE_FAULTS)
    else:
        assert run.failed == 4 and set(run.faults) == {UNIFORM_KINKS}


def test_perturbed_reference_is_reported(workdir, refs):
    bad = copy.deepcopy(refs)
    key = reference.key("lst", "fifo", "exp(5)", 4.0, 1.0)
    bad["values"][key] += 0.01
    run = Run(SEED, workdir, None, bad)
    Sweep(run, "paper").round()
    assert set(run.faults) == {UNIFORM_KINKS}
    # the sweep's own call and the rendered table row 4.2.4/1 share this reference
    assert len(run.unexpected) == 2
    assert run.unexpected[0].startswith("fifo w(1) exp(5) a=4: |w(s) - ref| = 0.01")
    assert run.unexpected[1].startswith("reproduce all (order 14): table 4.2.4 row 1")


def test_uniform_cdf_is_held_to_the_cdf_tolerance(workdir, refs):
    bad = copy.deepcopy(refs)
    bad["values"][reference.key("cdf", "fifo", "unif(1,3)", 0.3, 5.0)] += 0.01
    run = Run(SEED, workdir, None, bad)
    Sweep(run, "paper").round()
    assert len(run.unexpected) == 1
    assert run.unexpected[0].startswith("fifo W(5) unif(1,3) a=0.3 order 14: |W(x) - ref| = 0.01")


def test_perturbed_reference_in_a_fault_domain_counts_as_failed(workdir, refs):
    clean = Run(SEED, workdir, None, refs)
    Sweep(clean, "edge").round()
    bad = copy.deepcopy(refs)
    bad["values"][reference.key("lst", "fifo", "exp(1)", 0.95, 1e-6)] += 0.01  # passes unperturbed
    run = Run(SEED, workdir, None, bad)
    Sweep(run, "edge").round()
    assert run.unexpected == []
    assert run.failed == clean.failed + 1
    assert run.faults["fifo-cancellation"] == clean.faults["fifo-cancellation"] + 1


def test_wrong_exit_code_is_reported(workdir, refs, monkeypatch):
    monkeypatch.setattr(cli_calls, "STATIONARITY_EXIT", 0)
    run = Run(SEED, workdir, None, refs)
    cli_calls.ColdCli(run, bench.SRC, 10, ("overloaded",)).round()
    assert len(run.unexpected) == 1 and "exit code 3, expected 0" in run.unexpected[0]


def test_simulations_are_bit_reproducible(workdir, refs):
    results = []
    for _ in range(2):
        run = Run(SEED, workdir, None, refs)
        oracle = Oracle(run)
        oracle.round()
        oracle.round()
        assert run.unexpected == []
        results.append([repr(r) for r in oracle.results])
    assert len(results[0]) == 10
    assert results[0] == results[1]

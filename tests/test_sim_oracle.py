import dataclasses
import heapq
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import quayside
from quayside import (
    Erlang2,
    Exponential,
    Gamma3,
    PriorityClass,
    PriorityScenario,
    SimConfig,
    StationarityError,
    Uniform,
    simulate_mg1,
    simulate_priority,
    traffic_coefficients,
)
from quayside.reference_tables import traffic_scenario
from quayside.sim_oracle import _CHUNK, _T_975, _arrivals, _substream

MM1 = (Exponential(5), 4.0)  # rho = 0.8, mean wait 0.8, W(x) = 1 - 0.8 e^{-x}
# one queue per law at rho = 0.8
QUEUES = [MM1, (Erlang2(4), 1.6), (Gamma3(9), 2.4), (Uniform(1, 3), 0.4)]


def small_cfg(seed=2016, n=2 * 10**5, grid=()):
    return SimConfig(seed=seed, total_arrivals=n, ecdf_grid=grid)


def test_mm1_fifo_mean_and_ecdf():
    d, a = MM1
    res = simulate_mg1(d, a, "fifo", small_cfg(grid=(0.0, 3.0)))
    assert res.mean_wait == pytest.approx(0.8, abs=0.05)
    assert res.ecdf[1] == pytest.approx(1 - 0.8 * math.exp(-3), abs=0.02)
    assert res.utilization_prefix[0] == pytest.approx(0.8, abs=0.02)


def test_mm1_lifo_same_mean_as_fifo():
    d, a = MM1
    fifo = simulate_mg1(d, a, "fifo", small_cfg())
    lifo = simulate_mg1(d, a, "lifo", small_cfg())
    assert abs(fifo.mean_wait - lifo.mean_wait) <= fifo.ci_half_width + lifo.ci_half_width


def test_determinism_bit_identical():
    d, a = MM1
    cfg = small_cfg(n=10**4, grid=(1.0, 2.0))
    r1 = simulate_mg1(d, a, "fifo", cfg)
    r2 = simulate_mg1(d, a, "fifo", cfg)
    assert r1 == r2
    sc = traffic_scenario("4.4.1")
    p1 = simulate_priority(sc, cfg)
    p2 = simulate_priority(sc, cfg)
    assert p1 == p2


def test_result_holds_what_the_run_computed():
    res = simulate_mg1(*MM1, "fifo", small_cfg(n=10**4, grid=(1.0,)))
    assert not dataclasses.is_dataclass(res)
    assert res._fields == ("mean_wait", "ci_half_width", "ecdf", "utilization_prefix", "completed",
                           "lost", "idle_at_arrival", "horizon")
    assert res == tuple(res)  # a named tuple compares equal to the plain tuple of its values


def test_too_few_waits_for_batch_means():
    # fewer measured waits than batches: the mean alone, with an infinite CI
    res = simulate_mg1(*MM1, "fifo", SimConfig(seed=1, total_arrivals=19))
    assert math.isfinite(res.mean_wait)
    assert res.ci_half_width == math.inf


def test_different_seed_different_result():
    d, a = MM1
    r1 = simulate_mg1(d, a, "fifo", small_cfg(seed=1, n=10**4))
    r2 = simulate_mg1(d, a, "fifo", small_cfg(seed=2, n=10**4))
    assert r1.mean_wait != r2.mean_wait


def test_pasta_idle_fraction():
    d, a = MM1
    res = simulate_mg1(d, a, "fifo", small_cfg(grid=(0.0,)))
    assert res.idle_at_arrival == pytest.approx(0.2, abs=0.01)
    # an arrival waits zero iff it finds the server idle
    assert res.ecdf[0] == pytest.approx(res.idle_at_arrival, abs=1e-12)


def test_mg1_rejects_overload():
    with pytest.raises(StationarityError):
        simulate_mg1(Exponential(5), 5.5, "fifo", small_cfg())
    with pytest.raises(ValueError):
        simulate_mg1(Exponential(5), 4.0, "priority", small_cfg())


@pytest.mark.parametrize("a", [0.0, -1.0, math.nan, math.inf])
def test_mg1_rejects_bad_arrival_rate(a):
    with pytest.raises(ValueError, match="arrival rate must be positive and finite"):
        simulate_mg1(Exponential(5), a, "fifo", SimConfig(seed=1, total_arrivals=100))


def test_priority_rejects_overload_names_class():
    sc = traffic_scenario("4.3.3")  # class 5 overloads under resume
    with pytest.raises(StationarityError) as exc:
        simulate_priority(sc, small_cfg())
    assert exc.value.first_overloaded_class == 5


def test_priority_loss_utilization_matches_traffic():
    sc = traffic_scenario("4.4.1")
    report = traffic_coefficients(sc)
    res = simulate_priority(sc, small_cfg())
    for got, want in zip(res.utilization_prefix, report.rho):
        assert got == pytest.approx(want, abs=0.02)
    assert sum(res.lost) > 0
    assert all(u2 >= u1 for u1, u2 in zip(res.utilization_prefix, res.utilization_prefix[1:]))


def test_priority_resume_utilization_and_work_conservation():
    sc = traffic_scenario("4.3.1")
    report = traffic_coefficients(sc)
    res = simulate_priority(sc, small_cfg())
    for got, want in zip(res.utilization_prefix, report.rho):
        assert got == pytest.approx(want, abs=0.02)
    # no preempted work is lost under resume
    assert res.lost == (0, 0, 0, 0, 0)


def test_priority_repeat_runs_and_loses_nothing():
    sc = traffic_scenario("4.5.1")
    res = simulate_priority(sc, small_cfg(n=10**5))
    assert res.lost == (0, 0, 0, 0, 0)
    report = traffic_coefficients(sc)
    for got, want in zip(res.utilization_prefix, report.rho):
        assert got == pytest.approx(want, abs=0.03)


@pytest.mark.parametrize("discipline", ["resume", "loss", "repeat"])
def test_repeat_single_class_reduces_to_mg1_fifo(discipline):
    # no higher class exists, so nothing can interrupt: same substreams,
    # same dynamics, the same result as the plain queue
    d, a = MM1
    cfg = small_cfg(n=5 * 10**4, grid=(0.0, 1.0, 3.0))
    sc = PriorityScenario((PriorityClass(a, d),), discipline)
    assert simulate_priority(sc, cfg) == simulate_mg1(d, a, "fifo", cfg)


@pytest.mark.parametrize("discipline", ["resume", "loss", "repeat"])
@pytest.mark.parametrize("d,a", QUEUES, ids=[d.literal() for d, _ in QUEUES])
def test_fifo_recursion_is_the_engines_one_class_queue(d, a, discipline):
    # FIFO runs by Lindley's recursion, a one-class priority run on the event
    # engine: the same draws and float operations give the same bits, on
    # either side of a block boundary and over many blocks
    sc = PriorityScenario((PriorityClass(a, d),), discipline)
    for seed in (1, 7):
        for n in (1, 19, _CHUNK - 1, _CHUNK, _CHUNK + 1, 10**5):
            cfg = small_cfg(seed=seed, n=n, grid=(0.0, 0.5, 2.0))
            assert simulate_mg1(d, a, "fifo", cfg) == simulate_priority(sc, cfg), (seed, n)


@pytest.mark.parametrize("order", ["fifo", "lifo"])
@pytest.mark.parametrize("d,a", QUEUES, ids=[d.literal() for d, _ in QUEUES])
def test_idle_arrivals_are_exactly_the_zero_waits(d, a, order):
    # a job that finds the berth busy waits a departure minus its arrival,
    # which is > 0 exactly; one that finds it idle waits 0.0, no rounding.
    # The ECDF at the negative double nearest 0 counts the waits below 0.
    for seed in (1, 7, 123):
        for n in (19, 2 * 10**4):
            res = simulate_mg1(d, a, order, small_cfg(seed=seed, n=n, grid=(-math.ulp(0.0), 0.0)))
            assert res.ecdf == (0.0, res.idle_at_arrival), (seed, n)


def test_arrival_merge_matches_running_sums():
    # reference: per-class running sums of one call's draws, merged by
    # (epoch, class); enough arrivals to cross block boundaries, so the
    # block size must leave the epochs unchanged
    rates = (4.0, 0.01, 1.0)
    n = 200_000
    assert n > 3 * _CHUNK
    streams = []
    for k, rate in enumerate(rates):
        t, epochs = 0.0, []
        for v in _substream(2016, 0, k).exponential(1.0 / rate, n).tolist():
            t += v
            epochs.append((t, k))
        streams.append(epochs)
    want = list(heapq.merge(*streams))[:n]
    gen = _arrivals(2016, rates)
    assert [next(gen) for _ in range(n)] == want


def test_two_class_loss_with_unequal_rates():
    sc = PriorityScenario(
        (PriorityClass(4.0, Exponential(10)), PriorityClass(0.01, Exponential(1))),
        "loss",
    )
    cfg = small_cfg(n=10**5)
    res = simulate_priority(sc, cfg)
    assert sum(res.completed) + sum(res.lost) == cfg.total_arrivals + cfg.warmup
    assert res.lost[1] > 0
    for got, want in zip(res.utilization_prefix, traffic_coefficients(sc).rho):
        assert got == pytest.approx(want, abs=0.02)
    assert simulate_priority(sc, cfg) == res


@pytest.mark.parametrize("discipline", ["resume", "loss", "repeat"])
def test_preemption_fate_sets_utilization(discipline):
    # exponential services cannot tell repeat from resume (memoryless); a
    # uniform low class puts the three disciplines' rho_2 at 0.70, 0.56 and 0.91
    sc = PriorityScenario(
        (PriorityClass(0.5, Exponential(2)), PriorityClass(0.3, Uniform(1, 2))),
        discipline,
    )
    res = simulate_priority(sc, small_cfg(n=10**5))
    for got, want in zip(res.utilization_prefix, traffic_coefficients(sc).rho):
        assert got == pytest.approx(want, abs=0.02)


def test_ecdf_nondecreasing_and_counts():
    sc = PriorityScenario(
        (PriorityClass(0.3, Uniform(1, 2)), PriorityClass(0.2, Exponential(4))),
        "loss",
    )
    cfg = small_cfg(n=2 * 10**4, grid=(0.0, 0.5, 1.0, 2.0, 5.0))
    res = simulate_priority(sc, cfg)
    assert all(b >= a for a, b in zip(res.ecdf, res.ecdf[1:]))
    assert sum(res.completed) + sum(res.lost) == cfg.total_arrivals + cfg.warmup
    assert res.lost[0] == 0  # top class is never preempted


def test_warmup_default_is_ten_percent():
    cfg = SimConfig(seed=1, total_arrivals=1000)
    assert cfg.warmup == 100


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(seed=1, total_arrivals=0)
    for bad in (-1, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=bad, total_arrivals=10)
    with pytest.raises(ValueError, match="total_arrivals"):
        SimConfig(seed=1, total_arrivals=100.5)
    cfg = SimConfig(seed=np.int64(1), total_arrivals=np.uint32(10))
    assert (type(cfg.seed), type(cfg.total_arrivals)) == (int, int)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            SimConfig(seed=1, total_arrivals=10, ecdf_grid=(0.0, bad))


def test_t_quantile_constant():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        nu = 19
        cdf = lambda t: 1 - mpmath.betainc(nu / 2, 0.5, 0, nu / (nu + t * t), regularized=True) / 2
        root = mpmath.findroot(lambda t: cdf(t) - mpmath.mpf("0.975"), 2.09)
        assert abs(_T_975 - root) <= 1e-15


def test_cli_import_leaves_scipy_out():
    src = str(Path(quayside.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, quayside.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"

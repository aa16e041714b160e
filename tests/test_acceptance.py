"""Acceptance gate.

Each criterion is one test that records a single PASS/FAIL verdict; the
conftest terminal-summary hook prints one line per criterion at the end
of any pytest run.  Tolerances are pinned as module constants; they are
the contract, not knobs.
"""

import functools
import math
import time

from _acceptance_log import record

import pytest

from quayside import (
    Erlang2,
    Exponential,
    Gamma3,
    InversionSpec,
    ObservationSample,
    SimConfig,
    Uniform,
    busy_period_lst,
    estimate_arrival_rate,
    fifo_wait_lst,
    invert,
    lifo_wait_lst,
    reproduce,
    simulate_mg1,
    simulate_priority,
    stehfest_weights,
    traffic_coefficients,
    wait_cdf,
)
from quayside.reference_tables import (
    ERRATUM,
    parse_printed,
    recompute_table,
    traffic_scenario,
    wait_table,
)
from quayside.traffic import PriorityClass, PriorityScenario

FIFO_TABLE_TOL = 1e-4         # criterion 1
LIFO_EXP_TOL = 5e-4           # criterion 2
LIFO_UNIFORM_TOL = 1e-3       # criterion 2
KENDALL_TOL = 1e-12           # criteria 2, 7
TRAFFIC_EXACT_TOL = 0.01      # criterion 3
TRAFFIC_ROUNDING_TOL = 0.05   # criterion 3
INVERT_POINT_TOL = 1e-6       # criterion 5
ROUND_TRIP_TOL = 5e-4         # criterion 5
CDF_CLOSED_FORM_TOL = 1e-3    # criterion 5
SIM_MEAN_HALF_WIDTH = 0.02    # criterion 6
SIM_UTILIZATION_TOL = 0.01    # criterion 6
SIM_ARRIVALS = 10**6          # criterion 6
SIM_SEED = 2016               # criterion 6

MM1 = (Exponential(5), 4.0)   # rho = 0.8; W(x) = 1 - 0.8 exp(-x)


def criterion(number, label):
    """Decorate a test to record one PASS/FAIL verdict for the summary."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record(number, label, "FAIL")
                raise
            record(number, label, "PASS")

        return inner

    return wrap


def table_errors(table_id):
    """Absolute w(s) deviations from the printed column, row by row."""
    discipline, rows = wait_table(table_id)
    fn = fifo_wait_lst if discipline == "fifo" else lifo_wait_lst
    return [
        abs(fn(row["service"], row["a"], row["s"]).value - parse_printed(row["w_printed"]))
        for row in rows
    ]


@criterion(1, "FIFO transform regression")
def test_criterion_1_fifo_tables():
    t0 = time.perf_counter()
    for table_id in ("4.2.4", "4.2.5"):
        errs = table_errors(table_id)
        assert len(errs) == 5
        assert max(errs) <= FIFO_TABLE_TOL, (table_id, max(errs))
    # row 1 of 4.2.4: Exponential{5}, a=4, w(1) = 0.2 * 6 / 2 = 0.6 exactly
    _, rows = wait_table("4.2.4")
    row = rows[0]
    assert (row["service"], row["a"], row["s"]) == (Exponential(5), 4, 1)
    assert fifo_wait_lst(row["service"], row["a"], row["s"]).value == pytest.approx(0.6, abs=1e-12)
    assert time.perf_counter() - t0 < 1.0


@criterion(2, "LIFO transform regression")
def test_criterion_2_lifo_tables():
    t0 = time.perf_counter()
    for table_id in ("4.1.4", "4.1.5", "4.1.6"):
        assert max(table_errors(table_id)) <= LIFO_EXP_TOL, table_id
    for table_id in ("4.1.1", "4.1.2", "4.1.3", "4.2.1", "4.2.2", "4.2.3"):
        assert max(table_errors(table_id)) <= LIFO_UNIFORM_TOL, table_id
    # row 1 of 4.1.5: the quadratic root is exactly 2/3 and w is exactly 0.6
    _, rows = wait_table("4.1.5")
    row = rows[0]
    sol = busy_period_lst(row["service"], row["a"], row["s"])
    assert sol.value == pytest.approx(2 / 3, abs=1e-9)
    assert sol.residual <= KENDALL_TOL
    assert lifo_wait_lst(row["service"], row["a"], row["s"]).value == pytest.approx(0.6, abs=1e-9)
    assert time.perf_counter() - t0 < 5.0


@criterion(3, "traffic regression")
def test_criterion_3_traffic_tables():
    t0 = time.perf_counter()
    for table_id in ("4.4.1", "4.4.3", "4.5.1"):
        result = recompute_table(table_id)
        for cell in result.cells:
            if cell.column == "rho":
                assert abs(cell.delta) <= TRAFFIC_EXACT_TOL, (table_id, cell)
    for table_id in ("4.3.2", "4.4.2", "4.5.2", "4.5.3"):
        result = recompute_table(table_id)
        for cell in result.cells:
            if cell.status != ERRATUM:
                assert abs(cell.delta) <= TRAFFIC_ROUNDING_TOL, (table_id, cell)
    assert time.perf_counter() - t0 < 1.0


@criterion(4, "errata detection")
def test_criterion_4_errata():
    _, errata = reproduce("all")
    flagged = {(c.table_id, c.row, c.column): c for c in errata}

    beta_431 = flagged[("4.3.1", 4, "beta1")]
    assert beta_431.printed == "0,4"
    assert beta_431.recomputed == pytest.approx(0.5, abs=1e-12)

    beta_434 = flagged[("4.3.4", 1, "beta1")]
    assert beta_434.printed == "0,67"
    assert beta_434.recomputed == pytest.approx(3 / 7, abs=1e-12)

    # deterministic: a second pass flags the identical cell set
    _, again = reproduce("all")
    assert [(c.table_id, c.row, c.column, c.printed) for c in again] == [
        (c.table_id, c.row, c.column, c.printed) for c in errata
    ]


@criterion(5, "inversion accuracy")
def test_criterion_5_inversion():
    hi = InversionSpec(order=18)
    assert invert(lambda s: 1 / (s + 1), 2.0, hi) == pytest.approx(math.exp(-2), abs=INVERT_POINT_TOL)

    # CDF round trips: invert lst(s)/s back to the distribution function.
    # Points sit away from the uniform support endpoints (the kinks).
    cases = [
        (Exponential(3), (0.2, 0.5, 1.0), InversionSpec(order=14)),
        (Erlang2(2), (0.5, 1.0, 2.0), InversionSpec(order=14)),
        (Gamma3(3), (0.5, 1.0, 2.0), InversionSpec(order=14)),
        (Uniform(0.05, 0.2), (0.5, 1.0, 2.0), hi),
    ]
    for d, xs, spec in cases:
        for x in xs:
            got = invert(lambda s: d.lst(s) / s, x, spec)
            assert abs(got - d.cdf(x)) <= ROUND_TRIP_TOL, (d, x, got)

    # M|M|1 closed form, and the published W column is not the CDF
    d, a = MM1
    closed = 1 - 0.8 * math.exp(-3)
    assert wait_cdf("fifo", d, a, 3.0, hi).value == pytest.approx(closed, abs=CDF_CLOSED_FORM_TOL)
    _, rows = wait_table("4.2.4")
    printed_W = parse_printed(rows[0]["W_printed"])
    assert abs(printed_W - closed) > 0.9  # 0.0156852 vs 0.96017


@criterion(6, "simulation vs analytics")
def test_criterion_6_simulation():
    d, a = MM1
    cfg = SimConfig(seed=SIM_SEED, total_arrivals=SIM_ARRIVALS)

    fifo = simulate_mg1(d, a, "fifo", cfg)
    assert fifo.ci_half_width <= SIM_MEAN_HALF_WIDTH
    assert abs(fifo.mean_wait - 0.8) <= fifo.ci_half_width

    lifo = simulate_mg1(d, a, "lifo", cfg)
    assert abs(lifo.mean_wait - fifo.mean_wait) <= lifo.ci_half_width + fifo.ci_half_width

    sc = traffic_scenario("4.4.1")
    exact = traffic_coefficients(sc).rho
    loss = simulate_priority(sc, cfg)
    for got, want in zip(loss.utilization_prefix, exact):
        assert abs(got - want) <= SIM_UTILIZATION_TOL

    # repeat with a single class has nothing to preempt it: identical runs
    single = PriorityScenario((PriorityClass(a, d),), "repeat")
    small = SimConfig(seed=SIM_SEED, total_arrivals=10**5, ecdf_grid=(0.0, 1.0, 3.0))
    res_p = simulate_priority(single, small)
    res_q = simulate_mg1(d, a, "fifo", small)
    assert res_p.mean_wait == pytest.approx(res_q.mean_wait, abs=1e-12)
    assert res_p.ecdf == res_q.ecdf


@criterion(7, "property suites")
def test_criterion_7_properties():
    # transform normalization at s -> 0+ for stationary cases
    for d, a in [(Exponential(5), 4.0), (Uniform(0.05, 0.2), 4.0), (Erlang2(20), 4.0)]:
        assert lifo_wait_lst(d, a, 1e-6).value == pytest.approx(1.0, abs=1e-5)
        assert fifo_wait_lst(d, a, 1e-6).value == pytest.approx(1.0, abs=1e-5)

    # Kendall residual at the returned fixed point
    for d, a, s in [(Exponential(10), 12.0, 1.0), (Uniform(0.1, 0.3), 4.0, 0.5), (Gamma3(9), 2.0, 1.0)]:
        sol = busy_period_lst(d, a, s)
        assert sol.residual <= KENDALL_TOL

    # Stehfest weight identities: weights sum to zero, alternate in sign
    # blocks, and reproduce the constant transform 1/s exactly
    from quayside.lst_inversion import _weights_exact

    for n in (8, 14, 18):
        assert sum(_weights_exact(n)) == 0
        w = stehfest_weights(n)
        assert abs(sum(w)) <= 1e-12 * max(abs(v) for v in w)
        assert invert(lambda s: 1 / s, 1.0) == pytest.approx(1.0, abs=1e-8)

    # discipline term ordering: (1/sigma)(1-beta(sigma)) <= beta1 <= (1/sigma)(1/beta(sigma)-1)
    for tid in ("4.3.1", "4.3.2", "4.3.3", "4.3.4"):
        sc = traffic_scenario(tid)
        sigma = 0.0
        for cls in sc.classes:
            if sigma > 0:
                beta = cls.service.lst(sigma)
                assert (1 - beta) / sigma <= cls.service.moment1() + 1e-12
                assert cls.service.moment1() <= (1 / beta - 1) / sigma + 1e-12
            sigma += cls.lam

    # estimator battery: unbiasedness (3 s.e.) and consistency in n
    import numpy as np

    a0, n, reps = 0.3, 50, 1000
    rng = np.random.default_rng(SIM_SEED)
    means = rng.poisson(a0, (reps, n)).mean(axis=1)
    assert abs(means.mean() - a0) < 3 * math.sqrt(a0 / n / reps)
    errs = []
    for size in (10**2, 10**4, 10**6):
        sample = ObservationSample(rng.poisson(a0, size).tolist())
        errs.append(abs(estimate_arrival_rate(sample) - a0))
    assert errs[2] < errs[0]

import dataclasses
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quayside import (
    Erlang,
    Erlang2,
    Exponential,
    NumericOverflowError,
    PriorityClass,
    PriorityScenario,
    Uniform,
    recompute_table,
    reproduce,
    traffic_coefficients,
)
from quayside.reference_tables import ERRATUM, MATCH, parse_printed, traffic_scenario
from quayside.traffic import DISCIPLINES

LAMBDAS = [0.3, 0.2, 0.4, 0.5, 0.8]
EXP_RATES = [7, 3, 4, 2, 5]


def make_exp_scenario(discipline):
    return PriorityScenario(
        tuple(PriorityClass(l, Exponential(b)) for l, b in zip(LAMBDAS, EXP_RATES)),
        discipline,
    )


def exact_loss_rhos():
    """Oracle: cumulative loss terms evaluated in exact rational arithmetic."""
    lams = [Fraction(3, 10), Fraction(2, 10), Fraction(4, 10), Fraction(5, 10), Fraction(8, 10)]
    bs = [Fraction(b) for b in EXP_RATES]
    rho = [lams[0] / bs[0]]
    sigma = lams[0]
    for i in range(1, 5):
        beta = bs[i] / (sigma + bs[i])
        rho.append(rho[-1] + (lams[i] / sigma) * (1 - beta))
        sigma += lams[i]
    return [float(r) for r in rho]


def test_loss_exponential_exact():
    report = traffic_coefficients(make_exp_scenario("loss"))
    for got, want in zip(report.rho, exact_loss_rhos()):
        assert got == pytest.approx(want, abs=1e-12)
    # printed two-decimal values
    for got, printed in zip(report.rho, [0.04, 0.10, 0.19, 0.36, 0.48]):
        assert got == pytest.approx(printed, abs=0.01)


def test_repeat_exponential_exact():
    # for exponential service 1/beta(sigma) - 1 = sigma/b, so the repeat
    # term collapses to lambda/b: same as resume
    report = traffic_coefficients(make_exp_scenario("repeat"))
    resume = traffic_coefficients(make_exp_scenario("resume"))
    for got, want in zip(report.rho, resume.rho):
        assert got == pytest.approx(want, abs=1e-12)
    for got, printed in zip(report.rho, [0.04, 0.10, 0.20, 0.45, 0.61]):
        assert got == pytest.approx(printed, abs=0.01)


def test_resume_exponential_exact():
    report = traffic_coefficients(make_exp_scenario("resume"))
    want = 0.0
    for got, (l, b) in zip(report.rho, zip(LAMBDAS, EXP_RATES)):
        want += l / b
        assert got == pytest.approx(want, abs=1e-12)


def test_loss_erlang_matches_printed():
    sc = PriorityScenario(
        tuple(PriorityClass(l, Erlang2(b)) for l, b in zip(LAMBDAS, EXP_RATES)),
        "loss",
    )
    report = traffic_coefficients(sc)
    for got, printed in zip(report.rho, [0.08, 0.20, 0.36, 0.66, 0.88]):
        assert got == pytest.approx(printed, abs=0.01)


def test_single_class_disciplines_coincide():
    for discipline in ("resume", "loss", "repeat"):
        sc = PriorityScenario((PriorityClass(0.3, Exponential(7)),), discipline)
        assert traffic_coefficients(sc).rho[0] == pytest.approx(3 / 70, abs=1e-15)


def test_sigma_strictly_increasing_rho_nondecreasing():
    for tid in ("4.3.1", "4.3.2", "4.4.2", "4.5.3"):
        report = traffic_coefficients(traffic_scenario(tid))
        assert all(b > a for a, b in zip(report.sigma, report.sigma[1:]))
        assert all(b >= a for a, b in zip(report.rho, report.rho[1:]))


def test_discipline_term_ordering():
    # per class: (1/sigma)(1 - beta(sigma)) <= beta1 <= (1/sigma)(1/beta(sigma) - 1)
    for tid in ("4.3.1", "4.3.2", "4.3.3", "4.3.4"):
        sc = traffic_scenario(tid)
        sigma = 0.0
        for cls in sc.classes:
            if sigma > 0:
                beta = cls.service.lst(sigma)
                lower = (1 - beta) / sigma
                upper = (1 / beta - 1) / sigma
                assert lower <= cls.service.moment1() + 1e-12
                assert cls.service.moment1() <= upper + 1e-12
            sigma += cls.lam


def test_verdict_all_stationary():
    report = traffic_coefficients(traffic_scenario("4.4.1"))
    assert report.stationary
    assert report.stationary_prefix == 5
    assert report.first_overloaded_class is None


def test_verdict_erlang_resume_overloads_class_five():
    report = traffic_coefficients(traffic_scenario("4.3.3"))
    assert not report.stationary
    assert report.stationary_prefix == 4
    assert report.first_overloaded_class == 5
    assert report.rho[4] == pytest.approx(1.239, abs=0.01)


def test_verdict_first_class_overloaded():
    sc = PriorityScenario((PriorityClass(1.0, Exponential(0.5)),), "resume")
    report = traffic_coefficients(sc)
    assert report.stationary_prefix == 0
    assert report.first_overloaded_class == 1


def test_report_holds_sigma_and_rho_only():
    report = traffic_coefficients(traffic_scenario("4.3.3"))
    assert report._fields == ("sigma", "rho")
    sigma, rho = report  # a named tuple unpacks like a plain one
    assert report == (sigma, rho)
    assert report.stationary_flags == (True, True, True, True, False)


def test_repeat_underflow_raises():
    sc = PriorityScenario(
        (PriorityClass(400.0, Exponential(1)), PriorityClass(1.0, Uniform(2, 3))),
        "repeat",
    )
    with pytest.raises(NumericOverflowError) as exc:
        traffic_coefficients(sc)
    assert exc.value.class_index == 2


def test_recompute_table_matches():
    result = recompute_table("4.4.1")
    assert all(cell.status == MATCH for cell in result.cells)


def test_recompute_table_431_errata():
    result = recompute_table("4.3.1")
    flagged = {(c.row, c.column) for c in result.errata}
    assert flagged == {(4, "beta1"), (4, "rho"), (5, "rho")}
    beta_cell = next(c for c in result.errata if c.column == "beta1")
    assert beta_cell.printed == "0,4"
    assert beta_cell.recomputed == pytest.approx(0.5)


def test_recompute_table_434_beta_column_errata():
    result = recompute_table("4.3.4")
    beta_errata = {c.row: c for c in result.errata if c.column == "beta1"}
    assert 1 in beta_errata
    assert beta_errata[1].printed == "0,67"
    assert beta_errata[1].recomputed == pytest.approx(3 / 7, abs=1e-12)


def test_audit_records_hold_what_the_audit_computed():
    result = recompute_table("4.3.1")
    (table,), errata = reproduce("4.3.1")
    for record in (result, result.cells[0], table):
        assert not dataclasses.is_dataclass(record)
        assert record == tuple(record)  # named tuples, built once
    assert result._fields == ("cells",)
    assert result.cells[0]._fields == ("table_id", "row", "column", "printed", "recomputed", "delta", "status")
    assert table._fields == ("table_id", "headers", "rows", "annotations")
    assert list(errata) == list(result.errata)
    for cell in result.cells:
        assert cell.table_id == "4.3.1"
        assert cell.delta == parse_printed(cell.printed) - cell.recomputed


def test_recompute_table_unknown_id():
    with pytest.raises(KeyError):
        recompute_table("9.9.9")


def test_scenario_validation():
    with pytest.raises(ValueError):
        PriorityScenario((), "loss")
    with pytest.raises(ValueError):
        PriorityScenario((PriorityClass(1.0, Exponential(1)),), "sjf")
    with pytest.raises(ValueError):
        PriorityClass(0.0, Exponential(1))


_LAWS = st.one_of(
    st.builds(Exponential, st.floats(0.1, 20.0)),
    st.builds(lambda lo, width: Uniform(lo, lo + width), st.floats(0.0, 5.0), st.floats(0.01, 5.0)),
    st.builds(Erlang, st.integers(2, 6), st.floats(0.1, 20.0)),
)
_CLASSES = st.lists(st.builds(PriorityClass, st.floats(0.01, 2.0), _LAWS), min_size=1, max_size=6)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(classes=_CLASSES)
def test_cumulative_coefficients_on_drawn_scenarios(classes):
    reports = [traffic_coefficients(PriorityScenario(classes, disc)) for disc in DISCIPLINES]
    for report in reports:
        assert all(a < b for a, b in zip(report.sigma, report.sigma[1:]))
        assert all(a <= b for a, b in zip(report.rho, report.rho[1:]))
    # the top class is never interrupted, so its coefficient is the same under all three
    assert len({report.rho[0] for report in reports}) == 1


@pytest.mark.parametrize("number", [np.float32, np.float64, Decimal, Fraction], ids=lambda t: t.__name__)
@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_class_rates_of_any_number_type_compute_in_double(discipline, number):
    # a float32 rate gave float32 coefficients, and a Decimal one a TypeError
    def scenario(rate):
        return PriorityScenario(tuple(PriorityClass(rate(str(l)), Exponential(b))
                                      for l, b in zip(LAMBDAS, EXP_RATES)), discipline)

    sc = scenario(number)
    got, want = traffic_coefficients(sc), traffic_coefficients(scenario(lambda v: float(number(v))))
    assert all(type(c.lam) is float for c in sc.classes)
    for field in ("sigma", "rho"):
        assert [type(v) for v in getattr(got, field)] == [float] * len(LAMBDAS)
        assert [v.hex() for v in getattr(got, field)] == [v.hex() for v in getattr(want, field)]

import math

import pytest

import quayside.busy_period
from quayside import ConvergenceError, Exponential, Uniform, busy_period_lst


def exp_quadratic_root(a, b, s):
    """Oracle: for exponential service the fixed point solves
    a*pi^2 - (s+a+b)*pi + b = 0; the busy-period branch is the smaller root."""
    c = s + a + b
    return (c - math.sqrt(c * c - 4 * a * b)) / (2 * a)


def test_known_quadratic_case():
    # 12*pi^2 - 23*pi + 10 = 0 -> pi = 2/3
    sol = busy_period_lst(Exponential(10), 12.0, 1.0)
    assert sol.value == pytest.approx(2 / 3, abs=1e-10)
    assert sol.residual <= 1e-12


def test_overloaded_quadratic_case():
    # (27 - sqrt(89)) / 32, feeds the overloaded exponential table
    sol = busy_period_lst(Exponential(10), 16.0, 1.0)
    assert sol.value == pytest.approx((27 - math.sqrt(89)) / 32, abs=1e-10)


def test_no_arrivals_limit():
    sol = busy_period_lst(Exponential(10), 1e-12, 1.0)
    assert sol.value == pytest.approx(10 / 11, abs=1e-9)


@pytest.mark.parametrize("a,b,s", [(4, 5, 1), (4, 5, 3), (12, 10, 2), (16, 10, 0.5), (0.5, 2, 1)])
def test_matches_quadratic_root_for_exponential(a, b, s):
    sol = busy_period_lst(Exponential(b), float(a), float(s))
    assert sol.value == pytest.approx(exp_quadratic_root(a, b, s), abs=1e-10)


@pytest.mark.parametrize("d,a", [(Exponential(5), 4.0), (Uniform(1, 3), 0.3)])
def test_monotone_nonincreasing_in_s(d, a):
    grid = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    vals = [busy_period_lst(d, a, s).value for s in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(u >= v - 1e-12 for u, v in zip(vals, vals[1:]))


@pytest.mark.parametrize("d,a", [(Exponential(5), 4.0), (Uniform(1, 3), 0.3), (Exponential(10), 9.0)])
def test_small_s_limit_when_stationary(d, a):
    assert a * d.moment1() < 1
    sol = busy_period_lst(d, a, 1e-8)
    assert sol.value >= 1 - 1e-3


def test_residual_at_returned_value():
    d = Uniform(1, 5)
    sol = busy_period_lst(d, 0.2, 1.0)
    assert abs(sol.value - d.lst(1.0 + 0.2 - 0.2 * sol.value)) <= 1e-12


class _CountingLaw:
    """Wraps a law and counts its transform evaluations."""

    def __init__(self, law):
        self.law = law
        self.calls = 0

    def lst(self, s):
        self.calls += 1
        return self.law.lst(s)


@pytest.mark.parametrize("d,a,s", [(Uniform(0.05, 0.2), 4.0, 1.0), (Exponential(1), 0.999, 1e-5)])
def test_one_transform_evaluation_per_kendall_step(d, a, s):
    counted = _CountingLaw(d)
    sol = busy_period_lst(counted, a, s)
    assert counted.calls == sol.iterations + 1
    assert sol == busy_period_lst(d, a, s)


def test_non_convergence_error_carries_state(monkeypatch):
    monkeypatch.setattr(quayside.busy_period, "DEFAULT_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as exc:
        busy_period_lst(Exponential(5), 4.0, 0.001)
    assert exc.value.last_value is not None
    assert exc.value.residual > 1e-12
    assert exc.value.iterations == 3


@pytest.mark.parametrize("a,s", [
    (0.0, 1.0), (4.0, 0.0), (math.nan, 1.0), (math.inf, 1.0), (4.0, math.nan), (4.0, math.inf),
])
def test_bad_arguments(a, s):
    with pytest.raises(ValueError):
        busy_period_lst(Exponential(5), a, s)

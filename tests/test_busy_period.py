import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quayside.busy_period
from quayside import ConvergenceError, Erlang, Exponential, Uniform, busy_period_lst, lifo_wait_lst
from quayside.busy_period import DEFAULT_MAX_ITER


def exp_quadratic_root(a, b, s):
    """Oracle: for exponential service the fixed point solves
    a*pi^2 - (s+a+b)*pi + b = 0; the busy-period branch is the smaller root."""
    c = s + a + b
    return (c - math.sqrt(c * c - 4 * a * b)) / (2 * a)


def stable_quadratic_root(a, b, s):
    """The same root as 2b / (c + sqrt(c^2 - 4ab)), with c^2 - 4ab written
    as (a - b)^2 + s(s + 2a + 2b): free of cancellation when s is small and
    a is close to b."""
    c = s + a + b
    return 2 * b / (c + math.sqrt((a - b) ** 2 + s * (s + 2 * a + 2 * b)))


def plain_iteration(d, a, s):
    """The Kendall solve as plain fixed-point iteration from 0, stopped at a residual of 1e-12."""
    pi = d.lst(s + a)
    while abs(d.lst(s + a - a * pi) - pi) > 1e-12:
        pi = d.lst(s + a - a * pi)
    return pi


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


def test_near_saturation_reaches_the_rounding_floor_in_few_steps():
    # Plain iteration needs thousands of steps here and stops about 1e-10
    # off.  The floor: residuals near pi = 1 come in steps of 2^-53 and
    # |f'(pi)| = 0.0064 at the root, so pi is pinned to about 1.7e-14.
    sol = busy_period_lst(Exponential(1), 0.999, 1e-5)
    assert abs(sol.value - stable_quadratic_root(0.999, 1.0, 1e-5)) <= 3e-14
    assert sol.iterations <= 40


def _mp_lst(d, z):
    mpmath = pytest.importorskip("mpmath")
    if isinstance(d, Uniform):
        lo, hi = mpmath.mpf(d.lo), mpmath.mpf(d.hi)
        return (mpmath.exp(-z * lo) - mpmath.exp(-z * hi)) / (z * (hi - lo))
    k = d.k if isinstance(d, Erlang) else 1
    return (d.rate / (z + d.rate)) ** k


def _exact_root(d, a, s):
    """The least root of beta(s + a - a*pi) = pi in [0, 1], by bisection at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, s = mpmath.mpf(a), mpmath.mpf(s)
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(140):
            mid = (lo + hi) / 2
            if _mp_lst(d, s + a - a * mid) > mid:
                lo = mid
            else:
                hi = mid
        return lo


@pytest.mark.parametrize("d", [Exponential(1.0), Uniform(1, 3), Erlang(2, 4.0), Erlang(3, 6.0)],
                         ids=lambda d: d.literal())
@pytest.mark.parametrize("load", [0.5, 0.9, 0.99, 1.6])
def test_never_further_from_the_root_than_plain_iteration(d, load):
    a = load / d.moment1()
    for s in (1e-6, 1e-4, 1e-2, 1.0, 10.0):
        root = _exact_root(d, a, s)
        error = abs(busy_period_lst(d, a, s).value - root)
        assert error <= abs(plain_iteration(d, a, s) - root), s


def test_mm1_lifo_transform_matches_closed_form():
    # (1 - rho) + a(1 - pi)/(s + a - a*pi) at pi = (10 - sqrt(20))/8, rounded to double
    assert lifo_wait_lst(Exponential(5), 4.0, 1.0).value == 0.7527864045000421


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


def test_one_record_per_solve(monkeypatch):
    # the solve keeps its best iterate as floats and builds one record on return
    built = []

    class Counted(quayside.busy_period.BusyPeriodSolution):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(quayside.busy_period, "BusyPeriodSolution", Counted)
    for d, a, s in [(Exponential(5), 4.0, 1.0), (Exponential(1), 0.999, 1e-5), (Uniform(1, 3), 0.3, 1e-8)]:
        built.clear()
        sol = busy_period_lst(d, a, s)
        assert built == [tuple(sol)]


def test_non_convergence_error_carries_state(monkeypatch):
    monkeypatch.setattr(quayside.busy_period, "DEFAULT_MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as exc:
        busy_period_lst(Exponential(5), 4.0, 0.001)
    assert exc.value.last_value is not None
    assert exc.value.residual > 1e-12
    assert exc.value.iterations == 3


def test_step_cap_past_the_tolerance_returns_the_best_iterate(monkeypatch):
    # a cap that ends the solve while the residual is within 1e-12 but still
    # falling returns that iterate instead of raising
    full = busy_period_lst(Exponential(1), 0.999, 1e-5)
    for cap in range(1, full.iterations + 1):
        monkeypatch.setattr(quayside.busy_period, "DEFAULT_MAX_ITER", cap)
        try:
            sol = busy_period_lst(Exponential(1), 0.999, 1e-5)
        except ConvergenceError:
            continue
        break
    assert cap < full.iterations
    assert sol.iterations == cap and sol.residual <= 1e-12


@pytest.mark.parametrize("a,s", [
    (0.0, 1.0), (4.0, 0.0), (math.nan, 1.0), (math.inf, 1.0), (4.0, math.nan), (4.0, math.inf),
])
def test_bad_arguments(a, s):
    with pytest.raises(ValueError):
        busy_period_lst(Exponential(5), a, s)


def test_a_law_returning_nan_fails_at_the_step_cap():
    # no residual is ever within the tolerance: the solve spends its whole
    # cap, one transform call per step after the first, and raises
    counted = _CountingLaw(SimpleNamespace(lst=lambda s: math.nan))
    with pytest.raises(ConvergenceError) as exc:
        busy_period_lst(counted, 4.0, 1.0)
    assert counted.calls == DEFAULT_MAX_ITER + 1
    assert exc.value.iterations == DEFAULT_MAX_ITER


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0 ** e)


_RATES = _log_uniform(1e-3, 1e3)
_LAWS = st.one_of(
    st.builds(Exponential, _RATES),
    st.builds(lambda width, lo_per_width: Uniform(lo_per_width * width, (lo_per_width + 1) * width),
              _log_uniform(1e-300, 1e3), st.one_of(st.just(0.0), _log_uniform(1e-3, 1e6))),
    st.builds(Erlang, st.integers(2, 1000), _RATES),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(d=_LAWS, rho=_log_uniform(1e-3, 100.0), s=_log_uniform(1e-300, 1e3))
def test_the_step_cap_is_twice_what_a_drawn_solve_needs(d, rho, s):
    sol = busy_period_lst(d, rho / d.moment1(), s)
    assert sol.residual <= 1e-12
    assert sol.iterations <= DEFAULT_MAX_ITER // 2

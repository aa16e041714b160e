import math
import sys

import numpy as np
import pytest

from quayside import Erlang, Erlang2, Exponential, Gamma3, Uniform, parse_distribution

ALL = [Exponential(3), Uniform(1, 5), Erlang2(2), Gamma3(3)]


def test_lst_exponential_value():
    # 3/(0.3+3)
    assert Exponential(3).lst(0.3) == pytest.approx(3 / 3.3, abs=1e-12)


def test_lst_uniform_value():
    # oracle: (e^-1 - e^-5)/4 evaluated directly
    expected = (math.exp(-1) - math.exp(-5)) / 4
    assert expected == pytest.approx(0.0902853735, abs=1e-9)
    assert Uniform(1, 5).lst(1.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("d", ALL)
def test_lst_at_zero_is_one(d):
    assert d.lst(0.0) == 1.0


@pytest.mark.parametrize("d", ALL + [Uniform(0, 1)])
def test_lst_at_infinity_is_zero(d):
    assert d.lst(math.inf) == 0.0


@pytest.mark.parametrize("d", ALL)
def test_lst_strictly_decreasing(d):
    grid = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    vals = [d.lst(s) for s in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


@pytest.mark.parametrize("d", ALL)
def test_lst_negative_s_rejected(d):
    with pytest.raises(ValueError):
        d.lst(-0.1)
    with pytest.raises(ValueError):
        d.lst(math.nan)


def test_uniform_lst_taylor_branch_continuous():
    d = Uniform(1, 5)
    # just below the series/direct switch at s*(hi-lo) = 1e-8 the Taylor
    # branch must agree with the expm1-based exact form
    s = 2.4e-9
    direct = math.exp(-s * 1) * (-math.expm1(-s * 4)) / (s * 4)
    assert d.lst(s) == pytest.approx(direct, rel=1e-12)
    assert d.lst(1e-12) == pytest.approx(1.0 - 1e-12 * 3.0, rel=1e-13)


def test_uniform_lst_narrow_law_away_from_zero():
    # s(hi-lo) is tiny but s.lo is not: the series about s = 0 does not apply
    d = Uniform(1, 1 + 1e-9)
    assert d.lst(1.0) == pytest.approx(math.exp(-1 - 5e-10), rel=1e-12)
    assert d.lst(30.0) == pytest.approx(math.exp(-30 * (1 + 5e-10)), rel=1e-12)


@pytest.mark.parametrize(
    "d,expected",
    [
        (Uniform(1, 4), 2.5),
        (Exponential(7), 1 / 7),
        (Erlang2(3), 2 / 3),
        (Gamma3(2), 1.5),
    ],
)
def test_moment1(d, expected):
    assert d.moment1() == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("d", ALL)
def test_moment1_matches_transform_slope(d):
    h = 1e-6
    slope = -(d.lst(h) - d.lst(0.0)) / h
    assert slope == pytest.approx(d.moment1(), rel=1e-4)


def test_cdf_values():
    assert Exponential(1).cdf(0.0) == 0.0
    assert Uniform(1, 5).cdf(3.0) == pytest.approx(0.5)
    assert Erlang2(2).cdf(100.0) >= 1 - 1e-12


@pytest.mark.parametrize("d", ALL)
def test_cdf_monotone_bounded(d):
    grid = [*np.linspace(0, 20, 200), 1e200]
    vals = [d.cdf(x) for x in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert d.cdf(0.0) == 0.0
    assert d.cdf(1e200) == 1.0


@pytest.mark.parametrize("d", ALL + [Uniform(0, 1), Erlang(200, 1.0)])
def test_cdf_at_infinity_is_one(d):
    assert d.cdf(math.inf) == 1.0


@pytest.mark.parametrize("k", [2, 3, 5, 20, 200])
def test_erlang_cdf_matches_incomplete_gamma(k):
    mpmath = pytest.importorskip("mpmath")
    # half-decades from 1e-6 to 1e4, both sides of bx = k, where the cdf
    # switches from the upper Poisson tail to one minus the lower sum, and
    # far into the upper tail
    grid = ([10 ** (e / 2) for e in range(-12, 9)] + [k * f for f in (0.5, 0.999, 1.0, 1.001, 2.0)]
            + [1e10, 1e100, 1e200])
    with mpmath.workdps(40):
        for x in grid:
            want = float(mpmath.gammainc(k, 0, x, regularized=True))
            if want >= sys.float_info.min:  # a normal double
                assert abs(Erlang(k, 1.0).cdf(x) - want) <= 1e-12 * want, x


def test_erlang_cdf_where_the_power_sum_overflows():
    # (bx)^j / j! leaves the double range for j >= 171; the regularised
    # lower incomplete gamma P(200, 150) from mpmath at 30 digits
    assert Erlang(200, 1.0).cdf(150.0) == pytest.approx(5.70968857420824e-05, rel=1e-8)


def test_sample_means_match_moment1():
    rng = np.random.default_rng(2016)
    n = 10**6
    for d, tol in [(Exponential(5), 0.001), (Gamma3(3), 0.005)]:
        draws = d.sample(rng, n)
        assert draws.mean() == pytest.approx(d.moment1(), abs=tol)


@pytest.mark.parametrize("d", ALL)
def test_sample_mean_within_five_standard_errors(d):
    rng = np.random.default_rng(7)
    n = 10**6
    draws = d.sample(rng, n)
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - d.moment1()) < 5 * se


def test_uniform_sample_support():
    rng = np.random.default_rng(3)
    draws = Uniform(1, 5).sample(rng, 10**5)
    assert draws.min() >= 1.0 and draws.max() <= 5.0


@pytest.mark.parametrize(
    "bad",
    [
        lambda: Exponential(0),
        lambda: Exponential(-1),
        lambda: Erlang2(0.0),
        lambda: Gamma3(-3),
        lambda: Uniform(5, 1),
        lambda: Uniform(-1, 2),
        lambda: Uniform(2, 2),
        lambda: Exponential(math.inf),
        lambda: Erlang2(math.inf),
        lambda: Gamma3(math.inf),
        lambda: Uniform(0, math.inf),
        lambda: Erlang(1, 2.0),
        lambda: Erlang(2.5, 2.0),
        lambda: Erlang(2, math.inf),
        lambda: Erlang(True, 2.0),
    ],
)
def test_invalid_parameters_rejected_at_construction(bad):
    with pytest.raises(ValueError):
        bad()


@pytest.mark.parametrize("d", ALL + [Erlang(k, 2.5) for k in range(2, 7)])
def test_literal_round_trip(d):
    assert parse_distribution(d.literal()) == d


def test_erlang_aliases_and_literals():
    assert Erlang2(4) == Erlang(2, 4)
    assert Gamma3(6) == Erlang(3, 6)
    assert repr(Erlang2(4)) == "Erlang(k=2, rate=4)"
    assert [Erlang(k, 0.5).literal() for k in (2, 3, 5)] == ["erlang2(0.5)", "gamma3(0.5)", "erlang5(0.5)"]
    assert parse_distribution("erlang3(6)") == Gamma3(6)


@pytest.mark.parametrize("text", ["exp(-1)", "weibull(2)", "unif(1)", "exp(a)", "exp", "erlang1(2)", "erlang(2)"])
def test_bad_literals(text):
    with pytest.raises(ValueError):
        parse_distribution(text)

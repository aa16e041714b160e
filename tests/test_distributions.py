import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("d", [Uniform(0, 1), Uniform(1, 3), Uniform(0.05, 0.2), Uniform(2, 1000),
                               Uniform(1e-300, 2e-300)], ids=lambda d: d.literal())
def test_uniform_lst_within_four_roundings_as_s_falls_to_zero(d):
    # one formula, e^{-s.lo}(1 - e^{-z})/z with z = s(hi - lo), down to z = 1e-320:
    # exp, expm1, the product and the quotient each round once
    mpmath = pytest.importorskip("mpmath")
    assert d.lst(0.0) == 1.0
    lo, hi = mpmath.mpf(d.lo), mpmath.mpf(d.hi)
    with mpmath.workdps(50):
        for i in range(1249):
            s = 10.0 ** (-320 + i / 4) / (d.hi - d.lo)  # z from 1e-320 to 1e-8
            if s == math.inf:
                continue
            z = mpmath.mpf(s) * (hi - lo)
            want = mpmath.exp(-mpmath.mpf(s) * lo) * -mpmath.expm1(-z) / z  # expm1 keeps every digit
            assert abs(d.lst(s) - want) <= 4 * 2.0 ** -53 * want, s


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
        lambda: Erlang(0, 2.0),
        lambda: Erlang(2.5, 2.0),
        lambda: Erlang(2, math.inf),
        lambda: Erlang(True, 2.0),
        lambda: Erlang(np.int64(0), 2.0),
        lambda: Erlang(np.float64(2.0), 2.0),
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


def test_erlang_order_accepts_numpy_integers():
    d = Erlang(np.int64(2), 1.0)
    assert type(d.k) is int and d == Erlang2(1.0)
    assert d.literal() == "erlang2(1)"


@pytest.mark.parametrize("text", ["exp(-1)", "weibull(2)", "unif(1)", "exp(a)", "exp", "erlang1(2)", "erlang(2)"])
def test_bad_literals(text):
    with pytest.raises(ValueError):
        parse_distribution(text)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    b=st.floats(1e-300, 1e300).map(lambda b: float("%g" % b)),  # rates that exp(%g) spells exactly
    s=st.floats(0.0, math.inf),
    x=st.floats(0.0, math.inf),
    seed=st.integers(0, 2**32),
    n=st.integers(0, 40),
)
def test_the_exponential_is_erlang_of_order_one(b, s, x, seed, n):
    d = Exponential(b)
    assert d == Erlang(1, b) and repr(d) == "Erlang(k=1, rate=%r)" % b
    assert d.lst(s) == b / (s + b)
    assert d.cdf(x) == -math.expm1(-b * x)
    assert d.moment1() == 1 / b
    assert d.literal() == "exp(%g)" % b and parse_distribution(d.literal()) == d
    rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
    assert np.array_equal(d.sample(rng, n), rng2.exponential(1 / b, n))


@pytest.mark.parametrize("d", ALL + [Uniform(0, 3), Exponential(1e300)], ids=lambda d: d.literal())
def test_other_numbers_give_the_transform_at_their_double(d):
    # only a longdouble s keeps its type: a float32 or float16 s is not a
    # float32 computation (Exponential(1e300) gave nan at float32 0.5), and
    # a Decimal one is not a TypeError from Decimal arithmetic
    for s in (np.float32(0.7), np.float32(0.5), np.float32(0), np.float32(np.inf), np.float16(0.7),
              Decimal("0.7"), Decimal("1e-30")):
        got = d.lst(s)
        assert type(got) is float and got.hex() == d.lst(float(s)).hex(), s
    assert Exponential(1e300).lst(np.float32(0.5)) == 1.0

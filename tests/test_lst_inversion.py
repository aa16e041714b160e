import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quayside import (
    Erlang2,
    Exponential,
    Gamma3,
    InversionError,
    InversionSpec,
    Uniform,
    invert,
    stehfest_weights,
)


def test_weights_order_two():
    assert stehfest_weights(2) == [2.0, -2.0]


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 16, 18, 20])
def test_weights_sum_to_zero(n):
    from fractions import Fraction

    from quayside.lst_inversion import _weights_exact

    assert sum(_weights_exact(n), Fraction(0)) == 0
    assert len(stehfest_weights(n)) == n


@pytest.mark.parametrize("n", [8, 10, 12, 14, 16])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 10.0])
def test_constant_recovered_exactly(n, x):
    value = invert(lambda s: 1.0 / s, x, InversionSpec(order=n))
    assert value == pytest.approx(1.0, abs=1e-8)


def test_decaying_exponential():
    value = invert(lambda s: 1.0 / (s + 1.0), 2.0, InversionSpec(order=18))
    assert value == pytest.approx(math.exp(-2), abs=1e-6)


def test_linear_ramp():
    value = invert(lambda s: 1.0 / s**2, 3.0, InversionSpec(order=18))
    assert value == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("order", [3, 5, 22, 0, 2, 14.0])
def test_spec_rejects_bad_orders(order):
    with pytest.raises(ValueError):
        InversionSpec(order=order)


def test_weights_reject_odd_and_oversized():
    with pytest.raises(ValueError):
        stehfest_weights(7)
    with pytest.raises(ValueError):
        stehfest_weights(22)
    with pytest.raises(ValueError):
        stehfest_weights(14.0)


def test_numpy_integer_order_is_an_int():
    # order 20 overflows int64 in the exact weight arithmetic
    spec = InversionSpec(np.int64(20))
    assert type(spec.order) is int
    assert stehfest_weights(np.int64(20)) == stehfest_weights(20)


@pytest.mark.parametrize("x", [0.5, 1.0])
def test_order_stability_on_smooth_transforms(x):
    # adjacent orders agree on analytic transforms; divergence flags precision loss
    for fn in (lambda s: 1.0 / (s + 1.0), lambda s: 0.2 * (s + 5.0) / (s * (s + 1.0))):
        v12 = invert(fn, x, InversionSpec(order=12))
        v14 = invert(fn, x, InversionSpec(order=14))
        assert abs(v12 - v14) < 1e-5


SMOOTH = [Exponential(1), Erlang2(2), Gamma3(3)]


@pytest.mark.parametrize("d", SMOOTH)
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_cdf_round_trip_smooth(d, x):
    value = invert(lambda s: d.lst(float(s)) / s, x, InversionSpec(order=14))
    assert value == pytest.approx(d.cdf(x), abs=5e-4)


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_cdf_round_trip_uniform_away_from_kinks(x):
    # corners blur over a kernel width ~x/sqrt(n); keep them well clear of x
    d = Uniform(0.05, 0.2)
    value = invert(lambda s: d.lst(float(s)) / s, x, InversionSpec(order=18))
    assert value == pytest.approx(d.cdf(x), abs=5e-4)


def test_cdf_round_trip_uniform_near_kink_degrades():
    # characterization: 1 time unit from a corner the error is ~1e-3, far
    # beyond the smooth-transform accuracy; kink neighborhoods are excluded
    # from accuracy claims
    d = Uniform(1, 5)
    value = invert(lambda s: d.lst(float(s)) / s, 2.0, InversionSpec(order=14))
    err = abs(value - d.cdf(2.0))
    assert 5e-4 < err < 5e-3


def test_non_finite_transform_raises():
    with pytest.raises(InversionError):
        invert(lambda s: float("nan"), 1.0, InversionSpec(order=8))


@pytest.mark.parametrize("values", [
    [0.5] * 7 + [math.nan],
    [0.5] * 7 + [math.inf],
    [0.5] * 7 + [-math.inf],
    # alternating values meet the alternating weights: the sum is about -5.5e311
    [(-1.0) ** k * 1e300 for k in range(20)],
], ids=["nan", "inf", "-inf", "sum-overflow"])
def test_cdf_sum_not_finite_raises(values):
    from quayside.lst_inversion import _sum_over_s

    with pytest.raises(InversionError, match="not finite at x=1 "):
        _sum_over_s(values, 1.0)


@pytest.mark.parametrize("order", [8, 14, 20])
def test_cdf_sum_is_exact_down_to_2_to_the_minus_108(order):
    # w * 2**160 keeps every bit of a double with |w| >= 2**-108, so such
    # values sum exactly; a smaller w loses its bits below 2**-160, which
    # moves the sum by less than 2**-160 * sum_k |V_k/k|
    from fractions import Fraction

    from quayside.lst_inversion import _sum_over_s, _weights_exact

    weights = [v / k for k, v in enumerate(_weights_exact(order), start=1)]

    def exact(values):
        return sum((v * Fraction(w) for v, w in zip(weights, values)), Fraction(0))

    smallest = [2.0**-108 * (1 + k / 3) for k in range(order)]
    assert _sum_over_s(smallest, 1.0) == float(exact(smallest))
    tiny = [1e-40 * (1 + k / 7) for k in range(order)]
    slack = sum(map(abs, weights)) / 2**160
    assert float(exact(tiny) - slack) <= _sum_over_s(tiny, 1.0) <= float(exact(tiny) + slack)


def test_invalid_x():
    with pytest.raises(ValueError):
        invert(lambda s: 1.0 / s, 0.0)


def _exact_gaver_stehfest(transform, x, n):
    """Reference: the exact sum of (V_k/k) t_k over invert's own terms
    t_k = s_k f(s_k), formed in longdouble at its nodes, rounded to double."""
    from fractions import Fraction

    from quayside.lst_inversion import _weights_exact

    step = np.log(np.longdouble(2)) / np.longdouble(x)
    total = Fraction(0)
    for k, v in enumerate(_weights_exact(n), start=1):
        s = k * step
        total += v / k * Fraction(*np.longdouble(s * transform(s)).as_integer_ratio())
    return float(total)


@pytest.mark.parametrize("n", range(4, 21, 2))
@pytest.mark.parametrize("x", [0.3, 2.0, 50.0])
def test_invert_is_the_exact_sum_of_its_terms(n, x):
    # one rounding, of the whole sum; a power of two in f moves no other bit
    fn = lambda s: 1 / (s + 1)
    value = invert(fn, x, InversionSpec(n))
    assert value == _exact_gaver_stehfest(fn, x, n)
    assert invert(lambda s: 2.0**-600 * fn(s), x, InversionSpec(n)) == 2.0**-600 * value
    subnormal = lambda s: 2.0**-1023 * fn(s)  # rounding twice would miss at x = 0.3, order 14
    assert invert(subnormal, x, InversionSpec(n)) == _exact_gaver_stehfest(subnormal, x, n)


def test_transform_called_once_per_node_with_longdouble_scalars():
    seen = []
    invert(lambda s: seen.append(s) or 1.0 / s, 2.0, InversionSpec(8))
    assert [type(s) for s in seen] == [np.longdouble] * 8
    assert seen == sorted(seen)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    x=st.floats(1e-3, 1e4),
    n=st.sampled_from(range(4, 21, 2)),
    terms=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-2.0, 2.0)), min_size=1, max_size=4),
)
def test_invert_is_the_exact_sum_of_its_terms_on_drawn_rational_transforms(x, n, terms):
    fn = lambda s: sum(r / (s + p) for p, r in terms)  # in the precision of s
    assert invert(fn, x, InversionSpec(n)) == _exact_gaver_stehfest(fn, x, n)

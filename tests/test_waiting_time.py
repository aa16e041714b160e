import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quayside import (
    Erlang2,
    Exponential,
    Gamma3,
    InversionError,
    InversionSpec,
    QuaysideError,
    SingularityError,
    StationarityError,
    Uniform,
    fifo_wait_lst,
    invert,
    lifo_wait_lst,
    wait_cdf,
)


def test_lifo_exponential_exact():
    # pi = 2/3 from the quadratic; w = -0.2 + 12*(1/3)/5 = 0.6
    ev = lifo_wait_lst(Exponential(10), 12.0, 1.0)
    assert ev.value == pytest.approx(0.6, abs=1e-9)
    assert not ev.stationary
    assert ev.solver_info.residual <= 1e-12


def test_lifo_published_rows():
    assert lifo_wait_lst(Uniform(1, 5), 0.20, 1.0).value == pytest.approx(0.5577276, abs=1e-3)
    assert lifo_wait_lst(Exponential(10), 16.0, 1.0).value == pytest.approx(0.2783011, abs=5e-4)


def test_fifo_exponential_exact():
    # w(s) = 0.2*(s+5)/(s+1)
    assert fifo_wait_lst(Exponential(5), 4.0, 1.0).value == pytest.approx(0.6, abs=1e-12)
    assert fifo_wait_lst(Exponential(5), 4.0, 5.0).value == pytest.approx(1 / 3, abs=1e-12)


def test_fifo_published_uniform_row():
    assert fifo_wait_lst(Uniform(1, 3), 0.3, 1.0).value == pytest.approx(0.5349640, abs=1e-3)


def test_stationary_flag():
    assert fifo_wait_lst(Exponential(5), 4.0, 1.0).stationary
    assert not fifo_wait_lst(Exponential(9), 16.0, 1.0).stationary  # computed anyway


def test_records_hold_what_the_call_computed():
    ev = lifo_wait_lst(Exponential(10), 12.0, 1.0)
    assert ev._fields == ("value", "stationary", "solver_info")
    assert ev.solver_info._fields == ("value", "iterations", "residual")
    value, stationary, (pi, iterations, residual) = ev  # named tuples unpack like plain ones
    assert ev == (value, False, (pi, iterations, residual))
    assert fifo_wait_lst(Exponential(5), 4.0, 1.0)[1:] == (True, None)
    assert wait_cdf("lifo", Exponential(5), 4.0, 3.0)[1:] == (True, None)


def test_fifo_singularity():
    # denominator s - a + a*b/(s+b) vanishes at s = a - b
    with pytest.raises(SingularityError):
        fifo_wait_lst(Exponential(5), 6.0, 1.0)
    # a CDF at a huge x puts its first node s = ln2/x where the denominator is ~ s/5
    with pytest.raises(SingularityError, match=r"s=6\.93147e-16"):
        wait_cdf("fifo", Exponential(5), 4.0, 1e15)


STATIONARY_CASES = [
    (Exponential(5), 4.0),
    (Uniform(1, 3), 0.3),
    (Erlang2(2), 0.5),
    (Gamma3(3), 0.7),
]


@pytest.mark.parametrize("d,a", STATIONARY_CASES)
def test_transform_normalization(d, a):
    for fn in (lifo_wait_lst, fifo_wait_lst):
        assert fn(d, a, 1e-6).value == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("d,a", STATIONARY_CASES)
def test_transform_in_unit_interval(d, a):
    for s in [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]:
        for fn in (lifo_wait_lst, fifo_wait_lst):
            v = fn(d, a, s).value
            assert 0.0 < v <= 1.0


@pytest.mark.parametrize("d,a", STATIONARY_CASES)
def test_mean_wait_agrees_across_disciplines(d, a):
    # mean = -w'(0); central difference at s0=1e-4.  Both disciplines are
    # work-conserving and non-preemptive, so they share the same mean.
    s0, h = 1e-4, 5e-5

    def mean(fn):
        return -(fn(d, a, s0 + h).value - fn(d, a, s0 - h).value) / (2 * h)

    m_lifo, m_fifo = mean(lifo_wait_lst), mean(fifo_wait_lst)
    assert m_lifo == pytest.approx(m_fifo, rel=1e-2)


def test_mm1_mean_wait_matches_closed_form():
    # a*E[S^2]/(2(1-rho)) = 4*(2/25)/0.4 = 0.8
    d, a = Exponential(5), 4.0
    s0, h = 1e-4, 5e-5
    m = -(fifo_wait_lst(d, a, s0 + h).value - fifo_wait_lst(d, a, s0 - h).value) / (2 * h)
    assert m == pytest.approx(0.8, rel=1e-3)


def test_wait_cdf_mm1_closed_form():
    # W(x) = 1 - 0.8*e^{-x} for exp(5) service at rate 4
    ev = wait_cdf("fifo", Exponential(5), 4.0, 3.0)
    assert ev.value == pytest.approx(1 - 0.8 * math.exp(-3), abs=1e-3)
    assert wait_cdf("fifo", Exponential(5), 4.0, 20.0).value == pytest.approx(1.0, abs=1e-3)


def test_wait_cdf_lifo_bounded_and_monotone():
    grid = [0.5, 1.0, 2.0, 4.0, 8.0]
    vals = [wait_cdf("lifo", Exponential(5), 4.0, x).value for x in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))


def test_wait_cdf_fifo_monotone():
    grid = [0.25, 0.5, 1.0, 2.0, 4.0]
    vals = [wait_cdf("fifo", Uniform(1, 3), 0.3, x).value for x in grid]
    assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))


def test_wait_cdf_refuses_overload():
    with pytest.raises(StationarityError):
        wait_cdf("fifo", Exponential(9), 16.0, 2.0)
    with pytest.raises(StationarityError):
        wait_cdf("lifo", Exponential(10), 12.0, 2.0)


def test_wait_cdf_unknown_discipline():
    with pytest.raises(ValueError):
        wait_cdf("sjf", Exponential(5), 4.0, 1.0)
    # the discipline is checked before stationarity
    with pytest.raises(ValueError, match="unknown discipline 'bogus'"):
        wait_cdf("bogus", Exponential(1), 2.0, 1.0)


def test_wait_cdf_accepts_custom_inversion_order():
    ev = wait_cdf("fifo", Exponential(5), 4.0, 3.0, InversionSpec(order=18))
    assert ev.value == pytest.approx(1 - 0.8 * math.exp(-3), abs=1e-4)


# the benchmark sweeps' laws at traffic 0.3 and 0.8 (a = rho / mean service time)
NODE_CASES = [
    pytest.param(d, rho / d.moment1(), id="%s-rho%g" % (d.literal(), rho))
    for d in (Exponential(5), Uniform(1, 3), Uniform(0.05, 0.2), Erlang2(4), Gamma3(6))
    for rho in (0.3, 0.8)
]


# ln 2 to 60 digits
LN2 = Fraction("0.693147180559945309417232121458176568075500134360255254120680")


def _exact_cdf(transform, d, a, x, order):
    """sum_k (V_k/k) w(s_k) of the public `transform` at s_k = float(k*ln2/x),
    as an exact Fraction."""
    from quayside.lst_inversion import _weights_exact

    return sum((v / k * Fraction(transform(d, a, float(k * LN2 / Fraction(x))).value)
                for k, v in enumerate(_weights_exact(order), start=1)), Fraction(0))


def _is_exact_cdf(value, transform, d, a, x, order):
    """Whether `value` is W(x) of the public `transform` in exact arithmetic:
    the clamped double nearest `_exact_cdf`, ties to even."""
    return value == min(max(float(_exact_cdf(transform, d, a, x, order)), 0.0), 1.0)


@pytest.mark.parametrize("d,a", NODE_CASES)
@pytest.mark.parametrize(
    "discipline,transform", [("lifo", lifo_wait_lst), ("fifo", fifo_wait_lst)], ids=["lifo", "fifo"]
)
def test_cdf_nodes_match_public_transform(d, a, discipline, transform):
    # wait_cdf evaluates its nodes in one pass and rounds its sum once: the
    # result must be the exact Gaver-Stehfest sum of the public transform at
    # the correctly rounded nodes, rounded to double
    for order in (4, 14, 18, 20):
        for x in (0.5, 2.5, 10.0):
            value = wait_cdf(discipline, d, a, x, InversionSpec(order)).value
            assert _is_exact_cdf(value, transform, d, a, x, order), (order, x)


_LAWS = st.one_of(
    st.floats(0.5, 20.0).map(Exponential),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.05, 2.0)).map(lambda t: Uniform(t[0], t[0] + t[1])),
    st.floats(0.5, 20.0).map(Erlang2),
    st.floats(0.5, 20.0).map(Gamma3),
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(
    d=_LAWS,
    rho=st.floats(0.05, 0.9),
    x=st.floats(1e-3, 100.0),
    order=st.sampled_from(range(4, 21, 2)),
    discipline=st.sampled_from(["lifo", "fifo"]),
)
def test_cdf_nodes_match_public_transform_on_drawn_queues(d, rho, x, order, discipline):
    a = rho / d.moment1()
    value = wait_cdf(discipline, d, a, x, InversionSpec(order)).value
    assert _is_exact_cdf(value, lifo_wait_lst if discipline == "lifo" else fifo_wait_lst, d, a, x, order)


def test_cdf_rounds_an_exact_tie_to_even():
    d, a, x = Erlang2(9.4), 0.329, 4.6
    value = wait_cdf("lifo", d, a, x, InversionSpec(8)).value
    below = math.nextafter(value, 0.0)
    assert _exact_cdf(lifo_wait_lst, d, a, x, 8) == (Fraction(value) + Fraction(below)) / 2
    assert value.hex() == "0x1.fffee9495cf06p-1"  # 0.9999916936926361; below ends in 5


@pytest.mark.parametrize("order", [14, 20])
@pytest.mark.parametrize("x", [1e-307, 1e-305, 1e-300, 1e300])
@pytest.mark.parametrize(
    "discipline,transform", [("lifo", lifo_wait_lst), ("fifo", fifo_wait_lst)], ids=["lifo", "fifo"]
)
def test_cdf_at_extreme_x_agrees_with_the_longdouble_inversion(discipline, transform, x, order):
    # the nodes reach 1.4e308 at x = 1e-307 and fall to 7e-301 at x = 1e300;
    # invert's longdouble sum of the public transform raises the same error
    # or gives W(x) to 1e-5, and W(x) is never NaN
    d, a, spec = Exponential(5), 4.0, InversionSpec(order)
    try:
        want = invert(lambda s: transform(d, a, float(s)).value / s, x, spec)
    except QuaysideError as exc:
        with pytest.raises(type(exc)):
            wait_cdf(discipline, d, a, x, spec)
    else:
        assert abs(wait_cdf(discipline, d, a, x, spec).value - min(max(want, 0.0), 1.0)) <= 1e-5


class _CountingLaw:
    """Wraps a law and counts its transform evaluations."""

    def __init__(self, law):
        self.law = law
        self.calls = 0

    def lst(self, s):
        self.calls += 1
        return self.law.lst(s)

    def moment1(self):
        return self.law.moment1()

    def literal(self):
        return self.law.literal()


@pytest.mark.parametrize("order", [4, 14, 20])
def test_fifo_cdf_one_transform_evaluation_per_node(order):
    counted = _CountingLaw(Exponential(5))
    value = wait_cdf("fifo", counted, 4.0, 2.0, InversionSpec(order)).value
    assert counted.calls == order
    assert value == wait_cdf("fifo", Exponential(5), 4.0, 2.0, InversionSpec(order)).value


def test_cdf_nodes_beyond_double_range_rejected():
    # at a subnormal x the largest nodes k*ln2/x overflow a double
    for discipline in ("lifo", "fifo"):
        with pytest.raises(InversionError, match="x=1e-308 is too small: its Gaver-Stehfest nodes overflow a double"):
            wait_cdf(discipline, Exponential(5), 4.0, 1e-308)


def test_invert_keeps_longdouble_nodes_beyond_double_range():
    # the double-overflow guard belongs to wait_cdf: invert's longdouble
    # nodes at x=1e-308 stay finite, and 1/(s+1) inverts to e^-x ~ 1
    assert invert(lambda s: 1 / (s + 1), 1e-308) == pytest.approx(1.0, abs=1e-6)

"""Every public entry point that takes a number checks it by the same rule.

A rate, a transform point or a CDF point must be a real number in
(0, inf), an order or a count an integer at or above its floor.  A bool
or a string is not a number, and an integer beyond the double range is
not finite.  Each refusal is a ValueError that names the field.  numpy
scalars are numbers and give the same bits as Python ones; a law's
transform computes in the precision of its argument, so a numpy longdouble
s keeps its digits.
"""

import math

import numpy as np
import pytest

from quayside import (
    Erlang,
    Exponential,
    InversionSpec,
    Mg1Scenario,
    ObservationSample,
    PriorityClass,
    PriorityScenario,
    SimConfig,
    Uniform,
    busy_period_lst,
    empirical_moment,
    fifo_wait_lst,
    invert,
    lifo_wait_lst,
    simulate_mg1,
    traffic_coefficients,
    wait_cdf,
)
from quayside import busy_period, lst_inversion, waiting_time

EXP5 = Exponential(5.0)
SAMPLE = ObservationSample((1.0, 2.0, 4.0))
CFG = SimConfig(seed=1, total_arrivals=100)

NOT_NUMBERS = [True, False, "4", None, 1j]
BAD_REALS = [math.nan, math.inf, -math.inf, 0, -1, 10**400, -(10**400)]
BAD_INTEGERS = [math.nan, math.inf, -math.inf, 0, -1, 2.0]
# a transform argument may be 0 or inf
BAD_S = [math.nan, -math.inf, -1, -(10**400)]

# name -> (the field its message names, the call with the value in that field, values to refuse)
ENTRY_POINTS = {
    "Exponential.rate": ("rate", lambda v: Exponential(v), BAD_REALS),
    "Uniform.lo": ("lo", lambda v: Uniform(v, 5.0), [x for x in BAD_REALS if x != 0]),
    "Uniform.hi": ("hi", lambda v: Uniform(1.0, v), BAD_REALS),
    "Erlang.k": ("Erlang order k", lambda v: Erlang(v, 1.0), BAD_INTEGERS),
    "Erlang.rate": ("rate", lambda v: Erlang(2, v), BAD_REALS),
    "PriorityClass.lam": ("arrival rate", lambda v: PriorityClass(v, EXP5), BAD_REALS),
    "Mg1Scenario.arrival_rate": ("arrival_rate", lambda v: Mg1Scenario(v, EXP5, "fifo"), BAD_REALS),
    "SimConfig.seed": ("seed", lambda v: SimConfig(seed=v, total_arrivals=10), [x for x in BAD_INTEGERS if x != 0]),
    "SimConfig.total_arrivals": ("total_arrivals", lambda v: SimConfig(seed=0, total_arrivals=v), BAD_INTEGERS),
    "SimConfig.ecdf_grid": ("ecdf_grid", lambda v: SimConfig(0, 10, (1.0, v)), [math.nan, math.inf, -math.inf, 10**400]),
    "InversionSpec.order": ("order", lambda v: InversionSpec(v), BAD_INTEGERS),
    "busy_period_lst.a": ("arrival rate", lambda v: busy_period_lst(EXP5, v, 1.0), BAD_REALS),
    "busy_period_lst.s": ("s", lambda v: busy_period_lst(EXP5, 4.0, v), BAD_REALS),
    "lifo_wait_lst.a": ("arrival rate", lambda v: lifo_wait_lst(EXP5, v, 1.0), BAD_REALS),
    "lifo_wait_lst.s": ("s", lambda v: lifo_wait_lst(EXP5, 4.0, v), BAD_REALS),
    "fifo_wait_lst.a": ("arrival rate", lambda v: fifo_wait_lst(EXP5, v, 1.0), BAD_REALS),
    "fifo_wait_lst.s": ("s", lambda v: fifo_wait_lst(EXP5, 4.0, v), BAD_REALS),
    "wait_cdf.a": ("arrival rate", lambda v: wait_cdf("lifo", EXP5, v, 1.0), BAD_REALS),
    "wait_cdf.x": ("x", lambda v: wait_cdf("fifo", EXP5, 4.0, v), BAD_REALS),
    "invert.x": ("inversion point x", lambda v: invert(lambda s: 1.0 / (s + 1.0), v), BAD_REALS),
    "simulate_mg1.a": ("arrival rate", lambda v: simulate_mg1(EXP5, v, "fifo", CFG), BAD_REALS),
    "empirical_moment.k": ("moment order", lambda v: empirical_moment(SAMPLE, v), BAD_INTEGERS),
    "Exponential.lst.s": ("transform argument s", lambda v: EXP5.lst(v), BAD_S),
    "Uniform.lst.s": ("transform argument s", lambda v: Uniform(1.0, 3.0).lst(v), BAD_S),
    "Erlang.lst.s": ("transform argument s", lambda v: Erlang(3, 6.0).lst(v), BAD_S),
}

CASES = [
    pytest.param(field, call, value, id="%s-%s" % (name, "int10e400" if value in (10**400, -(10**400)) else repr(value)))
    for name, (field, call, bad) in ENTRY_POINTS.items()
    for value in NOT_NUMBERS + bad
]


@pytest.mark.parametrize("field,call,value", CASES)
def test_bad_number_raises_value_error_naming_the_field(field, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert field in str(info.value)


def test_a_bool_is_not_a_number():
    with pytest.raises(ValueError, match="arrival rate must be a number, got True"):
        lifo_wait_lst(EXP5, True, 1.0)
    with pytest.raises(ValueError, match="rate must be a number, got np.True_"):
        Exponential(np.True_)
    with pytest.raises(ValueError, match="lo must be a number, got False"):
        Uniform(False, True)


def test_an_integer_beyond_the_double_range_is_not_finite():
    with pytest.raises(ValueError, match="rate must be positive and finite, got inf"):
        Exponential(10**400)
    with pytest.raises(ValueError, match="s must be positive and finite, got -inf"):
        fifo_wait_lst(EXP5, 4.0, -(10**400))


@pytest.mark.parametrize("d", [EXP5, Uniform(1.0, 3.0), Erlang(3, 6.0)], ids=lambda d: d.literal())
def test_a_transform_takes_an_integer_beyond_the_double_range_as_inf(d):
    assert d.lst(10**400) == d.lst(math.inf) == 0.0
    with pytest.raises(ValueError, match="transform argument s must be >= 0, got -inf"):
        d.lst(-(10**400))


def test_wait_cdf_refuses_an_inversion_order_that_is_no_spec():
    with pytest.raises(ValueError, match="inv must be an InversionSpec, got 14"):
        wait_cdf("lifo", EXP5, 4.0, 1.0, inv=14)


def _bits(result):
    """float.hex of every number in a result, through tuples and records."""
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    if isinstance(result, (float, np.floating)):
        return float.hex(float(result))
    return result


# each call builds its numbers with real(x) and integer(n), so that one
# call runs on Python numbers and on numpy scalars
CALLS = {
    "fifo_wait_lst": lambda real, integer: fifo_wait_lst(Exponential(real(5.0)), real(4.0), real(1.0)),
    "lifo_wait_lst": lambda real, integer: lifo_wait_lst(Erlang(integer(2), real(4.0)), real(1.2), real(0.5)),
    "busy_period_lst": lambda real, integer: busy_period_lst(Uniform(real(1.0), real(3.0)), real(0.3), real(0.1)),
    "wait_cdf lifo": lambda real, integer: wait_cdf(
        "lifo", Uniform(real(1.0), real(3.0)), real(0.3), real(2.5), InversionSpec(integer(14))),
    "wait_cdf fifo": lambda real, integer: wait_cdf("fifo", Exponential(real(5.0)), real(4.0), real(1.5)),
    "invert": lambda real, integer: invert(lambda s: 1.0 / (s + 1.0), real(2.0), InversionSpec(integer(16))),
    "laws": lambda real, integer: tuple(
        (d.lst(0.7), d.moment1(), d.cdf(0.3), d.literal())
        for d in (Exponential(real(5.0)), Uniform(real(0.0), real(3.0)), Erlang(integer(3), real(6.0)))),
    "traffic_coefficients": lambda real, integer: traffic_coefficients(PriorityScenario(
        (PriorityClass(real(0.3), Exponential(real(7.0))), PriorityClass(real(0.2), Erlang(integer(2), real(4.0)))),
        "loss")),
    "simulate_mg1": lambda real, integer: simulate_mg1(
        Exponential(real(5.0)), real(4.0), "fifo", SimConfig(integer(7), integer(2000), (real(0.5), real(1.0)))),
    "empirical_moment": lambda real, integer: empirical_moment(SAMPLE, integer(3)),
    "lst": lambda real, integer: tuple(
        d.lst(real(s)) for d in (EXP5, Uniform(0.0, 3.0), Uniform(1.0, 3.0), Erlang(3, 6.0))
        for s in (0.0, 1e-9, 0.7, 2.0, math.inf)),
}


def _np_int_where_integral(x):
    return np.int64(x) if float(x).is_integer() else np.float64(x)


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("real,integer", [
    (np.float64, np.int64),
    (_np_int_where_integral, np.int64),
], ids=["float64", "int64"])
def test_numpy_scalars_give_the_same_bits(name, real, integer):
    call = CALLS[name]
    assert _bits(call(real, integer)) == _bits(call(float, int))


def test_a_longdouble_s_keeps_its_digits():
    # lst computes in the precision of its argument, so that a law inverts
    # to its density from invert's longdouble nodes; rounding each node to
    # a double would cost three digits at order 20 (8e-6 off here)
    s = np.longdouble(1) / 3
    for d in (EXP5, Uniform(0.0, 3.0), Uniform(1.0, 3.0), Erlang(3, 6.0)):
        assert type(d.lst(s)) is np.longdouble
    assert abs(invert(Exponential(1.0).lst, 1.0, InversionSpec(20)) - math.exp(-1.0)) < 1e-7


@pytest.fixture
def count_checks(monkeypatch):
    calls = []
    for module in (busy_period, waiting_time, lst_inversion):
        check = module.positive_finite

        def counted(value, name, check=check):
            calls.append(name)
            return check(value, name)

        monkeypatch.setattr(module, "positive_finite", counted)
    return calls


def test_each_number_is_checked_once_where_it_enters(count_checks):
    lifo_wait_lst(EXP5, 4.0, 1.0)
    assert count_checks == ["arrival rate", "s"]
    count_checks.clear()
    # the Kendall solve at each of the 14 Gaver-Stehfest nodes checks nothing,
    # and neither do the nodes and the sum, which are private to wait_cdf
    wait_cdf("lifo", EXP5, 4.0, 1.0)
    assert count_checks == ["arrival rate", "x"]

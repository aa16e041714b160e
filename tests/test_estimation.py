import math
import re

import numpy as np
import pytest

from quayside import (
    ObservationSample,
    empirical_moment,
    estimate_arrival_rate,
    estimate_service_rate,
    load_observations,
)


def test_empirical_moments():
    assert empirical_moment(ObservationSample([2, 4, 6]), 1) == pytest.approx(4.0)
    assert empirical_moment(ObservationSample([1, 2]), 2) == pytest.approx(2.5)
    assert empirical_moment(ObservationSample([3]), 4) == pytest.approx(81.0)


def test_empirical_moment_order_validated():
    with pytest.raises(ValueError):
        empirical_moment(ObservationSample([1.0]), 0)
    with pytest.raises(ValueError):
        empirical_moment(ObservationSample([1.0]), 1.5)
    # a numpy integer order is an integer
    assert empirical_moment(ObservationSample([1.0, 2.0]), np.int64(2)) == 2.5


def test_huge_sample_gives_finite_estimates():
    # a sum of the raw values overflows a double; the mean does not
    sample = ObservationSample([1e308, 1e308])
    assert estimate_arrival_rate(sample) == 1e308
    assert estimate_service_rate(sample) == 1e-308
    for n in range(1, 50):
        assert estimate_arrival_rate(ObservationSample([1.7976931348623157e308] * n)) == 1.7976931348623157e308


def test_overflowing_higher_moment_is_a_value_error():
    with pytest.raises(ValueError, match="order-2 powers of 1e\\+300 overflow a double"):
        empirical_moment(ObservationSample([1e300, 1.0]), 2)


def test_arrival_rate_is_sample_mean():
    assert estimate_arrival_rate(ObservationSample([3, 5, 4, 4])) == pytest.approx(4.0)
    assert estimate_arrival_rate(ObservationSample([7])) == pytest.approx(7.0)


def test_arrival_rate_consistent_on_poisson_counts():
    rng = np.random.default_rng(42)
    counts = rng.poisson(0.3, 10**5)
    est = estimate_arrival_rate(ObservationSample(counts.tolist()))
    assert est == pytest.approx(0.3, abs=0.01)


def test_service_rate_is_inverse_mean():
    assert estimate_service_rate(ObservationSample([0.1, 0.2, 0.3])) == pytest.approx(5.0)
    assert estimate_service_rate(ObservationSample([2])) == pytest.approx(0.5)


def test_service_rate_consistent_on_exponential_draws():
    rng = np.random.default_rng(43)
    draws = rng.exponential(1 / 10, 10**5)
    est = estimate_service_rate(ObservationSample(draws.tolist()))
    assert est == pytest.approx(10.0, abs=0.2)


def test_service_rate_degenerate_sample():
    with pytest.raises(ValueError):
        estimate_service_rate(ObservationSample([0.0, 0.0]))


def test_sample_validation():
    with pytest.raises(ValueError):
        ObservationSample([])
    with pytest.raises(ValueError):
        ObservationSample([1.0, -2.0])
    with pytest.raises(ValueError):
        ObservationSample([float("nan")])
    with pytest.raises(ValueError):
        ObservationSample([float("inf")])
    with pytest.raises(ValueError):
        ObservationSample([1.0, float("nan")])


@pytest.mark.parametrize("value", [True, False, np.True_, "4", None, 1j])
def test_sample_refuses_what_is_no_number(value):
    with pytest.raises(ValueError, match="observations must be a number, got %s" % re.escape(repr(value))):
        ObservationSample([1.0, value, 2.0])


def test_sample_refuses_an_integer_beyond_the_double_range():
    with pytest.raises(ValueError, match="observations must be finite and >= 0, got inf"):
        ObservationSample([1.0, 10**400])


def test_accepted_sample_keeps_the_bits_of_float():
    values = [0.1, 3, np.float64(2.5), np.float32(0.1), np.int64(7), 1e-300, 0.0]
    got = ObservationSample(values).values
    assert [float.hex(v) for v in got] == [float.hex(float(v)) for v in values]
    assert all(type(v) is float for v in got)
    floats = [0.1, 0.2, 1e308]
    assert ObservationSample(floats).values == tuple(floats)


def test_unbiasedness_battery():
    # grand mean of 1000 replications of n=50 Poisson(a) samples sits
    # within 3 standard errors of a
    a, n, reps = 0.3, 50, 1000
    rng = np.random.default_rng(2016)
    estimates = rng.poisson(a, (reps, n)).mean(axis=1)
    se = math.sqrt(a / n / reps)
    assert abs(estimates.mean() - a) < 3 * se


def test_consistency_battery():
    # larger samples beat smaller ones in at least 95% of replications
    a, reps = 0.7, 500
    rng = np.random.default_rng(7)
    better = 0
    for _ in range(reps):
        small = abs(rng.poisson(a, 10**2).mean() - a)
        large = abs(rng.poisson(a, 10**5).mean() - a)
        if large < small:
            better += 1
    assert better >= 0.95 * reps


def test_round_trip_with_distributions():
    from quayside import Exponential

    rng = np.random.default_rng(11)
    b = 4.0
    draws = Exponential(b).sample(rng, 10**5)
    est = estimate_service_rate(ObservationSample(draws.tolist()))
    assert est == pytest.approx(b, rel=0.02)
    assert Exponential(est).moment1() == pytest.approx(draws.mean(), rel=1e-12)


def test_load_observations(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("# service durations\n0.1\n0.2  # trailing comment\n\n0.3\n")
    sample = load_observations(path)
    assert sample.values == (0.1, 0.2, 0.3)


def test_load_observations_bad_line(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("0.1\nnot-a-number\n")
    with pytest.raises(ValueError, match="line 2|:2:"):
        load_observations(path)

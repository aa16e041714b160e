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
from quayside import estimation


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


def _line_loop(path):
    """The line-at-a-time loader that load_observations replaced: the reference."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                raise ValueError("%s:%d: not a number: %r" % (path, lineno, text))
    try:
        return ObservationSample(values)
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _outcome(load, path):
    """The loaded bits, or the error text."""
    try:
        return [float.hex(v) for v in load(path).values]
    except ValueError as exc:
        return str(exc)


_BLOCK = estimation._BLOCK
# a file of 6-character lines "0.0001".."0.9999" that spans several blocks
_LONG = "".join("0.%04d\n" % (k % 10**4) for k in range(1, 3 * _BLOCK // 7))

PARSING_CASES = {
    "whitespace-only lines": b"1\n   \n\t\n2\n \t \n",
    "other whitespace": "1\x0c\n\t2 \x0b\n  3\xa0\n".encode(),
    "a line break that is no newline": "1\x0c2\n3\n".encode(),
    "crlf": b"1\r\n2\r\n# c\r\n3\r\n",
    "lone cr": b"1\r2\r\r3\r",
    "mixed newlines": b"1\r\n2\r3\n\r\n4",
    "comments": b"# header\n1 # trailing\n#\n2#tight\n  # indented\n3 ## twice # more\n",
    "no final newline": b"1\n2",
    "underscores and signed zero": b"1_000\n-0.0\n+0.5\n1e-300\n",
    "nan": b"1\nnan\n",
    "inf": b"1\ninf\n",
    "negative": b"1\n-2\n",
    "two numbers": b"1\n1 2\n3\n",
    "empty": b"",
    "comment only": b"# only a comment\n\n",
    "long": _LONG.encode(),
    "bad line past the first block": (_LONG + "x\n" + _LONG).encode(),
    "bad line after a comment past the first block": ("#c\n" * 10 + _LONG + "1 # x\nbad # x\n").encode(),
    # the first block's _BLOCK characters end inside "123456.5"
    "line across a block boundary": ("1\n" * ((_BLOCK - 3) // 2) + "123456.5\n4\n").encode(),
    "bad line across a block boundary": ("1\n" * ((_BLOCK - 3) // 2) + "1234 56.5\n4\n").encode(),
}


@pytest.mark.parametrize("block", [_BLOCK, 1, 5])
@pytest.mark.parametrize("case", PARSING_CASES)
def test_load_observations_parses_like_the_line_loop(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(estimation, "_BLOCK", block)
    path = tmp_path / "obs.txt"
    path.write_bytes(PARSING_CASES[case])
    assert _outcome(load_observations, path) == _outcome(_line_loop, path)


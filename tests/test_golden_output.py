"""The CLI's table and traffic output, pinned byte for byte.

The files under tests/data/ hold the output of the commands below as
produced before the Erlang laws were merged into one class; a refactor
that changes any printed digit or literal fails here.
"""

import io
import os

import pytest

from quayside.cli import run

TESTS = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = os.path.join(os.path.dirname(TESTS), "scenarios")


@pytest.mark.parametrize(
    "argv,golden",
    [
        (["reproduce", "--tables", "all"], "reproduce_all.txt"),
        (["reproduce", "--tables", "all", "--format", "csv"], "reproduce_all.csv"),
        (["traffic", "--scenario", os.path.join(SCENARIOS, "table_4_4_1.json")], "traffic_table_4_4_1.txt"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_output_matches_golden_file(argv, golden):
    buf = io.StringIO()
    assert run(argv, out=buf) == 0
    with open(os.path.join(TESTS, "data", golden), newline="") as fh:
        assert buf.getvalue() == fh.read()

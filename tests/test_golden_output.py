"""The CLI's table and traffic output, pinned byte for byte.

The files under tests/data/ hold the output of the commands below.  The
reproduce and traffic files were written before the Erlang laws were
merged into one class, the simulate files before the simulator's
per-class arrival streams became one heapq.merge; a refactor that
changes any printed digit or literal fails here.  The run of table 4.4.1
at 2*10^5 arrivals draws a second block of interarrival times for
class 5.
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
        *((["simulate", "--scenario", os.path.join(SCENARIOS, name + ".json"), "--seed", "7",
            "--arrivals", "20000", "--grid", "0,1,3"], "simulate_%s.txt" % name)
          for name in ("mm1_fifo", "table_4_3_1", "table_4_4_1", "table_4_5_1")),
        (["simulate", "--scenario", os.path.join(SCENARIOS, "table_4_4_1.json"), "--seed", "7",
          "--arrivals", "200000", "--grid", "0,1,3"], "simulate_table_4_4_1_200000.txt"),
    ],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_output_matches_golden_file(argv, golden):
    buf = io.StringIO()
    assert run(argv, out=buf) == 0
    with open(os.path.join(TESTS, "data", golden), newline="") as fh:
        assert buf.getvalue() == fh.read()

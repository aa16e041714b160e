"""`import quayside` loads its names on first use, and the subcommands that
need no arrays run without numpy: only `invert` and `simulate` load it."""

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quayside
from quayside import cli, lst_inversion, traffic

SRC = str(Path(quayside.__file__).resolve().parents[1])
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

# every name the package bound before it resolved names lazily, with its home module
OLD_NAMES = {
    "busy_period": ["BusyPeriodSolution", "busy_period_lst"],
    "distributions": ["Erlang", "Erlang2", "Exponential", "Gamma3", "Uniform", "parse_distribution"],
    "errors": ["ConvergenceError", "InversionError", "NumericOverflowError", "QuaysideError",
               "ScenarioError", "SingularityError", "StationarityError"],
    "estimation": ["ObservationSample", "empirical_moment", "estimate_arrival_rate",
                   "estimate_service_rate", "load_observations"],
    "lst_inversion": ["InversionSpec", "invert", "stehfest_weights"],
    "reference_tables": ["RenderedTable", "recompute_table", "reproduce"],
    "scenario": ["Mg1Scenario", "load_scenario", "parse_scenario"],
    "sim_oracle": ["SimConfig", "SimResult", "simulate_mg1", "simulate_priority"],
    "traffic": ["LOSS", "REPEAT", "RESUME", "PriorityClass", "PriorityScenario", "TrafficReport",
                "traffic_coefficients", "FIFO", "LIFO"],
    "waiting_time": ["WaitEvaluation", "fifo_wait_lst", "lifo_wait_lst", "wait_cdf"],
}


def _fresh(code, *args):
    """Run `code` in a new interpreter that finds this checkout's quayside; its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# `python -m quayside.cli ARGS`, then whether numpy was loaded
_CLI = """
import runpy, sys
sys.argv = ["quayside", *sys.argv[1:]]
try:
    runpy.run_module("quayside.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print("numpy loaded:", "numpy" in sys.modules)
"""


def test_import_quayside_leaves_numpy_out():
    assert _fresh("import sys, quayside; print('numpy' in sys.modules)") == "False\n"


@pytest.fixture
def observations(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text("# durations\n0.1\n0.2\n0.3\n")
    return str(path)


def test_cold_estimate_leaves_numpy_out(observations):
    out = _fresh(_CLI, "estimate", "--kind", "service", "--file", observations, "--format", "csv")
    assert out.splitlines()[1:] == ["service_rate,5.0,3", "numpy loaded: False"]


def test_cold_traffic_leaves_numpy_out():
    out = _fresh(_CLI, "traffic", "--scenario", str(SCENARIOS / "table_4_4_1.json"))
    assert out.splitlines()[0].split()[0] == "class"
    assert out.splitlines()[-1] == "numpy loaded: False"


def test_cold_cdf_imports_what_it_needs():
    out = _fresh(_CLI, "cdf", "--order", "fifo", "--service", "exp(5)", "--rate", "4", "--x", "1", "--format", "csv")
    discipline, x, w = out.splitlines()[1].split(",")
    assert (discipline, x) == ("fifo", "1.0")
    assert float(w) == pytest.approx(1 - 0.8 * math.exp(-1), abs=1e-6)  # M/M/1: 1 - rho e^{-(b - a) x}


# quayside.cli.run(ARGS) in a fresh interpreter; its last line: the exit code and whether numpy was loaded
_RUN = """
import sys
from quayside.cli import run
code = run(sys.argv[1:])
print("exit %d, numpy loaded: %s" % (code, "numpy" in sys.modules))
"""

_MM1 = ["--service", "exp(5)", "--rate", "4"]


@pytest.mark.parametrize("argv,code", [
    (["wait", "--order", "fifo", *_MM1, "--s", "1"], 0),
    (["wait", "--order", "lifo", *_MM1, "--s", "1"], 0),
    (["cdf", "--order", "fifo", *_MM1, "--x", "3"], 0),
    (["cdf", "--order", "lifo", *_MM1, "--x", "3", "--inv-order", "20"], 0),
    (["cdf", "--order", "lifo", "--service", "exp(5)", "--rate", "6", "--x", "1"], 3),
    (["reproduce", "--tables", "all"], 0),
], ids=["wait-fifo", "wait-lifo", "cdf-fifo", "cdf-lifo", "cdf-overloaded", "reproduce"])
def test_cold_analytic_calls_leave_numpy_out(argv, code):
    # only invert's longdouble sum and the simulator need numpy
    assert _fresh(_RUN, *argv).splitlines()[-1] == "exit %d, numpy loaded: False" % code


# quayside.cli.run(ARGS) in a fresh interpreter; its last line: json and csv if the call loaded them
_RUN_PARSERS = """
import sys
preloaded = {"json", "csv"} & set(sys.modules)
from quayside.cli import run
code = run(sys.argv[1:])
print("exit %d, loaded: %s" % (code, sorted(({"json", "csv"} & set(sys.modules)) - preloaded)))
"""


@pytest.mark.parametrize("argv", [
    ["wait", "--order", "fifo", *_MM1, "--s", "1", "--format", "text"],
    ["cdf", "--order", "lifo", *_MM1, "--x", "3"],
], ids=["wait", "cdf"])
def test_cold_text_calls_leave_json_and_csv_out(argv):
    # only scenario files need json, and only --format csv needs csv
    assert _fresh(_RUN_PARSERS, *argv).splitlines()[-1] == "exit 0, loaded: []"


def test_analytic_modules_leave_numpy_out():
    code = "import sys, quayside.waiting_time, quayside.reference_tables, quayside.lst_inversion; " \
           "print('numpy' in sys.modules)"
    assert _fresh(code) == "False\n"


def test_cold_invert_loads_numpy():
    out = _fresh(_RUN, "invert", "--transform", "one_over_s_plus_1", "--x", "2", "--format", "csv")
    assert out.splitlines()[1].startswith("one_over_s_plus_1,2.0,")
    assert out.splitlines()[-1] == "exit 0, numpy loaded: True"


@pytest.mark.parametrize("home,names", OLD_NAMES.items())
def test_old_names_are_their_home_objects(home, names):
    module = importlib.import_module("quayside." + home)
    for name in names:
        assert getattr(quayside, name) is getattr(module, name), name


def test_all_lists_exactly_the_old_names():
    assert sorted(quayside.__all__) == sorted(n for names in OLD_NAMES.values() for n in names)
    assert set(quayside.__all__) <= set(dir(quayside))


def test_submodule_resolves_on_first_access():
    code = "import quayside; print(quayside.reference_tables.traffic_scenario('4.4.1').discipline)"
    assert _fresh(code) == "loss\n"


def test_star_import_binds_all():
    namespace = {}
    exec("from quayside import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == sorted(quayside.__all__)
    assert namespace["wait_cdf"] is quayside.waiting_time.wait_cdf


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quayside.no_such_name
    assert not hasattr(quayside, "no_such_name")
    with pytest.raises(ImportError):
        from quayside import no_such_name  # noqa: F401


def test_cli_constants_are_the_library_objects():
    assert cli.FIFO is traffic.FIFO is quayside.FIFO
    assert cli.LIFO is traffic.LIFO is quayside.LIFO
    assert cli.DEFAULT_ORDER is lst_inversion.DEFAULT_ORDER
    assert lst_inversion.InversionSpec().order == cli.DEFAULT_ORDER

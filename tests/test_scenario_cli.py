import copy
import csv
import io
import math
import os
import subprocess
import sys

import pytest

from quayside import (
    Erlang,
    Exponential,
    Mg1Scenario,
    PriorityScenario,
    QuaysideError,
    ScenarioError,
    Uniform,
    fifo_wait_lst,
    lifo_wait_lst,
    parse_scenario,
    reproduce,
)
from quayside import cli, reference_tables
from quayside.cli import run

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = os.path.join(REPO, "scenarios")


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, out=buf)
    return code, buf.getvalue()


def test_parse_shipped_priority_scenario():
    with open(os.path.join(SCENARIOS, "table_4_4_1.json")) as fh:
        sc = parse_scenario(fh.read())
    assert isinstance(sc, PriorityScenario)
    assert sc.discipline == "loss"
    assert len(sc.classes) == 5
    assert sc.classes[0].service == Exponential(7)
    assert [c.lam for c in sc.classes] == [0.3, 0.2, 0.4, 0.5, 0.8]


def test_parse_single_class_scenario():
    sc = parse_scenario('{"arrival_rate": 4, "service": "exp(5)", "order": "fifo"}')
    assert isinstance(sc, Mg1Scenario)
    assert sc.order == "fifo"


@pytest.mark.parametrize(
    "text,needle",
    [
        ('{"discipline":"loss","classes":[]}', "at least one class"),
        ('{"discipline":"loss","classes":[{"lambda":1,"service":"exp(-1)"}]}', "rate must be positive"),
        ('{"discipline":"fifo","classes":[{"lambda":1,"service":"exp(1)"}]}', "discipline"),
        ('{"discipline":"loss","classes":[{"lambda":1,"service":"exp(1)","x":2}]}', "unknown keys"),
        ('{"arrival_rate":4,"service":"exp(5)","order":"fifo","bogus":1}', "unknown scenario keys"),
        ('{"arrival_rate":4,"service":"exp(5)"}', "order"),
        ("not json", "JSON"),
        ("[1,2]", "object"),
        ('{"classes":[]}', "discipline"),
        ('{"discipline":"loss","classes":[{"lambda":Infinity,"service":"exp(1)"}]}', "arrival rate must be positive"),
        ('{"arrival_rate":Infinity,"service":"exp(5)","order":"fifo"}', "arrival_rate must be positive"),
        # rates are JSON numbers: a bool or a string is refused, not converted
        ('{"discipline":"loss","classes":[{"lambda":true,"service":"exp(1)"}]}',
         "class 1: lambda must be a number, got True"),
        ('{"discipline":"loss","classes":[{"lambda":false,"service":"exp(1)"}]}',
         "class 1: lambda must be a number, got False"),
        ('{"discipline":"loss","classes":[{"lambda":"4","service":"exp(1)"}]}',
         "class 1: lambda must be a number, got '4'"),
        ('{"arrival_rate":true,"service":"exp(5)","order":"fifo"}', "arrival_rate must be a number, got True"),
        ('{"arrival_rate":false,"service":"exp(5)","order":"fifo"}', "arrival_rate must be a number, got False"),
        ('{"arrival_rate":"4","service":"exp(5)","order":"fifo"}', "arrival_rate must be a number, got '4'"),
        # an integer too large for a double is refused as not finite
        pytest.param('{"arrival_rate":1%s,"service":"exp(5)","order":"fifo"}' % ("0" * 400),
                     "arrival_rate must be positive and finite, got inf", id="arrival_rate-1e400-int"),
        pytest.param('{"discipline":"loss","classes":[{"lambda":1%s,"service":"exp(1)"}]}' % ("0" * 400),
                     "class 1: arrival rate must be positive and finite", id="lambda-1e400-int"),
        ('{"arrival_rate":4,"service":"exp(5)","order":"sjf"}', "order must be fifo or lifo"),
        ('{"discipline":"loss","classes":[3]}', "class 1: must be an object"),
        ('{"discipline":"loss","classes":[{"lambda":1}]}', "class 1: missing field 'service'"),
        # a service that is no string is refused naming the field and the value
        ('{"arrival_rate":4,"service":5,"order":"fifo"}', "service law literal must be a string, got 5"),
        ('{"discipline":"loss","classes":[{"lambda":1,"service":["exp(1)"]}]}',
         r"class 1: a service law literal must be a string, got \['exp\(1\)'\]"),
    ],
)
def test_scenario_errors(text, needle):
    with pytest.raises(ScenarioError, match=needle):
        parse_scenario(text)


def test_cli_traffic_table_441():
    code, out = run_cli(["traffic", "--scenario", os.path.join(SCENARIOS, "table_4_4_1.json"), "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["class", "service", "lambda", "sigma", "rho", "stationary"]
    assert len(rows) == 6
    rhos = [float(r[4]) for r in rows[1:]]
    for got, want in zip(rhos, [0.04, 0.10, 0.19, 0.36, 0.48]):
        assert got == pytest.approx(want, abs=0.01)


def test_cli_cdf_closed_form():
    code, out = run_cli(["cdf", "--order", "fifo", "--service", "exp(5)", "--rate", "4", "--x", "3", "--format", "csv"])
    assert code == 0
    value = float(list(csv.reader(io.StringIO(out)))[1][2])
    assert value == pytest.approx(1 - 0.8 * math.exp(-3), abs=1e-3)


def test_cli_cdf_stationarity_refusal_exit_3():
    code, _ = run_cli(["cdf", "--order", "fifo", "--service", "exp(9)", "--rate", "16", "--x", "2"])
    assert code == 3


def test_cli_fifo_singularity_exit_2():
    code, _ = run_cli(["wait", "--order", "fifo", "--service", "exp(5)", "--rate", "6", "--s", "1"])
    assert code == 2


@pytest.mark.parametrize("order", ["lifo", "fifo"])
def test_cli_cdf_node_overflow_exit_2(capsys, order):
    code, out = run_cli(["cdf", "--order", order, "--service", "exp(5)", "--rate", "4", "--x", "1e-308"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == (
        "numeric failure: x=1e-308 is too small: its Gaver-Stehfest nodes overflow a double\n"
    )


def test_cli_usage_errors_exit_1():
    for argv in (
        ["wait", "--order", "fifo"],
        ["frobnicate"],
        ["cdf", "--order", "fifo", "--service", "weibull(1)", "--rate", "1", "--x", "1"],
        ["traffic", "--scenario", "/nonexistent.json"],
        ["reproduce", "--tables", "9.9.9"],
        ["reproduce", "--tables", ","],
        ["reproduce", "--tables", ""],
        ["wait", "--order", "lifo", "--service", "exp(5)", "--rate", "nan", "--s", "1"],
        ["wait", "--order", "fifo", "--service", "exp(5)", "--rate", "4", "--s", "inf"],
        ["cdf", "--order", "fifo", "--service", "exp(5)", "--rate", "4", "--x", "nan"],
        # a bad x is reported before the overload is refused
        ["cdf", "--order", "fifo", "--service", "exp(5)", "--rate", "6", "--x", "nan"],
        ["wait", "--order", "fifo", "--service", "erlang1(5)", "--rate", "4", "--s", "1"],
        ["wait", "--order", "fifo", "--service", "exp(inf)", "--rate", "4", "--s", "1"],
        ["wait", "--order", "lifo", "--service", "unif(0,inf)", "--rate", "4", "--s", "1"],
        ["wait", "--order", "lifo", "--service", "gamma3(inf)", "--rate", "4", "--s", "1"],
        ["invert", "--transform", "one_over_s", "--x", "nan"],
        ["invert", "--transform", "one_over_s", "--x", "inf"],
        ["simulate", "--scenario", os.path.join(SCENARIOS, "mm1_fifo.json"), "--grid", "0,nan"],
        ["traffic", "--scenario", os.path.join(SCENARIOS, "mm1_fifo.json")],
        # the waits of 1e17 arrivals need 711 PiB, beyond any address space
        ["simulate", "--scenario", os.path.join(SCENARIOS, "mm1_fifo.json"), "--arrivals", "100000000000000000"],
    ):
        code, _ = run_cli(argv)
        assert code == 1, argv


@pytest.mark.parametrize("text,field", [
    ('{"discipline":"loss","classes":[{"lambda":true,"service":"exp(1)"}]}', "class 1: lambda"),
    ('{"arrival_rate":"4","service":"exp(5)","order":"fifo"}', "arrival_rate"),
])
@pytest.mark.parametrize("command", ["traffic", "simulate"])
def test_cli_scenario_rate_must_be_a_number(tmp_path, capsys, text, field, command):
    path = tmp_path / "scenario.json"
    path.write_text(text)
    code, out = run_cli([command, "--scenario", str(path)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err.startswith("error: %s must be a number, got " % field)


@pytest.mark.parametrize("text,message", [
    ("1\n-2\n", "observations must be finite and >= 0, got -2.0"),
    ("# only a comment\n\n", "observation sample must not be empty"),
])
def test_cli_estimate_errors_name_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "obs.txt"
    path.write_text(text)
    code, out = run_cli(["estimate", "--kind", "arrival", "--file", str(path)])
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: %s: %s\n" % (path, message)


@pytest.mark.parametrize("lams,line", [
    ((1.0, 2.0), "overloaded from class 1 (no class is viable)"),
    ((0.5, 2.0), "overloaded from class 2 (stationary prefix 1..1)"),
])
def test_cli_traffic_names_the_viable_prefix(tmp_path, capsys, lams, line):
    classes = ",".join('{"lambda":%r,"service":"exp(1)"}' % lam for lam in lams)
    path = tmp_path / "scenario.json"
    path.write_text('{"discipline":"resume","classes":[%s]}' % classes)
    code, _ = run_cli(["traffic", "--scenario", str(path)])
    assert code == 0
    assert capsys.readouterr().err == line + "\n"


def test_cli_wait_warns_on_an_overloaded_transform(capsys):
    code, out = run_cli(["wait", "--order", "lifo", "--service", "exp(9)", "--rate", "16", "--s", "1"])
    assert code == 0
    assert out.splitlines()[1].split()[-1] == "false"
    assert capsys.readouterr().err == "warning: traffic coefficient >= 1; transform value is formal\n"


def test_cli_bare_quayside_error_exits_2(monkeypatch, capsys):
    # a QuaysideError of no more specific type is a numeric failure
    def fail(args, out):
        raise QuaysideError("no stationary answer")

    monkeypatch.setattr(cli, "_cmd_wait", fail)
    code, _ = run_cli(["wait", "--order", "fifo", "--service", "exp(5)", "--rate", "4", "--s", "1"])
    assert code == 2
    assert capsys.readouterr().err == "numeric failure: no stationary answer\n"


COMMANDS = ["wait", "cdf", "traffic", "simulate", "estimate", "invert", "reproduce"]


def _help_entries(command, monkeypatch, capsys):
    """{option: its --help entry, with runs of whitespace as one space} of a subcommand."""
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as info:
        run([command, "--help"])
    assert info.value.code == 0
    entries = {}
    for line in capsys.readouterr().out.split("options:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            option = line.split()[0].rstrip(",")
            entries[option] = line
        elif line.startswith("   "):  # a help text wrapped onto its own lines
            entries[option] += line
    return {option: " ".join(entry.split()) for option, entry in entries.items()}


@pytest.mark.parametrize("commands,options", [
    (["wait", "cdf"], ["--order", "--service", "--rate"]),
    (["cdf", "invert"], ["--inv-order"]),
    (["traffic", "simulate"], ["--scenario"]),
    (COMMANDS, ["--format"]),
])
def test_cli_shared_options_read_the_same_in_every_help(commands, options, monkeypatch, capsys):
    helps = [_help_entries(command, monkeypatch, capsys) for command in commands]
    for option in options:
        assert len({h[option] for h in helps}) == 1, [h[option] for h in helps]


def test_cli_unknown_table_message_is_unquoted(capsys):
    code, _ = run_cli(["reproduce", "--tables", "9.9.9"])
    assert code == 1
    assert capsys.readouterr().err == "error: unknown table id '9.9.9'\n"


def _cli_wait(order, service, rate, s):
    code, out = run_cli(["wait", "--order", order, "--service", service, "--rate", rate, "--s", s, "--format", "csv"])
    assert code == 0
    return float(list(csv.reader(io.StringIO(out)))[1][2])


def test_cli_wait_narrow_uniform():
    # unif(1,1+1e-9) is all but deterministic at 1: beta(1) = e^-1 to 9 digits
    w = (1 - 0.5) / (1 - 0.5 + 0.5 * math.exp(-1))
    assert _cli_wait("fifo", "unif(1,1.000000001)", "0.5", "1") == pytest.approx(w, rel=1e-8)
    near = lifo_wait_lst(Uniform(1, 1 + 1e-6), 0.5, 1.0).value
    assert _cli_wait("lifo", "unif(1,1.000000001)", "0.5", "1") == pytest.approx(near, abs=1e-5)


def test_cli_wait_erlang_of_any_order():
    assert _cli_wait("fifo", "erlang4(8)", "1.5", "2") == fifo_wait_lst(Erlang(4, 8.0), 1.5, 2.0).value


def test_cli_wait_csv_round_trip():
    code, out = run_cli(["wait", "--order", "fifo", "--service", "exp(5)", "--rate", "4", "--s", "1", "--format", "csv"])
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    # repr-formatted floats survive the round trip
    assert float(row[2]) == pytest.approx(0.6, rel=1e-12)
    rerun_code, rerun_out = run_cli(["wait", "--order", "fifo", "--service", "exp(5)", "--rate", "4", "--s", "1", "--format", "csv"])
    assert rerun_out == out


def test_cli_invert_catalog():
    code, out = run_cli(["invert", "--transform", "one_over_s", "--x", "5", "--format", "csv"])
    assert code == 0
    assert float(list(csv.reader(io.StringIO(out)))[1][2]) == pytest.approx(1.0, abs=1e-8)
    code, out = run_cli(["invert", "--transform", "one_over_s_plus_1", "--x", "2", "--inv-order", "18", "--format", "csv"])
    assert float(list(csv.reader(io.StringIO(out)))[1][2]) == pytest.approx(math.exp(-2), abs=1e-6)
    # a distribution literal inverts to its density
    code, out = run_cli(["invert", "--transform", "exp(1)", "--x", "1", "--inv-order", "18", "--format", "csv"])
    assert float(list(csv.reader(io.StringIO(out)))[1][2]) == pytest.approx(math.exp(-1), abs=1e-4)


def test_cli_estimate(tmp_path):
    path = tmp_path / "service.txt"
    path.write_text("# durations\n0.1\n0.2\n0.3\n")
    code, out = run_cli(["estimate", "--kind", "service", "--file", str(path), "--format", "csv"])
    assert code == 0
    row = list(csv.reader(io.StringIO(out)))[1]
    assert row[0] == "service_rate"
    assert float(row[1]) == pytest.approx(5.0)
    code, out = run_cli(["estimate", "--kind", "arrival", "--file", str(path), "--format", "csv"])
    assert float(list(csv.reader(io.StringIO(out)))[1][1]) == pytest.approx(0.2)


def test_cli_simulate_deterministic_csv(tmp_path):
    argv = ["simulate", "--scenario", os.path.join(SCENARIOS, "mm1_fifo.json"),
            "--arrivals", "20000", "--seed", "9", "--grid", "0,3", "--format", "csv"]
    code, out = run_cli(argv)
    assert code == 0
    code2, out2 = run_cli(argv)
    assert out2 == out
    rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
    assert float(rows["mean_wait"][1]) == pytest.approx(0.8, abs=0.15)
    assert float(rows["ecdf@3"][1]) == pytest.approx(1 - 0.8 * math.exp(-3), abs=0.05)


def test_cli_simulate_priority_scenario():
    code, out = run_cli(["simulate", "--scenario", os.path.join(SCENARIOS, "table_4_4_1.json"),
                         "--arrivals", "20000", "--seed", "3", "--format", "csv"])
    assert code == 0
    rows = {r[0]: r for r in csv.reader(io.StringIO(out))}
    assert float(rows["utilization_prefix_5"][1]) == pytest.approx(0.49, abs=0.05)
    assert "lost_5" in rows or "lost_4" in rows


def test_cli_simulate_seed_from_environment(monkeypatch, tmp_path):
    # the seed comes from --seed alone: the environment cannot change it
    monkeypatch.setenv("QUAYSIDE_SEED", "123")
    argv = ["simulate", "--scenario", os.path.join(SCENARIOS, "mm1_fifo.json"),
            "--arrivals", "5000", "--format", "csv"]
    _, out_env = run_cli(argv)
    _, out_explicit = run_cli(argv + ["--seed", "0"])
    assert out_env == out_explicit


def test_cli_reproduce_single_tables():
    code, out = run_cli(["reproduce", "--tables", "4.2.4,4.3.1"])
    assert code == 0
    assert "Table 4.2.4" in out and "Table 4.3.1" in out
    assert "errata" in out
    assert "printed 0,4" in out  # the beta erratum
    code2, out2 = run_cli(["reproduce", "--tables", "4.2.4,4.3.1"])
    assert out2 == out


def test_reproduce_accepts_comma_separated_ids():
    assert reproduce("4.2.4,4.3.1") == reproduce(["4.2.4", "4.3.1"])
    tables, _ = reproduce("4.2.4")
    assert [t.table_id for t in tables] == ["4.2.4"]


def test_reproduce_notes_a_printed_w_that_deviates(monkeypatch):
    tables = copy.deepcopy(reference_tables.load_tables())
    row = tables["wait_tables"]["4.1.1"]["rows"][1]
    assert row["w_printed"] == "0,4405438"
    row["w_printed"] = "0,4505438"
    monkeypatch.setattr(reference_tables, "load_tables", lambda: tables)
    (table,), _ = reproduce("4.1.1")
    assert table.annotations == (
        "row 2: w(s) deviates from printed by 0.01",
        "* printed W(x) column is non-normative (inversion method unknown)",
    )


def test_reproduce_rejects_empty_table_list():
    # the CLI cases are in test_cli_usage_errors_exit_1
    with pytest.raises(ValueError, match="no table ids given"):
        reproduce([])


def test_cli_module_entry_point():
    # `python -m quayside.cli`: main() passes run()'s code to sys.exit
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))

    def module_run(*argv):
        return subprocess.run([sys.executable, "-m", "quayside.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    argv = ["wait", "--order", "lifo", "--service", "exp(5)", "--rate", "4", "--s", "1", "--format", "csv"]
    proc = module_run(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(argv)[1]
    proc = module_run("cdf", "--order", "fifo", "--service", "exp(5)", "--rate", "6", "--x", "1")
    assert proc.returncode == 3, proc.stderr
    proc = module_run("frobnicate")
    assert proc.returncode == 1
    assert "usage error" in proc.stderr

"""Command-line interface.

Subcommands: wait, cdf, traffic, simulate, estimate, invert, reproduce.
Exit codes: 0 success, 1 usage error, 2 numeric/convergence failure,
3 stationarity refusal.  Results go to stdout, diagnostics to stderr.
"""

import argparse
import csv
import sys

from .distributions import parse_distribution
from .errors import (
    ConvergenceError,
    InversionError,
    NumericOverflowError,
    QuaysideError,
    ScenarioError,
    SingularityError,
    StationarityError,
)
from .estimation import estimate_arrival_rate, estimate_service_rate, load_observations
from .lst_inversion import DEFAULT_ORDER, InversionSpec, invert
from .reference_tables import reproduce
from .scenario import Mg1Scenario, load_scenario
from .sim_oracle import SimConfig, simulate_mg1, simulate_priority
from .traffic import traffic_coefficients
from .waiting_time import FIFO, LIFO, fifo_wait_lst, lifo_wait_lst, wait_cdf

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_STATIONARITY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    p = _Parser(prog="quayside", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_format(sp):
        sp.add_argument("--format", choices=("text", "csv"), default="text")

    sp = sub.add_parser("wait", help="waiting-time transform w(s)")
    sp.add_argument("--order", choices=(FIFO, LIFO), required=True)
    sp.add_argument("--service", required=True, help="exp(b), unif(lo,hi), erlang<k>(b) for k >= 2, gamma3(b)")
    sp.add_argument("--rate", type=float, required=True, help="Poisson arrival rate")
    sp.add_argument("--s", type=float, required=True, help="transform argument")
    add_format(sp)

    sp = sub.add_parser("cdf", help="waiting-time distribution W(x)")
    sp.add_argument("--order", choices=(FIFO, LIFO), required=True)
    sp.add_argument("--service", required=True)
    sp.add_argument("--rate", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--inv-order", type=int, default=DEFAULT_ORDER, help="Gaver-Stehfest order")
    add_format(sp)

    sp = sub.add_parser("traffic", help="cumulative traffic coefficients")
    sp.add_argument("--scenario", required=True, help="scenario JSON file")
    add_format(sp)

    sp = sub.add_parser("simulate", help="discrete-event simulation oracle")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--arrivals", type=int, default=10**5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", default="", help="comma-separated x values for the wait ECDF")
    add_format(sp)

    sp = sub.add_parser("estimate", help="method-of-moments parameter estimation")
    sp.add_argument("--kind", choices=("arrival", "service"), required=True)
    sp.add_argument("--file", required=True, help="one observation per line, # comments allowed")
    add_format(sp)

    sp = sub.add_parser("invert", help="numerically invert a catalog transform")
    sp.add_argument("--transform", required=True,
                    help="one_over_s, one_over_s_plus_1, or a distribution literal")
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--inv-order", type=int, default=DEFAULT_ORDER)
    add_format(sp)

    sp = sub.add_parser("reproduce", help="recompute the source tables and report errata")
    sp.add_argument("--tables", default="all", help="all, wait, traffic, or comma-separated ids")
    add_format(sp)
    return p


def _emit(rows, header, fmt, out):
    """rows: list of tuples of strings."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
                  for i, h in enumerate(header)]
        out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
        for r in rows:
            out.write("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() + "\n")


def _num(v):
    return repr(float(v))


def _cmd_wait(args, out):
    d = parse_distribution(args.service)
    ev = (lifo_wait_lst if args.order == LIFO else fifo_wait_lst)(d, args.rate, args.s)
    if not ev.stationary:
        print("warning: traffic coefficient >= 1; transform value is formal", file=sys.stderr)
    _emit([(args.order, _num(args.s), _num(ev.value), str(ev.stationary).lower())],
          ("discipline", "s", "w", "stationary"), args.format, out)


def _cmd_cdf(args, out):
    d = parse_distribution(args.service)
    ev = wait_cdf(args.order, d, args.rate, args.x, InversionSpec(order=args.inv_order))
    _emit([(args.order, _num(args.x), _num(ev.value))],
          ("discipline", "x", "W"), args.format, out)


def _cmd_traffic(args, out):
    sc = load_scenario(args.scenario)
    if isinstance(sc, Mg1Scenario):
        raise ScenarioError("traffic needs a priority scenario (discipline + classes)")
    report = traffic_coefficients(sc)
    rows = [
        (str(k), cls.service.literal(), _num(cls.lam), _num(sigma), _num(rho), str(flag).lower())
        for k, (cls, sigma, rho, flag)
        in enumerate(zip(sc.classes, report.sigma, report.rho, report.stationary_flags), start=1)
    ]
    _emit(rows, ("class", "service", "lambda", "sigma", "rho", "stationary"), args.format, out)
    if report.stationary:
        print("stationary: all classes viable", file=sys.stderr)
    elif report.stationary_prefix:
        print("overloaded from class %d (stationary prefix 1..%d)"
              % (report.first_overloaded_class, report.stationary_prefix), file=sys.stderr)
    else:
        print("overloaded from class 1 (no class is viable)", file=sys.stderr)


def _cmd_simulate(args, out):
    sc = load_scenario(args.scenario)
    grid = tuple(float(v) for v in args.grid.split(",") if v.strip())
    cfg = SimConfig(seed=args.seed, total_arrivals=args.arrivals, ecdf_grid=grid)
    if isinstance(sc, Mg1Scenario):
        res = simulate_mg1(sc.service, sc.arrival_rate, sc.order, cfg)
    else:
        res = simulate_priority(sc, cfg)
    rows = [("mean_wait", _num(res.mean_wait), _num(res.ci_half_width))]
    for x, v in zip(cfg.ecdf_grid, res.ecdf):
        rows.append(("ecdf@%g" % x, _num(v), ""))
    for k, u in enumerate(res.utilization_prefix, start=1):
        rows.append(("utilization_prefix_%d" % k, _num(u), ""))
    for k, (done, lost) in enumerate(zip(res.completed, res.lost), start=1):
        rows.append(("completed_%d" % k, str(done), ""))
        if lost:
            rows.append(("lost_%d" % k, str(lost), ""))
    rows.append(("idle_at_arrival", _num(res.idle_at_arrival), ""))
    _emit(rows, ("metric", "value", "ci_half_width"), args.format, out)


# --kind -> (parameter label, estimator)
_ESTIMATORS = {
    "arrival": ("arrival_rate", estimate_arrival_rate),
    "service": ("service_rate", estimate_service_rate),
}


def _cmd_estimate(args, out):
    label, estimator = _ESTIMATORS[args.kind]
    sample = load_observations(args.file)
    _emit([(label, _num(estimator(sample)), str(len(sample.values)))],
          ("parameter", "estimate", "n"), args.format, out)


_CATALOG = {
    "one_over_s": lambda s: 1.0 / s,
    "one_over_s_plus_1": lambda s: 1.0 / (s + 1.0),
}


def _cmd_invert(args, out):
    name = args.transform.strip()
    fn = _CATALOG[name] if name in _CATALOG else parse_distribution(name).lst
    value = invert(fn, args.x, InversionSpec(order=args.inv_order))
    _emit([(name, _num(args.x), _num(value))], ("transform", "x", "value"), args.format, out)


def _cmd_reproduce(args, out):
    tables, errata = reproduce(args.tables)
    for table in tables:
        if args.format == "csv":
            # the ("table", id) pair heads each table's block of rows
            _emit([table.headers, *table.rows], ("table", table.table_id), "csv", out)
        else:
            out.write("Table %s\n" % table.table_id)
            _emit(list(table.rows), table.headers, "text", out)
            for note in table.annotations:
                out.write("  note: %s\n" % note)
        out.write("\n")
    out.write("errata: %d cell(s) flagged\n" % len(errata))
    for cell in errata:
        out.write("  table %s row %d %s: printed %s, recomputed %.6g\n"
                  % (cell.table_id, cell.row, cell.column, cell.printed, cell.recomputed))


_COMMANDS = {
    "wait": _cmd_wait,
    "cdf": _cmd_cdf,
    "traffic": _cmd_traffic,
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "invert": _cmd_invert,
    "reproduce": _cmd_reproduce,
}


def run(argv, out=None):
    """Execute the CLI; returns the process exit code."""
    out = out or sys.stdout
    try:
        args = _build_parser().parse_args(argv)
        _COMMANDS[args.command](args, out)
        return EXIT_OK
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except KeyError as exc:  # str() of a KeyError is the repr of its message
        print("error: %s" % exc.args[0], file=sys.stderr)
        return EXIT_USAGE
    except (ScenarioError, ValueError, OSError, MemoryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except StationarityError as exc:
        print("stationarity refusal: %s" % exc, file=sys.stderr)
        return EXIT_STATIONARITY
    except (ConvergenceError, SingularityError, InversionError, NumericOverflowError) as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC
    except QuaysideError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

"""Inputs of the quayside benchmark.

The sweeps evaluate fixed grids, because every point needs a 30-digit
reference computed ahead of time (``reference.py``); the workload seed
sets the order in which the points are evaluated.  The simulation and
CLI workloads draw their inputs from the seed directly.

This module imports nothing from quayside, so that ``reference.py`` can
use it to regenerate the reference values.
"""

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))

# ------------------------------------------------------------ sweep-paper

# One law per family; the arrival rates put rho at 0.5, 0.6, 0.7 and 0.8,
# the loads of the stationary rows of the printed tables.
PAPER_CONFIGS = tuple(
    (literal, a)
    for literal, rates in (
        ("exp(5)", (2.5, 3.0, 3.5, 4.0)),
        ("unif(1,3)", (0.25, 0.3, 0.35, 0.4)),
        ("erlang2(4)", (1.0, 1.2, 1.4, 1.6)),
        ("gamma3(6)", (1.0, 1.2, 1.4, 1.6)),
    )
    for a in rates
)
PAPER_S = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)
PAPER_X = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0)
PAPER_ORDERS = (14,)
PAPER_REPRODUCE_ORDER = 14

# ------------------------------------------------------------- sweep-edge

# M/M/1 near saturation, plus the three laws the known faults were found on.
EDGE_LST_CONFIGS = (
    ("exp(1)", 0.95),
    ("exp(1)", 0.99),
    ("exp(1)", 0.999),
    ("exp(5)", 4.0),
    ("unif(0.05,0.2)", 4.0),
    ("erlang2(20)", 4.0),
)
EDGE_S = (1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14, 1e-15)
EDGE_CDF_CONFIGS = tuple(("exp(1)", a) for a in (0.5, 0.95, 0.99, 0.999))
EDGE_X = (10.0, 100.0, 1000.0, 10000.0)
EDGE_ORDERS = (14, 18, 20)
EDGE_REPRODUCE_ORDER = 20
EDGE_TRAFFIC_TARGETS = (0.95, 0.99, 0.999)

# ---------------------------------------------------------------- traffic

DISCIPLINES = ("resume", "loss", "repeat")
_TABLES_FILE = os.path.join(HERE, "..", "src", "quayside", "data", "reference_tables.json")


def _literal(family, row):
    if family == "unif":
        return "unif(%g,%g)" % (row["lo"], row["hi"])
    return "%s(%g)" % (family, row["b"])


def printed_tables():
    """The printed tables' inputs, read from the data file quayside ships."""
    with open(_TABLES_FILE) as fh:
        return json.load(fh)


def table_traffic_scenarios():
    """{table id: (discipline, [(lambda, literal), ...])} for every traffic table."""
    out = {}
    for tid, spec in printed_tables()["traffic_tables"].items():
        classes = [(row["lambda"], _literal(spec["service_family"], row)) for row in spec["rows"]]
        out[tid] = (spec["discipline"], classes)
    return out


def edge_traffic_scenarios():
    """Table 4.3.1's classes with arrival rates scaled so resume rho_5 hits each target."""
    rows = printed_tables()["traffic_tables"]["4.3.1"]["rows"]  # exponential classes
    base_rho = sum(row["lambda"] / row["b"] for row in rows)
    out = {}
    for target in EDGE_TRAFFIC_TARGETS:
        scale = target / base_rho
        classes = [(row["lambda"] * scale, _literal("exp", row)) for row in rows]
        for discipline in DISCIPLINES:
            out["edge-%s-%g" % (discipline, target)] = (discipline, classes)
    return out


def wait_table_rows():
    """(table id, discipline, literal, a, s) for every row of the printed wait tables."""
    out = []
    for tid, spec in sorted(printed_tables()["wait_tables"].items()):
        for row in spec["rows"]:
            out.append((tid, spec["discipline"], _literal(spec["service_family"], row),
                        float(row["a"]), float(row["s"])))
    return out


# ------------------------------------------------------------------- grids


def sweep_grid(name):
    """(lst points, cdf points) of a sweep.

    lst point: (discipline, literal, a, s); cdf point: (discipline, literal, a, x, order).
    """
    if name == "paper":
        lst = [(disc, lit, a, s) for disc in ("fifo", "lifo")
               for lit, a in PAPER_CONFIGS for s in PAPER_S]
        cdf = [(disc, lit, a, x, order) for disc in ("fifo", "lifo")
               for lit, a in PAPER_CONFIGS for x in PAPER_X for order in PAPER_ORDERS]
    elif name == "edge":
        lst = [(disc, lit, a, s) for disc in ("fifo", "lifo")
               for lit, a in EDGE_LST_CONFIGS for s in EDGE_S]
        cdf = [(disc, lit, a, x, order) for disc in ("fifo", "lifo")
               for lit, a in EDGE_CDF_CONFIGS for x in EDGE_X for order in EDGE_ORDERS]
    else:
        raise ValueError(name)
    return lst, cdf


def reference_points():
    """Every (kind, discipline, literal, a, point) the benchmark looks up."""
    points = set()
    for name in ("paper", "edge"):
        lst, cdf = sweep_grid(name)
        points.update(("lst", d, lit, a, s) for d, lit, a, s in lst)
        points.update(("cdf", d, lit, a, x) for d, lit, a, x, _ in cdf)
    points.update(("lst", d, lit, a, s) for _, d, lit, a, s in wait_table_rows())
    return sorted(points)


def traffic_scenarios():
    out = table_traffic_scenarios()
    out.update(edge_traffic_scenarios())
    return out

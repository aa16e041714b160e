"""Stored source-table values and the recomputation / errata engine.

The source document prints its numbers with decimal commas; the data
file keeps every printed cell verbatim (comma form) so the audit runs
against the tables as published.  Recomputed values come straight from
the formulas; each printed cell is then classified:

* MATCH     |delta| <= 0.02   (agrees up to the source's 2-decimal rounding)
* ROUNDING  |delta| <= 0.05   (explainable by rounding intermediates)
* ERRATUM   |delta| >  0.05   (genuine discrepancy; recomputed value attached)
"""

import json
from dataclasses import dataclass
from importlib import resources
from typing import Tuple

from .distributions import LAWS
from .traffic import PriorityClass, PriorityScenario, traffic_coefficients

__all__ = [
    "MATCH",
    "ROUNDING",
    "ERRATUM",
    "CellCheck",
    "TableErrata",
    "load_tables",
    "wait_table_ids",
    "traffic_table_ids",
    "wait_table",
    "traffic_scenario",
    "recompute_table",
    "parse_printed",
]

MATCH = "MATCH"
ROUNDING = "ROUNDING"
ERRATUM = "ERRATUM"

MATCH_TOL = 0.02
ROUNDING_TOL = 0.05


def parse_printed(text):
    """Decimal-comma string as printed -> float."""
    return float(text.replace(",", "."))


def _load_raw():
    with resources.files("quayside.data").joinpath("reference_tables.json").open() as fh:
        return json.load(fh)


_RAW = None


def load_tables():
    global _RAW
    if _RAW is None:
        _RAW = _load_raw()
    return _RAW


def wait_table_ids():
    return sorted(load_tables()["wait_tables"])


def traffic_table_ids():
    return sorted(load_tables()["traffic_tables"])


def _row_distribution(family, row):
    law, params = LAWS[family]
    return law(*(row[p] for p in params))


def wait_table(table_id):
    """(discipline, rows) where each row carries the built distribution."""
    tables = load_tables()["wait_tables"]
    if table_id not in tables:
        raise KeyError("unknown wait table %r" % (table_id,))
    spec = tables[table_id]
    rows = []
    for row in spec["rows"]:
        rows.append(dict(row, service=_row_distribution(spec["service_family"], row)))
    return spec["discipline"], rows


def traffic_scenario(table_id):
    """PriorityScenario reconstructed from a traffic table's inputs."""
    tables = load_tables()["traffic_tables"]
    if table_id not in tables:
        raise KeyError("unknown traffic table %r" % (table_id,))
    spec = tables[table_id]
    classes = [
        PriorityClass(row["lambda"], _row_distribution(spec["service_family"], row))
        for row in spec["rows"]
    ]
    return PriorityScenario(tuple(classes), spec["discipline"])


@dataclass(frozen=True)
class CellCheck:
    table_id: str
    row: int                  # 1-based class index
    column: str               # "beta1", "sigma" or "rho"
    printed: str              # original decimal-comma string
    printed_value: float
    recomputed: float
    delta: float
    status: str


@dataclass(frozen=True)
class TableErrata:
    table_id: str
    cells: Tuple[CellCheck, ...]

    @property
    def errata(self):
        return tuple(c for c in self.cells if c.status == ERRATUM)


def _classify(delta):
    if abs(delta) <= MATCH_TOL:
        return MATCH
    if abs(delta) <= ROUNDING_TOL:
        return ROUNDING
    return ERRATUM


def recompute_table(table_id):
    """Recompute every printed cell of a traffic table and classify it."""
    tables = load_tables()["traffic_tables"]
    if table_id not in tables:
        raise KeyError("unknown traffic table %r" % (table_id,))
    spec = tables[table_id]
    sc = traffic_scenario(table_id)
    report = traffic_coefficients(sc)

    cells = []
    for i, row in enumerate(spec["rows"]):
        k = i + 1
        if "beta1_printed" in row:
            exact = sc.classes[i].service.moment1()
            cells.append(_cell(table_id, k, "beta1", row["beta1_printed"], exact))
        if "sigma_printed" in row:
            cells.append(_cell(table_id, k, "sigma", row["sigma_printed"], report.sigma[i]))
        cells.append(_cell(table_id, k, "rho", row["rho_printed"], report.rho[i]))
    return TableErrata(table_id=table_id, cells=tuple(cells))


def _cell(table_id, k, column, printed, recomputed):
    value = parse_printed(printed)
    delta = value - recomputed
    return CellCheck(
        table_id=table_id,
        row=k,
        column=column,
        printed=printed,
        printed_value=value,
        recomputed=recomputed,
        delta=delta,
        status=_classify(delta),
    )

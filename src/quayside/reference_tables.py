"""The source document's tables: stored values, recomputation, errata
classification, and rendering beside the printed values.

The source document prints its numbers with decimal commas; the data
file keeps every printed cell verbatim (comma form) so the audit runs
against the tables as published.  Recomputed values come straight from
the formulas; each printed cell of a traffic table is then classified:

* MATCH     |delta| <= 0.02   (agrees up to the source's 2-decimal rounding)
* ROUNDING  |delta| <= 0.05   (explainable by rounding intermediates)
* ERRATUM   |delta| >  0.05   (genuine discrepancy; recomputed value attached)

Waiting-time tables show our w(s) next to the printed one.  The printed
W(x) columns are shown only for inspection: no inversion we know of
reproduces them and they conflict with closed-form CDFs, so our W(x) is
computed independently (and only where the queue is stationary).
"""

import functools
import json
from importlib import resources
from typing import NamedTuple, Tuple

from .distributions import _law_named
from .errors import StationarityError
from .lst_inversion import InversionSpec
from .traffic import LIFO, PriorityClass, PriorityScenario, traffic_coefficients
from .waiting_time import fifo_wait_lst, lifo_wait_lst, wait_cdf

__all__ = [
    "MATCH",
    "ROUNDING",
    "ERRATUM",
    "CellCheck",
    "TableErrata",
    "RenderedTable",
    "load_tables",
    "wait_table_ids",
    "traffic_table_ids",
    "wait_table",
    "traffic_scenario",
    "recompute_table",
    "parse_printed",
    "reproduce",
]

MATCH = "MATCH"
ROUNDING = "ROUNDING"
ERRATUM = "ERRATUM"

MATCH_TOL = 0.02
ROUNDING_TOL = 0.05


def parse_printed(text):
    """Decimal-comma string as printed -> float."""
    return float(text.replace(",", "."))


@functools.cache
def load_tables():
    with resources.files("quayside.data").joinpath("reference_tables.json").open() as fh:
        return json.load(fh)


def wait_table_ids():
    return sorted(load_tables()["wait_tables"])


def traffic_table_ids():
    return sorted(load_tables()["traffic_tables"])


def _table(kind, table_id):
    """A stored table's spec and the service law of each of its rows;
    `kind` is "wait" or "traffic"."""
    tables = load_tables()[kind + "_tables"]
    if table_id not in tables:
        raise KeyError("unknown %s table %r" % (kind, table_id))
    spec = tables[table_id]
    law, params = _law_named(spec["service_family"])
    return spec, [law(*(row[p] for p in params)) for row in spec["rows"]]


def wait_table(table_id):
    """(discipline, rows) where each row carries the built distribution."""
    spec, laws = _table("wait", table_id)
    return spec["discipline"], [dict(row, service=d) for row, d in zip(spec["rows"], laws)]


def _scenario(spec, laws):
    classes = [PriorityClass(row["lambda"], d) for row, d in zip(spec["rows"], laws)]
    return PriorityScenario(tuple(classes), spec["discipline"])


def traffic_scenario(table_id):
    """PriorityScenario reconstructed from a traffic table's inputs."""
    return _scenario(*_table("traffic", table_id))


class CellCheck(NamedTuple):
    table_id: str
    row: int                  # 1-based class index
    column: str               # "beta1", "sigma" or "rho"
    printed: str              # original decimal-comma string
    recomputed: float
    delta: float              # parse_printed(printed) - recomputed
    status: str


class TableErrata(NamedTuple):
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


def _recompute_rows(table_id):
    """Each row of a traffic table as (law, lambda, recomputed cells); the
    cells run beta1 or sigma (where printed), then rho."""
    spec, laws = _table("traffic", table_id)
    report = traffic_coefficients(_scenario(spec, laws))
    out = []
    for k, (row, d) in enumerate(zip(spec["rows"], laws), start=1):
        cells = []
        if "beta1_printed" in row:
            cells.append(_cell(table_id, k, "beta1", row["beta1_printed"], d.moment1()))
        if "sigma_printed" in row:
            cells.append(_cell(table_id, k, "sigma", row["sigma_printed"], report.sigma[k - 1]))
        cells.append(_cell(table_id, k, "rho", row["rho_printed"], report.rho[k - 1]))
        out.append((d, row["lambda"], cells))
    return out


def recompute_table(table_id):
    """Recompute every printed cell of a traffic table and classify it."""
    return TableErrata(tuple(c for _, _, row in _recompute_rows(table_id) for c in row))


def _cell(table_id, k, column, printed, recomputed):
    delta = parse_printed(printed) - recomputed
    return CellCheck(table_id, k, column, printed, recomputed, delta, _classify(delta))


class RenderedTable(NamedTuple):
    table_id: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]
    annotations: Tuple[str, ...] = ()


def _fmt(value):
    return "%.6g" % value


def _render_wait_table(table_id, inv):
    discipline, rows = wait_table(table_id)
    wait_lst = lifo_wait_lst if discipline == LIFO else fifo_wait_lst
    headers = ("k", "inputs", "w(s) ours", "w(s) printed", "W(x) ours", "W(x) printed*")
    out_rows = []
    notes = []
    for i, row in enumerate(rows, start=1):
        d = row["service"]
        a, s, x = row["a"], row["s"], row["x"]
        ev = wait_lst(d, a, s)
        try:
            w_x = _fmt(wait_cdf(discipline, d, a, x, inv).value)
        except StationarityError:
            w_x = "n/a (non-stationary)"
        out_rows.append((
            str(i),
            "%s a=%g s=%g x=%g" % (d.literal(), a, s, x),
            _fmt(ev.value),
            row["w_printed"],
            w_x,
            row["W_printed"],
        ))
        delta = abs(ev.value - parse_printed(row["w_printed"]))
        if delta > 1e-3:
            notes.append("row %d: w(s) deviates from printed by %.2g" % (i, delta))
    notes.append("* printed W(x) column is non-normative (inversion method unknown)")
    return RenderedTable(table_id, headers, tuple(out_rows), tuple(notes))


def _render_traffic_table(table_id):
    headers = ("k", "service", "lambda", "sigma/beta1 ours", "printed", "rho ours", "rho printed", "status")
    out_rows = []
    errata = []
    for k, (d, lam, cells) in enumerate(_recompute_rows(table_id), start=1):
        *aux, rho = cells
        flagged = [c for c in cells if c.status == ERRATUM]
        errata.extend(flagged)
        out_rows.append((
            str(k),
            d.literal(),
            "%g" % lam,
            _fmt(aux[0].recomputed) if aux else "",
            aux[0].printed if aux else "",
            _fmt(rho.recomputed),
            rho.printed,
            ERRATUM if flagged else rho.status,
        ))
    notes = tuple(
        "row %d %s: printed %s but recomputed %.6g (delta %.3g)"
        % (c.row, c.column, c.printed, c.recomputed, c.delta)
        for c in errata
    )
    return RenderedTable(table_id, headers, tuple(out_rows), notes), errata


def reproduce(table_ids="all", inv=InversionSpec()):
    """Render the requested tables; returns (tables, erratum cells).

    `table_ids` may be "all", "traffic", "wait", comma-separated ids such
    as "4.2.4,4.3.1", or an iterable of ids.
    """
    groups = {"wait": wait_table_ids(), "traffic": traffic_table_ids()}
    groups["all"] = groups["wait"] + groups["traffic"]
    if not isinstance(table_ids, str):
        ids = list(table_ids)
    elif table_ids in groups:
        ids = groups[table_ids]
    else:
        ids = [t.strip() for t in table_ids.split(",") if t.strip()]
    if not ids:
        raise ValueError("no table ids given")

    tables = []
    errata = []
    for tid in ids:
        if tid in groups["wait"]:
            tables.append(_render_wait_table(tid, inv))
        elif tid in groups["traffic"]:
            table, errs = _render_traffic_table(tid)
            tables.append(table)
            errata.extend(errs)
        else:
            raise KeyError("unknown table id %r" % (tid,))
    return tables, errata

"""Recompute the source document's tables and render them side by side.

Waiting-time tables show our w(s) next to the printed one.  The printed
W(x) columns are shown only for inspection: no inversion we know of
reproduces them and they conflict with closed-form CDFs, so our W(x) is
computed independently (and only where the queue is stationary).
Traffic tables go through the errata engine in reference_tables.
"""

from dataclasses import dataclass
from typing import Tuple

from . import reference_tables
from .errors import StationarityError
from .lst_inversion import InversionSpec
from .reference_tables import ERRATUM, parse_printed, recompute_table
from .waiting_time import LIFO, fifo_wait_lst, lifo_wait_lst, wait_cdf

__all__ = ["RenderedTable", "reproduce", "all_table_ids"]


@dataclass(frozen=True)
class RenderedTable:
    table_id: str
    headers: Tuple[str, ...]
    rows: Tuple[Tuple[str, ...], ...]
    annotations: Tuple[str, ...] = ()


def all_table_ids():
    return reference_tables.wait_table_ids() + reference_tables.traffic_table_ids()


def _fmt(value):
    return "%.6g" % value


def _render_wait_table(table_id, inv=InversionSpec()):
    discipline, rows = reference_tables.wait_table(table_id)
    headers = ("k", "inputs", "w(s) ours", "w(s) printed", "W(x) ours", "W(x) printed*")
    out_rows = []
    notes = []
    for i, row in enumerate(rows, start=1):
        d = row["service"]
        a, s, x = row["a"], row["s"], row["x"]
        if discipline == LIFO:
            ev = lifo_wait_lst(d, a, s)
        else:
            ev = fifo_wait_lst(d, a, s)
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
    errata = recompute_table(table_id)
    classes = reference_tables.traffic_scenario(table_id).classes
    by_row = {}
    for cell in errata.cells:
        by_row.setdefault(cell.row, {})[cell.column] = cell
    headers = ("k", "service", "lambda", "sigma/beta1 ours", "printed", "rho ours", "rho printed", "status")
    out_rows = []
    notes = []
    for i, cls in enumerate(classes, start=1):
        cells = by_row[i]
        aux = cells.get("beta1") or cells.get("sigma")
        rho = cells["rho"]
        status = rho.status if aux is None or aux.status != ERRATUM else ERRATUM
        out_rows.append((
            str(i),
            cls.service.literal(),
            "%g" % cls.lam,
            _fmt(aux.recomputed) if aux else "",
            aux.printed if aux else "",
            _fmt(rho.recomputed),
            rho.printed,
            status,
        ))
    for cell in errata.errata:
        notes.append(
            "row %d %s: printed %s but recomputed %.6g (delta %.3g)"
            % (cell.row, cell.column, cell.printed, cell.recomputed, cell.delta)
        )
    return RenderedTable(table_id, headers, tuple(out_rows), tuple(notes)), list(errata.errata)


def reproduce(table_ids="all", inv=InversionSpec()):
    """Render the requested tables; returns (tables, erratum cells).

    `table_ids` may be "all", "traffic", "wait", comma-separated ids such
    as "4.2.4,4.3.1", or an iterable of ids.
    """
    if table_ids == "all":
        ids = all_table_ids()
    elif table_ids == "traffic":
        ids = reference_tables.traffic_table_ids()
    elif table_ids == "wait":
        ids = reference_tables.wait_table_ids()
    elif isinstance(table_ids, str):
        ids = [t.strip() for t in table_ids.split(",") if t.strip()]
    else:
        ids = list(table_ids)

    wait_ids = set(reference_tables.wait_table_ids())
    traffic_ids = set(reference_tables.traffic_table_ids())
    tables = []
    errata = []
    for tid in ids:
        if tid in wait_ids:
            tables.append(_render_wait_table(tid, inv))
        elif tid in traffic_ids:
            table, errs = _render_traffic_table(tid)
            tables.append(table)
            errata.extend(errs)
        else:
            raise KeyError("unknown table id %r" % (tid,))
    return tables, errata

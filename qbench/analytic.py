"""The sweeps: transforms, CDFs, traffic coefficients and table reproduction.

One round calls every point of the sweep's grid once, batch by batch in
the order the seed shuffled them, and checks every output against the
reference values or the properties the method must have.
"""

from time import perf_counter

from quayside import (
    InversionSpec,
    PriorityClass,
    PriorityScenario,
    busy_period_lst,
    fifo_wait_lst,
    invert,
    lifo_wait_lst,
    parse_distribution,
    reproduce,
    traffic_coefficients,
    wait_cdf,
)
from quayside.reference_tables import traffic_scenario, traffic_table_ids

import inputs
import reference
from common import cdf_fault, digits, lst_fault, median
from spans import Counted

LST_TOL = 1e-3          # loosest transform tolerance of acceptance criterion 2
CDF_TOL = 1e-3          # CDF closed-form tolerance of acceptance criterion 5
MONOTONE_TOL = 2 * CDF_TOL  # two neighbours may each be off by CDF_TOL
TRAFFIC_TOL = 1e-9
TABLE_W_TOL = 1e-5      # the rendered w(s) column carries 6 significant digits

BATCHES = ("fifo_lst", "lifo_lst", "fifo_cdf", "lifo_cdf", "reproduce")


class Sweep:
    def __init__(self, run, name):
        self.run = run
        tracer = run.tracer
        laws = {}

        def law(literal):
            if literal not in laws:
                d = parse_distribution(literal)
                laws[literal] = Counted(d, tracer) if tracer is not None else d
            return laws[literal]

        lst_points, cdf_points = inputs.sweep_grid(name)
        self.lst = {"fifo": [], "lifo": []}
        for disc, lit, a, s in lst_points:
            self.lst[disc].append((lit, law(lit), a, s))
        self.cdf = {"fifo": [], "lifo": []}
        for disc, lit, a, x, order in cdf_points:
            self.cdf[disc].append((lit, law(lit), a, x, order, InversionSpec(order=order)))

        if name == "paper":
            self.traffic = [(tid, traffic_scenario(tid)) for tid in traffic_table_ids()]
            self.reproduce_order = inputs.PAPER_REPRODUCE_ORDER
        else:
            self.traffic = [
                (key, PriorityScenario(tuple(PriorityClass(lam, law(lit)) for lam, lit in classes), disc))
                for key, (disc, classes) in sorted(inputs.edge_traffic_scenarios().items())
            ]
            self.reproduce_order = inputs.EDGE_REPRODUCE_ORDER
        self.reproduce_spec = InversionSpec(order=self.reproduce_order)
        self.table_refs = wait_table_refs(run.refs)

        rng = run.rng("sweep-" + name)
        for ops in (*self.lst.values(), *self.cdf.values(), self.traffic):
            rng.shuffle(ops)

        self.times = {b: [] for b in BATCHES}
        self.errors = {"fifo_lst": [], "lifo_lst": [], "fifo_cdf": [], "lifo_cdf": []}
        self.round_times = []

    # -------------------------------------------------------------- a round

    def steps(self):
        return [self.round]

    def round(self):
        run = self.run
        call = run.call
        out = {}
        for disc, fn in (("fifo", fifo_wait_lst), ("lifo", lifo_wait_lst)):
            name = disc + "_wait_lst"
            t0 = perf_counter()
            out[disc + "_lst"] = [call(name, fn, d, a, s) for _, d, a, s in self.lst[disc]]
            self.times[disc + "_lst"].append(perf_counter() - t0)
        for disc in ("fifo", "lifo"):
            name = disc + "_wait_cdf"
            t0 = perf_counter()
            out[disc + "_cdf"] = [call(name, wait_cdf, disc, d, a, x, spec)
                                  for _, d, a, x, _, spec in self.cdf[disc]]
            self.times[disc + "_cdf"].append(perf_counter() - t0)
        out["traffic"] = [call("traffic_coefficients", traffic_coefficients, sc) for _, sc in self.traffic]
        t0 = perf_counter()
        out["reproduce"] = call("reproduce", reproduce, "all", self.reproduce_spec)
        self.times["reproduce"].append(perf_counter() - t0)
        self._check(out)

    # ---------------------------------------------------------------- checks

    def _check(self, out):
        run = self.run
        values = run.refs["values"]
        for disc in ("fifo", "lifo"):
            errors = []
            for (lit, d, a, s), got in zip(self.lst[disc], out[disc + "_lst"]):
                ref = values[reference.key("lst", disc, lit, a, s)]
                problems, err = [], None
                if isinstance(got, Exception):
                    problems.append("raised %s" % type(got).__name__)
                else:
                    v = got.value
                    err = abs(v - ref)
                    if a * d.moment1() < 1 and not 0.0 <= v <= 1.0:
                        problems.append("w(s)=%r outside [0, 1]" % v)
                    if not err <= LST_TOL:
                        problems.append("|w(s) - ref| = %.3g" % err)
                label = "%s w(%g) %s a=%g" % (disc, s, lit, a)
                if run.check(label, problems, lst_fault(disc, s)):
                    errors.append(err)
            self.errors[disc + "_lst"] = errors

            errors = []
            by_curve = {}
            for (lit, d, a, x, order, _), got in zip(self.cdf[disc], out[disc + "_cdf"]):
                ref = values[reference.key("cdf", disc, lit, a, x)]
                problems, err = [], None
                if isinstance(got, Exception):
                    problems.append("raised %s" % type(got).__name__)
                else:
                    v = got.value
                    err = abs(v - ref)
                    # wait_cdf clamps W(x) to [0, 1]: this holds unless the clamp goes
                    if not 0.0 <= v <= 1.0:
                        problems.append("W(x)=%r outside [0, 1]" % v)
                    if not err <= CDF_TOL:
                        problems.append("|W(x) - ref| = %.3g" % err)
                    by_curve.setdefault((lit, a, order), []).append((x, v, err))
                label = "%s W(%g) %s a=%g order %d" % (disc, x, lit, a, order)
                if run.check(label, problems, cdf_fault(disc, lit, x, order)):
                    errors.append(err)
            self.errors[disc + "_cdf"] = errors
            for (lit, a, order), pts in by_curve.items():
                # only points that are themselves within tolerance can witness non-monotonicity
                pts = sorted(p for p in pts if p[2] <= CDF_TOL)
                for (x0, v0, _), (x1, v1, _) in zip(pts, pts[1:]):
                    if v1 < v0 - MONOTONE_TOL:
                        run.unexpected.append("%s W %s a=%g order %d decreases from x=%g to x=%g"
                                              % (disc, lit, a, order, x0, x1))

        rho_refs = run.refs["traffic_rho"]
        for (key, _), got in zip(self.traffic, out["traffic"]):
            problems = []
            if isinstance(got, Exception):
                problems.append("raised %s" % type(got).__name__)
            else:
                for k, (v, ref) in enumerate(zip(got.rho, rho_refs[key]), start=1):
                    if abs(v - ref) > TRAFFIC_TOL * max(1.0, abs(ref)):
                        problems.append("rho_%d=%r, reference %r" % (k, v, ref))
            run.check("traffic %s" % key, problems)

        run.check("reproduce all (order %d)" % self.reproduce_order,
                  check_reproduce(run.refs, self.table_refs, out["reproduce"]))

    # --------------------------------------------------------------- metrics

    def metrics(self):
        out = {}
        for disc in ("fifo", "lifo"):
            for kind, points in (("lst", self.lst[disc]), ("cdf", self.cdf[disc])):
                batch = "%s_%s" % (disc, kind)
                out[batch + "_per_s"] = (len(points) / median(self.times[batch]), "1/s")
        out["fifo_cdf_digits"] = (min(map(digits, self.errors["fifo_cdf"])), "digits")
        out["lifo_cdf_digits"] = (min(map(digits, self.errors["lifo_cdf"])), "digits")
        out["lst_digits"] = (min(map(digits, self.errors["fifo_lst"] + self.errors["lifo_lst"])), "digits")
        out["reproduce_all_s"] = (median(self.times["reproduce"]), "s")
        return out

    def layer_metrics(self):
        """Per-layer numbers from the spans of the traced rounds and from direct calls."""
        tracer = self.run.tracer
        out = {}
        for disc in ("fifo", "lifo"):
            for kind in ("lst", "cdf"):
                spans = tracer.named("%s_wait_%s" % (disc, kind))
                out["waiting_time.%s_%s_us" % (disc, kind)] = (
                    median(s["end"] - s["start"] for s in spans) * 1e6, "us")
        cdf_spans = tracer.named("fifo_wait_cdf") + tracer.named("lifo_wait_cdf")
        cdf_time = sum(s["end"] - s["start"] for s in cdf_spans)
        out["waiting_time.cdf_self_share"] = (1.0 - sum(s["lst_s"] for s in cdf_spans) / cdf_time, "ratio")
        out["distributions.lst_calls_per_cdf"] = (
            sum(s["lst_calls"] for s in cdf_spans) / len(cdf_spans), "count")
        fifo_cdf = tracer.named("fifo_wait_cdf")
        out["lst_inversion.transform_calls_per_invert"] = (
            sum(s["lst_calls"] for s in fifo_cdf) / len(fifo_cdf), "count")
        out["traffic.coefficients_us"] = (
            median(s["end"] - s["start"] for s in tracer.named("traffic_coefficients")) * 1e6, "us")
        out.update(self._direct_layer_metrics())
        return out

    def _direct_layer_metrics(self):
        out = {}
        # distribution transforms on the sweep's own (law, s) points, untraced laws
        pairs = [(parse_distribution(lit), s) for disc in ("fifo", "lifo") for lit, _, _, s in self.lst[disc]]
        reps = max(1, 20000 // len(pairs))
        t0 = perf_counter()
        for _ in range(reps):
            for d, s in pairs:
                d.lst(s)
        out["distributions.lst_ns"] = ((perf_counter() - t0) / (reps * len(pairs)) * 1e9, "ns")

        # Kendall solves on the sweep's LIFO points; error against the M/M/1 quadratic root
        iters, times, errs = [], [], []
        for lit, _, a, s in self.lst["lifo"]:
            d = parse_distribution(lit)
            t0 = perf_counter()
            sol = busy_period_lst(d, a, s)
            times.append(perf_counter() - t0)
            iters.append(sol.iterations)
            if lit.startswith("exp("):
                with reference.mp.workdps(reference.LST_DPS):
                    exact = float(reference.mm1_busy_lst(a, d.rate, s))
                errs.append(abs(sol.value - exact))
        out["busy_period.iterations_median"] = (median(iters), "count")
        out["busy_period.iterations_max"] = (max(iters), "count")
        out["busy_period.solve_us"] = (median(times) * 1e6, "us")
        out["busy_period.error_max"] = (max(errs), "abs_error")

        # the inversion sum alone, on 1/(s+1), at the sweep's points and orders
        one = lambda s: 1.0 / (s + 1.0)
        points = sorted({(x, order) for disc in ("fifo", "lifo") for _, _, _, x, order, _ in self.cdf[disc]})
        times = []
        for _ in range(max(1, 2000 // len(points))):
            for x, order in points:
                spec = InversionSpec(order=order)
                t0 = perf_counter()
                invert(one, x, spec)
                times.append(perf_counter() - t0)
        out["lst_inversion.invert_us"] = (median(times) * 1e6, "us")

        # the two halves of reproduce("all")
        for part in ("wait", "traffic"):
            times = []
            for _ in range(5):
                t0 = perf_counter()
                reproduce(part, self.reproduce_spec)
                times.append(perf_counter() - t0)
            out["reproduce.%s_tables_ms" % part] = (median(times) * 1e3, "ms")
        return out


def wait_table_refs(refs):
    """{table id: [reference w(s) of each row]} for the printed wait tables."""
    rows = {}
    for tid, disc, lit, a, s in inputs.wait_table_rows():
        rows.setdefault(tid, []).append(refs["values"][reference.key("lst", disc, lit, a, s)])
    return rows


def check_reproduce(refs, rows, got):
    """Problems with a reproduce("all") result: rendered w(s) column and flagged errata."""
    if isinstance(got, Exception):
        return ["raised %s" % type(got).__name__]
    tables, errata = got
    problems = []
    flagged = sorted([c.table_id, c.row, c.column] for c in errata)
    if flagged != sorted(refs["errata"]):
        problems.append("errata %s, expected %s" % (flagged, sorted(refs["errata"])))
    for table in tables:
        if table.table_id not in rows:
            continue
        for row, ref in zip(table.rows, rows[table.table_id]):
            if not abs(float(row[2]) - ref) <= TABLE_W_TOL * max(1.0, abs(ref)):
                problems.append("table %s row %s: w(s) %s, reference %.9g" % (table.table_id, row[0], row[2], ref))
    return problems

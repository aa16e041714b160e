"""Reference values for the quayside benchmark, computed without quayside.

Nothing here imports quayside: every value is derived from the queueing
formulas directly, in mpmath at 30 digits or more, so that a fault in
the library cannot also hide in its reference.

* M/M/1 FIFO   W(x) = 1 - rho exp(-(mu - lam) x),  w(s) = (1-rho)(s+mu)/(s+mu-lam)
* M/M/1 busy period: pi(s) is the least root of lam p^2 - (lam+mu+s) p + mu = 0
* M/M/1 LIFO   W(x) = 1 - rho + rho P(B <= x), with the Bessel-function
  busy-period density f_B(t) = sqrt(mu/lam) exp(-(lam+mu) t) I_1(2 t sqrt(lam mu)) / t
* other laws: w(s) from the transform formulas at 60 digits (LIFO through
  a Newton solve of Kendall's equation), W(x) by numerical inversion of
  w(s)/s at 30 digits (de Hoog, whose nodes lie on a vertical line, so
  the uniform law's exp(-s lo) factors stay bounded)
* cumulative traffic coefficients rho_k under resume, loss and repeat

Running this file regenerates ``reference_values.json`` next to it from
the input pools in ``inputs.py``:

    python3 qbench/reference.py
"""

import json
import os
import re
import sys

import mpmath
from mpmath import mp, mpf

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import inputs  # noqa: E402  (sibling module, imports nothing from quayside)

VALUES_FILE = os.path.join(HERE, "reference_values.json")

LST_DPS = 60
CDF_DPS = 30
ERRATUM_DELTA = 0.05  # printed cells further than this from the formula are errata

_LITERAL = re.compile(r"^(exp|unif|erlang2|gamma3)\(([^)]*)\)$")


class Law:
    """Service law parsed from a quayside literal, with mpmath arithmetic."""

    def __init__(self, literal):
        m = _LITERAL.match(literal.replace(" ", ""))
        if not m:
            raise ValueError("unknown law literal %r" % (literal,))
        self.literal = literal
        self.family = m.group(1)
        self.params = [mpf(p) for p in m.group(2).split(",")]

    def mean(self):
        p = self.params
        if self.family == "exp":
            return 1 / p[0]
        if self.family == "unif":
            return (p[0] + p[1]) / 2
        return {"erlang2": 2, "gamma3": 3}[self.family] / p[0]

    def lst(self, s):
        p = self.params
        if self.family == "exp":
            return p[0] / (s + p[0])
        if self.family == "unif":
            lo, hi = p
            if s == 0:
                return mpf(1)
            return (mpmath.exp(-s * lo) - mpmath.exp(-s * hi)) / (s * (hi - lo))
        order = {"erlang2": 2, "gamma3": 3}[self.family]
        return (p[0] / (s + p[0])) ** order

    def dlst(self, s):
        return mpmath.diff(self.lst, s)


# ---------------------------------------------------------------- M/M/1


def mm1_fifo_lst(lam, mu, s):
    lam, mu, s = mpf(lam), mpf(mu), mpf(s)
    return (1 - lam / mu) * (s + mu) / (s + mu - lam)


def mm1_fifo_cdf(lam, mu, x):
    lam, mu, x = mpf(lam), mpf(mu), mpf(x)
    return 1 - lam / mu * mpmath.exp(-(mu - lam) * x)


def mm1_busy_lst(lam, mu, s):
    """Least root of lam p^2 - (lam + mu + s) p + mu = 0, cancellation-free."""
    lam, mu, s = mpf(lam), mpf(mu), mpf(s)
    b = lam + mu + s
    return 2 * mu / (b + mpmath.sqrt(b * b - 4 * lam * mu))


def mm1_lifo_lst(lam, mu, s):
    pi = mm1_busy_lst(lam, mu, s)
    lam, mu, s = mpf(lam), mpf(mu), mpf(s)
    return (1 - lam / mu) + lam * (1 - pi) / (s + lam - lam * pi)


def mm1_busy_cdf(lam, mu, x):
    """P(B <= x) from the Bessel-function busy-period density."""
    lam, mu, x = mpf(lam), mpf(mu), mpf(x)
    c = mpmath.sqrt(mu / lam)
    r = 2 * mpmath.sqrt(lam * mu)

    def density(t):
        if t == 0:
            return mu  # limit of c I_1(r t) / t at t -> 0
        return c * mpmath.exp(-(lam + mu) * t) * mpmath.besseli(1, r * t) / t

    # the density decays on the scale 1/(lam+mu) and then 1/(sqrt(mu)-sqrt(lam))^2;
    # geometric breakpoints keep each quadrature panel smooth
    pts = [mpf(0)]
    step = 1 / (lam + mu) / 8
    while pts[-1] + step < x:
        pts.append(pts[-1] + step)
        step *= 1.5
    pts.append(x)
    return mpmath.quad(density, pts)


def mm1_lifo_cdf(lam, mu, x):
    rho = mpf(lam) / mpf(mu)
    return 1 - rho + rho * mm1_busy_cdf(lam, mu, x)


# ---------------------------------------------------------------- M/G/1


def _kendall_root(law, a, s):
    """Least root of p = beta(s + a - a p), by iteration then Newton (real or complex s)."""
    p = mpf(0)
    for _ in range(60):
        p = law.lst(s + a - a * p)
    for _ in range(200):
        g = p - law.lst(s + a - a * p)
        dg = 1 + a * law.dlst(s + a - a * p)
        step = g / dg
        p -= step
        if abs(step) < mpf(10) ** (-mp.dps + 5):
            break
    return p


def lifo_lst(law, a, s):
    a, s = mpf(a), mpmath.mpmathify(s)
    pi = _kendall_root(law, a, s)
    return (1 - a * law.mean()) + a * (1 - pi) / (s + a - a * pi)


def fifo_lst(law, a, s):
    a, s = mpf(a), mpmath.mpmathify(s)
    return (1 - a * law.mean()) * s / (s - a + a * law.lst(s))


def wait_lst(discipline, literal, a, s):
    law = Law(literal)
    with mp.workdps(LST_DPS):
        if law.family == "exp":
            mu = law.params[0]
            fn = mm1_fifo_lst if discipline == "fifo" else mm1_lifo_lst
            return float(fn(a, mu, s))
        fn = fifo_lst if discipline == "fifo" else lifo_lst
        return float(fn(law, a, s))


def wait_cdf(discipline, literal, a, x):
    law = Law(literal)
    with mp.workdps(CDF_DPS):
        if law.family == "exp":
            mu = law.params[0]
            fn = mm1_fifo_cdf if discipline == "fifo" else mm1_lifo_cdf
            return float(fn(a, mu, x))
        a = mpf(a)
        lst = fifo_lst if discipline == "fifo" else lifo_lst
        return float(mpmath.invertlaplace(lambda s: lst(law, a, s) / s, x, method="dehoog"))


# ---------------------------------------------------------------- traffic


def traffic_rho(discipline, classes):
    """Cumulative rho_k for [(lambda, literal), ...], highest priority first."""
    with mp.workdps(LST_DPS):
        sigma = mpf(0)
        total = mpf(0)
        out = []
        for k, (lam, literal) in enumerate(classes):
            law = Law(literal)
            lam = mpf(lam)
            if k == 0 or discipline == "resume":
                term = lam * law.mean()
            elif discipline == "loss":
                term = lam / sigma * (1 - law.lst(sigma))
            else:
                term = lam / sigma * (1 / law.lst(sigma) - 1)
            total += term
            sigma += lam
            out.append(float(total))
        return out


# ---------------------------------------------------------------- table


def key(kind, discipline, literal, a, point):
    """Lookup key shared by this file and the benchmark."""
    return "%s|%s|%s|%r|%r" % (kind, discipline, literal, float(a), float(point))


def compute(kind, discipline, literal, a, point):
    if kind == "lst":
        return wait_lst(discipline, literal, a, point)
    if kind == "cdf":
        return wait_cdf(discipline, literal, a, point)
    raise ValueError(kind)


def expected_errata(tables, traffic):
    """Printed traffic cells more than 0.05 from the recomputed value, as [table, row, column]."""
    out = []
    for tid, spec in sorted(tables["traffic_tables"].items()):
        sigma = 0.0
        for k, row in enumerate(spec["rows"], start=1):
            sigma += row["lambda"]
            recomputed = {"rho": traffic[tid][k - 1], "sigma": sigma}
            if "beta1_printed" in row:
                law = Law(inputs._literal(spec["service_family"], row))
                recomputed["beta1"] = float(law.mean())
            for column in ("beta1", "sigma", "rho"):
                printed = row.get(column + "_printed")
                if printed is not None:
                    delta = abs(float(printed.replace(",", ".")) - recomputed[column])
                    if delta > ERRATUM_DELTA:
                        out.append([tid, k, column])
    return out


def regenerate(path=VALUES_FILE):
    values = {}
    for kind, discipline, literal, a, point in inputs.reference_points():
        values[key(kind, discipline, literal, a, point)] = compute(kind, discipline, literal, a, point)
    traffic = {
        name: traffic_rho(discipline, classes)
        for name, (discipline, classes) in inputs.traffic_scenarios().items()
    }
    errata = expected_errata(inputs.printed_tables(), traffic)
    with open(path, "w") as fh:
        json.dump({"values": values, "traffic_rho": traffic, "errata": errata},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return len(values)


def load(path=VALUES_FILE):
    with open(path) as fh:
        return json.load(fh)


if __name__ == "__main__":
    n = regenerate()
    print("wrote %d reference values to %s" % (n, VALUES_FILE))

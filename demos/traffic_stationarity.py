"""Cumulative traffic coefficients under preemptive priority disciplines.

Five Poisson classes share one server; class 1 preempts everyone.  The
cumulative coefficient rho_k measures the load offered by classes 1..k,
and the system of the first k classes is viable iff rho_k < 1.  The
interrupted-job policy matters: resume keeps partial work, loss discards
the job in service, repeat restarts it with a fresh service draw.
"""

from quayside import (
    Erlang2,
    Exponential,
    PriorityClass,
    PriorityScenario,
    traffic_coefficients,
)

LAMBDAS = (0.3, 0.2, 0.4, 0.5, 0.8)
RATES = (7, 3, 4, 2, 5)


def show(label, scenario):
    report = traffic_coefficients(scenario)
    print("\n%s" % label)
    print("  k  lambda  sigma_k   rho_k")
    for k, (cls, sigma, rho) in enumerate(zip(scenario.classes, report.sigma, report.rho), 1):
        print("  %d  %-6g  %-7.3f  %.5f" % (k, cls.lam, sigma, rho))
    if report.stationary:
        print("  all classes viable")
    else:
        print("  overloaded from class %d (viable prefix 1..%d)"
              % (report.first_overloaded_class, report.stationary_prefix))


def main():
    exp = tuple(PriorityClass(l, Exponential(b)) for l, b in zip(LAMBDAS, RATES))
    erl = tuple(PriorityClass(l, Erlang2(b)) for l, b in zip(LAMBDAS, RATES))

    for disc in ("resume", "loss", "repeat"):
        show("exponential service, %s" % disc, PriorityScenario(exp, disc))
    print("\n(resume and repeat coincide for exponential service: the")
    print(" memoryless restart is distributionally a continuation)")

    show("Erlang-2 service, resume (overloads)", PriorityScenario(erl, "resume"))


if __name__ == "__main__":
    main()

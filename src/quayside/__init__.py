"""quayside: waiting-time and traffic analytics for single-server queues.

Analytic side: LIFO/FIFO waiting-time transforms for M|G|1 (busy-period
fixed point + Gaver-Stehfest inversion) and cumulative traffic
coefficients for the preemptive-priority queue under resume / loss /
repeat disciplines.  Empirical side: a seeded discrete-event simulation
oracle that cross-checks every analytic output.

`import quayside` loads no submodule: each public name, and each
submodule, is imported on its first use (PEP 562), so a program that
needs no arrays never pays for numpy.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_NAMES = {
    "busy_period": ("BusyPeriodSolution", "busy_period_lst"),
    "distributions": ("Erlang", "Erlang2", "Exponential", "Gamma3", "Uniform", "parse_distribution"),
    "errors": ("ConvergenceError", "InversionError", "NumericOverflowError", "QuaysideError",
               "ScenarioError", "SingularityError", "StationarityError"),
    "estimation": ("ObservationSample", "empirical_moment", "estimate_arrival_rate",
                   "estimate_service_rate", "load_observations"),
    "lst_inversion": ("InversionSpec", "invert", "stehfest_weights"),
    "reference_tables": ("RenderedTable", "recompute_table", "reproduce"),
    "scenario": ("Mg1Scenario", "load_scenario", "parse_scenario"),
    "sim_oracle": ("SimConfig", "SimResult", "simulate_mg1", "simulate_priority"),
    "traffic": ("FIFO", "LIFO", "LOSS", "REPEAT", "RESUME", "PriorityClass", "PriorityScenario",
                "TrafficReport", "traffic_coefficients"),
    "waiting_time": ("WaitEvaluation", "fifo_wait_lst", "lifo_wait_lst", "wait_cdf"),
}
_HOMES = {name: home for home, names in _NAMES.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is not None:
        value = getattr(importlib.import_module("." + home, __name__), name)
        globals()[name] = value  # later lookups skip this function
        return value
    try:  # a submodule; importing it binds it here
        return importlib.import_module("." + name, __name__)
    except ModuleNotFoundError as exc:
        if exc.name != "%s.%s" % (__name__, name):
            raise
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""quayside: waiting-time and traffic analytics for single-server queues.

Analytic side: LIFO/FIFO waiting-time transforms for M|G|1 (busy-period
fixed point + Gaver-Stehfest inversion) and cumulative traffic
coefficients for the preemptive-priority queue under resume / loss /
repeat disciplines.  Empirical side: a seeded discrete-event simulation
oracle that cross-checks every analytic output.
"""

from .busy_period import BusyPeriodSolution, busy_period_lst
from .distributions import (
    Erlang,
    Erlang2,
    Exponential,
    Gamma3,
    Uniform,
    parse_distribution,
)
from .errors import (
    ConvergenceError,
    InversionError,
    NumericOverflowError,
    QuaysideError,
    ScenarioError,
    SingularityError,
    StationarityError,
)
from .estimation import (
    ObservationSample,
    empirical_moment,
    estimate_arrival_rate,
    estimate_service_rate,
    load_observations,
)
from .lst_inversion import InversionSpec, invert, stehfest_weights
from .reference_tables import RenderedTable, recompute_table, reproduce
from .scenario import Mg1Scenario, load_scenario, parse_scenario
from .sim_oracle import SimConfig, SimResult, simulate_mg1, simulate_priority
from .traffic import (
    LOSS,
    REPEAT,
    RESUME,
    PriorityClass,
    PriorityScenario,
    TrafficReport,
    traffic_coefficients,
)
from .waiting_time import FIFO, LIFO, WaitEvaluation, fifo_wait_lst, lifo_wait_lst, wait_cdf

__version__ = "0.1.0"

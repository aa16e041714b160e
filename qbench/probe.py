"""Set-up probe, run in a fresh interpreter by the benchmark.

Times ``import quayside`` (through ``quayside.cli``, which pulls in every
module) and then the first call into each entry point, which fills the
lazy caches such as the Stehfest weights and the parsed tables.  Prints
one JSON object: {"import_s": ..., "setup_s": ...}.

    python3 qbench/probe.py OBSERVATION_FILE SCENARIO_FILE
"""

import json
import sys
from time import perf_counter


def main(observations, scenario):
    t0 = perf_counter()
    import quayside
    import quayside.cli

    t_import = perf_counter() - t0

    d = quayside.parse_distribution("exp(5)")
    quayside.fifo_wait_lst(d, 4.0, 1.0)
    quayside.lifo_wait_lst(d, 4.0, 1.0)
    quayside.wait_cdf("fifo", d, 4.0, 1.0)
    quayside.wait_cdf("lifo", d, 4.0, 1.0)
    quayside.invert(lambda s: 1.0 / (s + 1.0), 1.0)
    quayside.reproduce("all")
    cfg = quayside.SimConfig(seed=0, total_arrivals=100)
    quayside.simulate_mg1(d, 4.0, "fifo", cfg)
    sc = quayside.reference_tables.traffic_scenario("4.4.1")
    quayside.traffic_coefficients(sc)
    quayside.simulate_priority(sc, cfg)
    quayside.estimate_service_rate(quayside.load_observations(observations))
    quayside.load_scenario(scenario)
    t_setup = perf_counter() - t0
    print(json.dumps({"import_s": t_import, "setup_s": t_setup}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

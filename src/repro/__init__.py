"""repro -- reproduction of *COCA: Online Distributed Resource Management
for Cost Minimization and Carbon Neutrality in Data Centers* (SC '13).

Quickstart::

    from repro import paper_scenario, COCA, simulate

    scenario = paper_scenario(horizon=24 * 30)        # one month
    controller = COCA(scenario.model, scenario.environment.portfolio,
                      v_schedule=200.0)
    record = simulate(scenario.model, controller, scenario.environment)
    print(record.summary(scenario.environment.portfolio))

Package layout (see DESIGN.md for the full inventory):

- :mod:`repro.core` -- the paper's contribution: COCA (Algorithm 1), the
  carbon-deficit queue, V-schedules, Theorem 2 bounds.
- :mod:`repro.solvers` -- P3 engines: GSD (Algorithm 2), exact enumeration,
  coordinate descent, the dual-decomposition load distributor, and the
  distributed protocol's message bill.
- :mod:`repro.cluster` -- servers, fleets, queueing, power, switching.
- :mod:`repro.energy` -- renewables, RECs, carbon accounting.
- :mod:`repro.traces` -- synthetic workload/renewable/price generators.
- :mod:`repro.sim` -- slot simulator, metrics.
- :mod:`repro.baselines` -- carbon-unaware, PerfectHP, OPT, T-step lookahead.
- :mod:`repro.analysis` -- sweeps, summaries, table rendering.
- :mod:`repro.telemetry` -- structured tracing, metrics, profiling hooks.
"""

from .baselines import CarbonUnaware, OfflineOptimal, PerfectHP, TStepLookahead
from .cluster import (
    Fleet,
    FleetAction,
    MG1PSDelay,
    ServerGroup,
    ServerProfile,
    SwitchingCostModel,
    default_fleet,
    opteron_2380,
)
from .core import (
    COCA,
    CarbonDeficitQueue,
    ConstantV,
    Controller,
    DataCenterModel,
    FrameV,
    quarterly,
)
from .energy import CarbonLedger, RenewablePortfolio
from .scenarios import Scenario, paper_scenario, small_scenario
from .sim import Environment, SimulationRecord, simulate
from .solvers import (
    CoordinateDescentSolver,
    DistributedGSD,
    GSDSolver,
    HomogeneousEnumerationSolver,
    SlotProblem,
)
from .telemetry import (
    InMemoryTracer,
    JsonlTracer,
    MetricsRegistry,
    Telemetry,
    read_jsonl_events,
)
from .traces import Trace, fiu_workload, msr_workload, price_trace

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Scenario",
    "paper_scenario",
    "small_scenario",
    "COCA",
    "Controller",
    "DataCenterModel",
    "CarbonDeficitQueue",
    "ConstantV",
    "FrameV",
    "quarterly",
    "Fleet",
    "FleetAction",
    "ServerGroup",
    "ServerProfile",
    "MG1PSDelay",
    "SwitchingCostModel",
    "default_fleet",
    "opteron_2380",
    "RenewablePortfolio",
    "CarbonLedger",
    "Environment",
    "simulate",
    "SimulationRecord",
    "SlotProblem",
    "GSDSolver",
    "DistributedGSD",
    "HomogeneousEnumerationSolver",
    "CoordinateDescentSolver",
    "CarbonUnaware",
    "PerfectHP",
    "OfflineOptimal",
    "TStepLookahead",
    "Trace",
    "fiu_workload",
    "msr_workload",
    "price_trace",
    "Telemetry",
    "MetricsRegistry",
    "InMemoryTracer",
    "JsonlTracer",
    "read_jsonl_events",
]

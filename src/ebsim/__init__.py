"""ebsim: duty-cycled firefly synchronization, simulated deterministically.

Pulse-coupled oscillators agree on a shared broadcast slot by exchanging
fire messages and nudging their phases; once synchronized, radios stay on
only inside a short wake-up window around the common fire instant.
"""

from .core import advance_remaining_ticks, avg_phase_difference, in_setw
from .metrics import COLUMNS, MetricsRow, MetricsSeries, export_csv, throughput
from .params import (ParamReport, adaptive_c, build_report, check_stability,
                     delta_from_ticks, epsilon_opt, sigma_max)
from .protocol import (IsolatedNodeError, Mode, MrfConfig, NodeState,
                       ProtocolConfig, Variant, effective_epsilon,
                       end_of_period_evaluation, is_awake, on_fire,
                       on_message, on_period_start)
from .scenario import (ScenarioConfig, ScenarioError, SweepSpec, TopologySpec,
                       apply_override, build_topology, parse_scenario,
                       parse_scenario_text, resolved_text, run_config)
from .sim import (ChurnEvent, ClockDriftModel, DelayModel, Engine,
                  LinkFaultModel, RunResult, SimulationError, run)
from .topology import (Topology, TopologyError, load_topology, make_complete,
                       make_random_geometric, make_regular_grid,
                       radius_for_average_degree)

__version__ = "1.0.0"

__all__ = [
    "COLUMNS", "ChurnEvent", "ClockDriftModel", "DelayModel", "Engine",
    "IsolatedNodeError", "LinkFaultModel", "MetricsRow", "MetricsSeries",
    "Mode", "MrfConfig", "NodeState", "ParamReport", "ProtocolConfig",
    "RunResult", "ScenarioConfig", "ScenarioError", "SimulationError",
    "SweepSpec", "Topology", "TopologyError", "TopologySpec", "Variant",
    "adaptive_c", "advance_remaining_ticks", "apply_override",
    "avg_phase_difference", "build_report", "build_topology",
    "check_stability", "delta_from_ticks", "effective_epsilon",
    "end_of_period_evaluation", "epsilon_opt", "export_csv", "in_setw",
    "is_awake", "load_topology", "make_complete", "make_random_geometric",
    "make_regular_grid", "on_fire", "on_message", "on_period_start",
    "parse_scenario", "parse_scenario_text", "radius_for_average_degree",
    "resolved_text", "run", "run_config", "sigma_max", "throughput",
]

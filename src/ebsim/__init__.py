"""ebsim: duty-cycled firefly synchronization, simulated deterministically.

Pulse-coupled oscillators agree on a shared broadcast slot by exchanging
fire messages and nudging their phases; once synchronized, radios stay on
only inside a short wake-up window around the common fire instant.

ebsim.protocol holds each node's configuration and state, and ebsim.core
the phase helpers; Engine runs every node transition, and build_report is
the `check` analysis.
"""

from .metrics import MetricsRow, export_csv, steady_state
from .params import ParamReport, build_report
from .protocol import Mode, MrfConfig, NodeState, ProtocolConfig, Variant
from .scenario import (ScenarioConfig, ScenarioError, apply_override,
                       parse_scenario, parse_scenario_text, resolved_text,
                       run_config)
from .sim import (ChurnEvent, ClockDriftModel, DelayModel, Engine,
                  LinkFaultModel, RunResult, SimulationError, run)
from .topology import (Topology, TopologyError, load_topology, make_complete,
                       make_random_geometric, make_regular_grid)

__version__ = "1.0.0"

__all__ = [
    "ChurnEvent", "ClockDriftModel", "DelayModel", "Engine", "LinkFaultModel",
    "MetricsRow", "Mode", "MrfConfig", "NodeState",
    "ParamReport", "ProtocolConfig", "RunResult", "ScenarioConfig",
    "ScenarioError", "SimulationError", "Topology", "TopologyError",
    "Variant", "apply_override", "build_report",
    "export_csv", "load_topology", "make_complete", "make_random_geometric",
    "make_regular_grid", "parse_scenario", "parse_scenario_text",
    "resolved_text", "run", "run_config", "steady_state",
]

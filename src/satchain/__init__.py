"""Service-chain placement on LEO satellite edge networks.

A small library for simulating the allocation of VNF chains to satellite
edge servers: constellation topology with ranked candidate paths, a
four-state server power model, normalized deployment costs, beam-search
placement, best-response dynamics converging to a Nash equilibrium, and
batch / on-line / parameter-sweep experiment drivers.
"""

from .costing import (
    CommittedPlacement,
    ContextView,
    CostBreakdown,
    SlotContext,
    Strategy,
    StrategyProfile,
    Violation,
    Weights,
    bandwidth_cost,
    check_feasibility,
    delay_cost,
    energy_cost,
    evaluate_strategy,
    network_payoff,
    user_payoff,
)
from .energy import (
    IllegalTransition,
    Mode,
    PowerParams,
    ServerFleet,
    ServerState,
    step_server_state,
    vnf_power_attribution,
)
from .game import GameTrace, is_nash, pgra_run, potential_identity_check
from .harness import (
    OnlineSimulation,
    SimulationConfig,
    SlotMetrics,
    TaguchiResult,
    run_batch,
    run_online,
    run_taguchi,
)
from .placement import best_response, greedy_place, viterbi_place
from .topology import (
    Link,
    NetworkGraph,
    NoPath,
    Path,
    SatelliteNode,
    build_constellation,
    link_delay,
)
from .workload import (
    UserRequest,
    VnfSpec,
    WorkloadRanges,
    acceptable_delay,
    generate_requests,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

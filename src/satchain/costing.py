"""Normalized deployment costs, payoffs, and the joint constraint checker.

A strategy's payoff is ``(1 - a1*bw - a2*power - a3*delay) * z`` with the
three cost terms normalized by network-wide totals (total link bandwidth,
total server peak power, the request's delay budget).  The network payoff is
the plain sum of stored per-request payoffs in request-id order; because
committed strategies keep the cost breakdown computed when they were placed,
swapping one request's strategy changes the sum by exactly that request's
payoff difference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .energy import IDLE, OFF_AVAILABLE, OFF_UNAVAILABLE, vnf_power_attribution
from .topology import NetworkGraph
from .workload import UserRequest, check_types

if TYPE_CHECKING:
    from .harness import SimulationConfig


@dataclass(frozen=True)
class Weights:
    """Preference weights for (bandwidth, power, delay); must sum to 1."""

    bw: float = 1.0 / 3.0
    power: float = 1.0 / 3.0
    delay: float = 1.0 / 3.0

    def __post_init__(self):
        check_types(self, "weights.")
        if min(self.bw, self.power, self.delay) < 0:
            raise ValueError("weights must be non-negative")
        if abs(self.bw + self.power + self.delay - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")


@dataclass(frozen=True)
class CostBreakdown:
    bw: float
    power: float
    delay: float
    payoff: float


@dataclass(frozen=True)
class Strategy:
    """One request's complete placement decision.

    ``hosts[i]`` is the satellite of the i-th chain entry (pseudo endpoints
    pinned to source/destination); ``routes[j]`` carries the traffic of chain
    edge j.  An unallocated strategy has empty hosts/routes and payoff 0.
    """

    request_id: int
    hosts: tuple
    routes: tuple
    cost: CostBreakdown | None = None

    @classmethod
    def unallocated(cls, request_id: int) -> "Strategy":
        return cls(request_id, (), ())

    @property
    def allocated(self) -> bool:
        return bool(self.hosts)

    @property
    def payoff(self) -> float:
        return self.cost.payoff if self.cost is not None else 0.0


@dataclass(frozen=True)
class CommittedPlacement:
    """A request placed in an earlier slot that is still holding resources."""

    request: UserRequest
    strategy: Strategy
    end_slot: int  # last slot (inclusive) the request occupies


@dataclass
class SlotContext:
    """Everything about the current slot that placement decisions read."""

    slot: int
    server_states: dict  # node -> ServerState
    committed: list = field(default_factory=list)  # CommittedPlacement, still running


@dataclass
class StrategyProfile:
    """Joint strategies of one slot's requests plus the slot context."""

    requests: dict  # request id -> UserRequest
    strategies: dict  # request id -> Strategy
    context: SlotContext

    @classmethod
    def empty(cls, requests, context: SlotContext) -> "StrategyProfile":
        # keyed in ascending id, the order a one-pass round places and holds in
        by_id = {r.id: r for r in sorted(requests, key=lambda r: r.id)}
        return cls(by_id, {rid: Strategy.unallocated(rid) for rid in by_id}, context)

    def allocated_ids(self) -> list:
        return sorted(rid for rid, s in self.strategies.items() if s.allocated)


class ContextView:
    """Resource headroom and server conditions as one request sees them.

    Aggregates still-running prior commitments and the other requests'
    current strategies into flat per-node / per-link arrays so that placement
    search touches nothing but list lookups.  `hold` is the one rule for what
    a strategy holds: `build` takes each running and other allocated strategy
    with it, a view kept across a `pgra_run` gives a replaced strategy back
    and takes its successor, a one-pass round's view takes each placement as
    it is made, and `tally` sums the loads that `check_feasibility` and the
    on-line server fleet read.  A node's server flags are its holder counts:
    ``serving[node]`` counts the held VNFs there that keep running into the
    next slot and ``idling[node]`` those on an idle server, so a node serves
    next slot, or has its idle baseline paid, while its count is above 0.
    """

    __slots__ = ("free_cpu", "free_mem", "free_bw", "mode", "serving", "idling")

    def __init__(self, graph: NetworkGraph, context: SlotContext):
        """A view that holds nothing: every free value at its capacity and
        every count 0."""
        n = len(graph.nodes)
        self.free_cpu = [node.cpu for node in graph.nodes]
        self.free_mem = [node.memory for node in graph.nodes]
        self.free_bw = [link.bandwidth for link in graph.links]
        self.mode = [context.server_states[i].mode for i in range(n)]
        self.serving = [0] * n
        self.idling = [0] * n

    @classmethod
    def tally(cls, graph: NetworkGraph, context: SlotContext, held) -> "ContextView":
        """A view whose free values start at zero and that holds each
        ``(request, strategy)`` of `held` in order, so each free value reads
        exactly minus the running sum of the loads on it."""
        view = cls(graph, context)
        view.free_cpu, view.free_mem = [0.0] * len(graph.nodes), [0.0] * len(graph.nodes)
        view.free_bw = [0.0] * len(graph.links)
        for request, strategy in held:
            view.hold(request, strategy, False)
        return view

    @classmethod
    def build(cls, graph: NetworkGraph, profile: StrategyProfile, exclude: int | None = None) -> "ContextView":
        ctx = profile.context
        view = cls(graph, ctx)
        for placement in ctx.committed:
            view.hold(placement.request, placement.strategy, placement.end_slot >= ctx.slot + 1)
        for rid, strategy in profile.strategies.items():
            if rid == exclude or not strategy.allocated:
                continue
            request = profile.requests[rid]
            view.hold(request, strategy, request.duration_slots >= 2)
        return view

    def hold(self, request: UserRequest, strategy: Strategy, keeps_running: bool, sign: int = 1) -> None:
        """Take (``sign`` 1) or give back (-1) the cpu and memory of the
        strategy's hosts, the bandwidth of its routes and its VNFs' holder
        counts, which change only at the strategy's hosts."""
        free_cpu, free_mem, free_bw = self.free_cpu, self.free_mem, self.free_bw
        mode, serving, idling = self.mode, self.serving, self.idling
        factor = float(sign)  # an int factor made a 12-node build 15% slower (2-vCPU host)
        for host, vnf in zip(strategy.hosts, request.vnfs):
            if vnf.is_pseudo:
                continue
            free_cpu[host] -= factor * vnf.cpu
            free_mem[host] -= factor * vnf.memory
            if keeps_running:
                serving[host] += sign
            if mode[host] is IDLE:
                idling[host] += sign
        for bandwidth, route in zip(request.bandwidths, strategy.routes):
            for link_index in route.links:
                free_bw[link_index] -= factor * bandwidth


# -- cost components -------------------------------------------------------


def bandwidth_cost(strategy: Strategy, request: UserRequest, graph: NetworkGraph) -> float:
    """Bandwidth consumed by the chosen routes over the network total."""
    if graph.total_bandwidth == 0:  # linkless graph: only zero-hop routes exist
        return 0.0
    total = 0.0
    for bandwidth, route in zip(request.bandwidths, strategy.routes):
        total += bandwidth * route.hop_count
    return total / graph.total_bandwidth


def delay_cost(strategy: Strategy, request: UserRequest) -> float:
    """End-to-end time (execution plus transit) over the delay budget."""
    total = 0.0
    for vnf in request.vnfs:
        total += vnf.exec_time
    for route in strategy.routes:
        total += route.total_delay
    return total / request.max_delay


def energy_cost(
    strategy: Strategy, request: UserRequest, graph: NetworkGraph, view: ContextView, idle_charge: str
) -> float:
    """Power charged to the request's VNFs, walked in chain order, over the
    network's total peak power.

    On an idle server the baseline draw is charged to the first VNF landing
    there this slot (across requests) unless ``idle_charge == 'per_vnf'``.
    """
    total = 0.0
    idle_paid = set()
    serves_self = request.duration_slots >= 2
    for i, vnf in enumerate(request.vnfs):
        if vnf.is_pseudo:
            continue
        host = strategy.hosts[i]
        node = graph.nodes[host]
        mode = view.mode[host]
        serves = serves_self or view.serving[host] > 0
        already = view.idling[host] > 0 or host in idle_paid
        total += vnf_power_attribution(
            mode,
            serves,
            vnf.cpu,
            node.cpu,
            node.power,
            idle_already_charged=already,
            idle_charge=idle_charge,
        )
        if mode is IDLE and not serves:
            idle_paid.add(host)
    return total / graph.total_p_max


def user_payoff(bw: float, power: float, delay: float, weights: Weights) -> float:
    return 1.0 - weights.bw * bw - weights.power * power - weights.delay * delay


def evaluate_strategy(
    request: UserRequest,
    hosts: tuple,
    routes: tuple,
    graph: NetworkGraph,
    view: ContextView,
    config: SimulationConfig,
) -> CostBreakdown:
    """Canonical cost breakdown of a complete placement under the config's
    weights and idle rule."""
    probe = Strategy(request.id, hosts, routes)
    bw = bandwidth_cost(probe, request, graph)
    power = energy_cost(probe, request, graph, view, config.idle_charge)
    delay = delay_cost(probe, request)
    return CostBreakdown(bw, power, delay, user_payoff(bw, power, delay, config.weights))


def network_payoff(profile: StrategyProfile) -> float:
    """Sum of stored payoffs in request-id order (the potential function)."""
    total = 0.0
    for rid in sorted(profile.strategies):
        total += profile.strategies[rid].payoff
    return total


# -- feasibility -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    constraint: str
    entity: object
    detail: str


def check_feasibility(profile: StrategyProfile, graph: NetworkGraph) -> list:
    """Every violated constraint in the joint placement; empty means feasible.

    Covers: one host per VNF with pinned endpoints, one connecting route per
    chain edge, node cpu/memory capacity (current strategies plus running
    prior commitments), per-link bandwidth with traversal multiplicity, the
    delay budget, hosting on a restartable server only, and the idle/off
    timing legality of every server state.
    """
    violations = []
    ctx = profile.context
    active = [(p.request, p.strategy) for p in ctx.committed]
    for rid in sorted(profile.strategies):
        strategy = profile.strategies[rid]
        if not strategy.allocated:
            continue
        request = profile.requests[rid]
        reported = len(violations)
        if len(strategy.hosts) != len(request.vnfs):
            violations.append(Violation("vnf_assignment", rid, "host count != VNF count"))
            continue
        if strategy.hosts[0] != request.source or strategy.hosts[-1] != request.destination:
            violations.append(Violation("vnf_assignment", rid, "endpoints not pinned"))
        if len(strategy.routes) != len(request.bandwidths):
            violations.append(Violation("route_selection", rid, "route count != edge count"))
            continue
        for j, route in enumerate(strategy.routes):
            a, b = strategy.hosts[j], strategy.hosts[j + 1]
            if route.nodes[0] != a or route.nodes[-1] != b:
                violations.append(Violation("route_selection", (rid, j), "route does not connect hosts"))
            if a == b and route.hop_count != 0:
                violations.append(Violation("route_selection", (rid, j), "co-located hosts need a zero-hop route"))
        if len(violations) == reported:  # a malformed strategy is reported, not tallied
            active.append((request, strategy))
        if delay_cost(strategy, request) > 1.0 + 1e-12:
            violations.append(Violation("delay_budget", rid, "end-to-end time exceeds the budget"))
        for i, vnf in enumerate(request.vnfs):
            if vnf.is_pseudo:
                continue
            if ctx.server_states[strategy.hosts[i]].mode is OFF_UNAVAILABLE:
                violations.append(
                    Violation("server_unavailable", (rid, i), "host cannot serve in this slot")
                )

    tally = ContextView.tally(graph, ctx, active)
    for i, node in enumerate(graph.nodes):
        cpu_used, mem_used = -tally.free_cpu[i], -tally.free_mem[i]
        if cpu_used > node.cpu + 1e-9:
            violations.append(Violation("node_capacity", i, f"cpu {cpu_used} over capacity"))
        if mem_used > node.memory + 1e-9:
            violations.append(Violation("node_capacity", i, f"memory {mem_used} over capacity"))
    for k, link in enumerate(graph.links):
        bw_used = -tally.free_bw[k]
        if bw_used > link.bandwidth + 1e-9:
            violations.append(Violation("link_bandwidth", k, f"bandwidth {bw_used} over capacity"))

    for node_id in sorted(ctx.server_states):
        state = ctx.server_states[node_id]
        params = graph.nodes[node_id].power
        if state.mode is IDLE and ctx.slot - state.idle_since > params.t_idle_max:
            violations.append(Violation("idle_time", node_id, "idle longer than the idle threshold"))
        if state.mode is OFF_AVAILABLE and ctx.slot - state.off_since < params.t_off_min:
            violations.append(Violation("off_time", node_id, "available before the minimum off time"))
    return violations

"""Placing one chain onto the network: one beam-search kernel, run per
candidate path for the best response and once, at width 1, for the greedy
baseline.

The beam search treats the chain as a stage sequence.  The state space of
every stage is a sorted node list, the "corridor": for `viterbi_place` the
nodes of one candidate source-to-destination path, for `greedy_place` the
union of all candidate corridors.  Hosts need not advance monotonically
along it.  The route between two consecutive hosts is not forced to follow
the corridor: it is the first entry of the ranked shortest-path set between
the hosts that keeps the partial placement feasible (link bandwidth with
traversal multiplicity, and the running delay within budget).  After each
stage the partial placements are ranked by payoff, ties broken by fewer hops
then lexicographic host sequence, and truncated to the beam width;
truncation keeps a prefix of a fixed total order, so a wider beam never does
worse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costing import ContextView, Strategy, StrategyProfile, Weights, evaluate_strategy
from .energy import Mode
from .topology import NetworkGraph, Path
from .workload import UserRequest


@dataclass(frozen=True)
class PlacementConfig:
    num_paths: int = 8  # candidate source-destination paths per request
    beam_width: int | None = 4  # partial placements kept per stage; None = unlimited
    weights: Weights = Weights()

    def __post_init__(self):
        if self.num_paths < 1:
            raise ValueError("need at least one candidate path")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam width must be >= 1 (or None for unlimited)")


@dataclass(slots=True)
class _Beam:
    """A partial placement: hosts so far plus running cost accumulators."""

    hosts: tuple
    routes: tuple
    bw_units: float
    power_w: float
    delay_ms: float
    hops: int
    payoff: float
    used_cpu: list
    used_mem: list
    used_bw: list
    idle_paid: list | None


def _pick_route(routes, free_bw, used_bw, bandwidth, delay_so_far, exec_time, max_delay):
    """First ranked route that fits the bandwidth headroom and delay budget.

    Routes are ranked by delay, so once the budget is blown no later entry
    can fit.  A route may traverse one link several times; every traversal
    consumes bandwidth.
    """
    for route in routes:
        new_delay = delay_so_far + route.total_delay + exec_time
        if new_delay > max_delay:
            return None, 0.0
        if route.links:
            needed: dict = {}
            for link_index in route.links:
                needed[link_index] = needed.get(link_index, 0.0) + bandwidth
            ok = True
            for link_index, amount in needed.items():
                if free_bw[link_index] - used_bw[link_index] < amount - 1e-9:
                    ok = False
                    break
            if not ok:
                continue
        return route, new_delay
    return None, 0.0


def _beam_search(
    request: UserRequest,
    corridor: list,
    view: ContextView,
    graph: NetworkGraph,
    config: PlacementConfig,
    beam_width: int | None,
) -> Strategy | None:
    """Best placement found keeping `beam_width` partial placements per stage
    (None keeps all), with intermediate hosts drawn from the sorted `corridor`.

    Returns None when every partial placement dies (no feasible completion).
    """
    vnfs = request.vnfs
    edges = request.edges
    n_nodes = len(graph.nodes)
    n_links = len(graph.links)
    weights = config.weights
    inv_bw_total = 1.0 / graph.total_bandwidth if graph.total_bandwidth else 0.0
    inv_pw_total = 1.0 / graph.total_p_max
    inv_delay = 1.0 / request.max_delay
    serves_self = request.duration_slots >= 2
    # idle ownership only matters for single-slot requests under once-only charging
    track_idle = view.idle_charge == "once" and not serves_self

    route_table: dict = {}

    def routes_between(a, b):
        key = (a, b)
        hit = route_table.get(key)
        if hit is None:
            hit = graph.k_shortest_paths(a, b, config.num_paths).paths
            route_table[key] = hit
        return hit

    beam = [
        _Beam(
            (request.source,),
            (),
            0.0,
            0.0,
            0.0,
            0,
            1.0,
            [0.0] * n_nodes,
            [0.0] * n_nodes,
            [0.0] * n_links,
            [False] * n_nodes if track_idle else None,
        )
    ]
    for stage in range(1, len(vnfs)):
        vnf = vnfs[stage]
        bandwidth = edges[stage - 1].bandwidth
        candidates = (request.destination,) if stage == len(vnfs) - 1 else corridor
        grown = []
        for state in beam:
            prev = state.hosts[-1]
            for node_id in candidates:
                if not vnf.is_pseudo:
                    if view.mode[node_id] is Mode.OFF_UNAVAILABLE:
                        continue
                    if view.free_cpu[node_id] - state.used_cpu[node_id] < vnf.cpu - 1e-9:
                        continue
                    if view.free_mem[node_id] - state.used_mem[node_id] < vnf.memory - 1e-9:
                        continue
                route, new_delay = _pick_route(
                    routes_between(prev, node_id),
                    view.free_bw,
                    state.used_bw,
                    bandwidth,
                    state.delay_ms,
                    vnf.exec_time,
                    request.max_delay,
                )
                if route is None:
                    continue
                bw_units = state.bw_units + bandwidth * route.hop_count
                power_w = state.power_w
                used_cpu = state.used_cpu
                used_mem = state.used_mem
                idle_paid = state.idle_paid
                if not vnf.is_pseudo:
                    # energy.vnf_power_attribution's rule, inline: a call here gives the same bytes but
                    # ran viterbi_place up to 1.13x slower (12 nodes, 2-vCPU Xeon).  The oracle test
                    # test_unlimited_beam_matches_exhaustive_search checks the two agree per server mode.
                    mode = view.mode[node_id]
                    serves = serves_self or view.serves_next[node_id]
                    if mode is Mode.OFF_AVAILABLE:
                        if not serves:
                            power_w += view.p_max[node_id]
                    elif mode is Mode.IDLE and not serves:
                        power_w += vnf.cpu * view.power_coeff[node_id]
                        if view.idle_charge == "per_vnf":
                            power_w += view.p_idle[node_id]
                        elif not (view.idle_charged[node_id] or idle_paid[node_id]):
                            power_w += view.p_idle[node_id]
                            idle_paid = list(idle_paid)
                            idle_paid[node_id] = True
                    else:
                        power_w += vnf.cpu * view.power_coeff[node_id]
                    used_cpu = list(used_cpu)
                    used_cpu[node_id] += vnf.cpu
                    used_mem = list(used_mem)
                    used_mem[node_id] += vnf.memory
                used_bw = state.used_bw
                if route.links:
                    used_bw = list(used_bw)
                    for link_index in route.links:
                        used_bw[link_index] += bandwidth
                payoff = (
                    1.0
                    - weights.bw * (bw_units * inv_bw_total)
                    - weights.power * (power_w * inv_pw_total)
                    - weights.delay * (new_delay * inv_delay)
                )
                grown.append(
                    _Beam(
                        state.hosts + (node_id,),
                        state.routes + (route,),
                        bw_units,
                        power_w,
                        new_delay,
                        state.hops + route.hop_count,
                        payoff,
                        used_cpu,
                        used_mem,
                        used_bw,
                        idle_paid,
                    )
                )
        if not grown:
            return None
        grown.sort(key=lambda s: (-s.payoff, s.hops, s.hosts))
        beam = grown if beam_width is None else grown[:beam_width]
    best = beam[0]
    cost = evaluate_strategy(request, best.hosts, best.routes, graph, view, weights)
    return Strategy(request.id, best.hosts, best.routes, True, cost)


def viterbi_place(
    request: UserRequest,
    path: Path,
    view: ContextView,
    graph: NetworkGraph,
    config: PlacementConfig,
) -> Strategy | None:
    """Best placement of `request` with hosts restricted to `path`'s nodes.

    Returns None when every partial placement dies (no feasible completion).
    """
    if path.nodes[0] != request.source or path.nodes[-1] != request.destination:
        raise ValueError("candidate path must join the request endpoints")
    return _beam_search(request, sorted(set(path.nodes)), view, graph, config, config.beam_width)


def best_response(
    request: UserRequest,
    profile: StrategyProfile,
    graph: NetworkGraph,
    config: PlacementConfig,
) -> Strategy | None:
    """Payoff-maximal strategy over all candidate paths, others held fixed.

    Candidate paths with identical node sets explore identical placements, so
    duplicates are skipped.  Ties between paths break toward fewer total hops
    and then the lexicographically smallest host sequence.  None means the
    request stays unallocated.
    """
    view = ContextView.build(graph, profile, exclude=request.id)
    best: Strategy | None = None
    seen_corridors = set()
    for path in graph.candidate_sd_paths(request.source, request.destination, config.num_paths).paths:
        corridor = frozenset(path.nodes)
        if corridor in seen_corridors:
            continue
        seen_corridors.add(corridor)
        candidate = viterbi_place(request, path, view, graph, config)
        if candidate is None:
            continue
        if best is None:
            best = candidate
            continue
        c_hops = sum(r.hop_count for r in candidate.routes)
        b_hops = sum(r.hop_count for r in best.routes)
        if (candidate.payoff, -c_hops, best.hosts) > (best.payoff, -b_hops, candidate.hosts):
            best = candidate
    return best


def greedy_place(
    request: UserRequest,
    profile: StrategyProfile,
    graph: NetworkGraph,
    config: PlacementConfig,
) -> Strategy | None:
    """One-pass placement: each VNF takes the best feasible node right now.

    This is the beam search at width 1 over the union of all candidate-path
    corridors: a node's score is the payoff of the placement so far with it
    appended (bandwidth of the first feasible ranked route from the previous
    host, attributed power, execution plus transit time).  Exact ties break
    toward fewer hops, then the smallest node id.  `config.beam_width` is
    ignored.  No backtracking: any dead end fails the whole request.
    """
    view = ContextView.build(graph, profile, exclude=request.id)
    corridor: set = set()
    for path in graph.candidate_sd_paths(request.source, request.destination, config.num_paths).paths:
        corridor.update(path.nodes)
    return _beam_search(request, sorted(corridor), view, graph, config, 1)

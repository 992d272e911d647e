"""Placing one chain onto the network: one beam-search kernel, run per
candidate path for the best response and once, at width 1, for the greedy
baseline.

The beam search treats the chain as a stage sequence.  The state space of
every stage is a sorted node list, the "corridor": for `viterbi_place` the
nodes of one candidate source-to-destination path, for `greedy_place` the
union of all candidate corridors.  Hosts need not advance monotonically
along it.  The route between two consecutive hosts is not forced to follow
the corridor: it is the first entry of the ranked shortest-path set between
the hosts that keeps the partial placement feasible (link bandwidth and the
running delay within budget).  After each stage the partial placements are
ranked by payoff, ties broken by fewer hops then lexicographic host sequence,
and truncated to the beam width; truncation keeps a prefix of a fixed total
order, so a wider beam never does worse.

A partial placement is fixed by its host tuple, so the corridor runs of one
best response share a table of states keyed by it: each expansion, state
and priced result is computed once per best response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .costing import ContextView, Strategy, StrategyProfile, evaluate_strategy
from .energy import OFF_AVAILABLE, OFF_UNAVAILABLE, ON
from .topology import NetworkGraph, Path
from .workload import UserRequest

if TYPE_CHECKING:
    from .harness import SimulationConfig


@dataclass(slots=True)
class _Beam:
    """A partial placement: hosts so far plus running cost accumulators.

    `grown` caches the expansion to each node tried from here (the scored
    tuple, or None when the node cannot take the next VNF), and `strategy`
    the priced result of a complete placement, so corridors sharing a table
    compute each once.
    """

    hosts: tuple
    routes: tuple
    bw_units: float
    power_w: float
    delay_ms: float
    hops: int
    used_cpu: list
    used_mem: list
    used_bw: list
    idle_paid: list | None
    grown: dict
    strategy: Strategy | None = None


_UNTESTED_PASS, _UNTESTED_BLOCK = -math.inf, math.inf
_UNTRIED = object()  # a node with no cached expansion from a state


class Certificate:
    """What one best response's kernel runs read from their view: enough to
    show that runs on a later view would return the same results.

    The kernel reads a view only through capacity and bandwidth tests
    ``free - used < need - 1e-9`` and, where its power rule depends on them
    (a single-slot request on an off-available or idle server), whether a
    node's ``serving`` and ``idling`` counts are above 0.  All else it reads
    (server modes, the graph, the request, the config, the delay test) is
    fixed within one `pgra_run`, which owns the memo that keeps certificates,
    so none crosses slots.

    While the kernel runs, `cpu`, `mem` and `bw` map each need to two lists
    over node or link index: the largest ``used`` that passed and the
    smallest that blocked (-inf and inf where none did; no check fails on
    them).  For fixed ``free`` and ``need`` the rounded ``free - used`` never
    rises as ``used`` rises, so if those two still pass and block, so does
    every recorded test.  Every block, bandwidth pass and count read is
    recorded, but a capacity pass only when its expansion becomes a beam
    state: an expansion that truncation dropped can vanish on a later view
    without changing the beam, while a bandwidth pass that flips could pick a
    later route with a better payoff.  One certificate serves all corridor
    runs of a best response, which share expansions.

    `seal` groups the tests by kind and index, each group with the free
    value seen at seal, and keeps ``(serving > 0, idling > 0)`` of each read
    node.  `holds` tests only the nodes and links a kept view's catch-up
    moved: a certificate lives on only while its checks pass, and catch-up is
    the only writer of a kept view, so every index left out still reads what
    it passed with last.
    """

    __slots__ = ("cpu", "mem", "bw", "flagged", "tests", "flags")

    def __init__(self):
        self.cpu, self.mem, self.bw = {}, {}, {}
        self.flagged: set = set()

    @staticmethod
    def bounds(by_need: dict, need: float, size: int) -> tuple:
        """(largest passing used, smallest blocking used) lists for tests of `need`."""
        bounds = by_need.get(need)
        if bounds is None:
            bounds = by_need[need] = ([_UNTESTED_PASS] * size, [_UNTESTED_BLOCK] * size)
        return bounds

    def seal(self, view: ContextView) -> None:
        """Keep the tested bounds grouped by kind and index, each group with
        the free value `view` gives it, and whether each read node's counts
        are above 0."""
        self.tests = []
        for by_need, frees in zip((self.cpu, self.mem, self.bw), (view.free_cpu, view.free_mem, view.free_bw)):
            groups = {}
            for need, (passed, blocked) in by_need.items():
                for index, (largest, smallest) in enumerate(zip(passed, blocked)):
                    if largest != _UNTESTED_PASS or smallest != _UNTESTED_BLOCK:
                        group = groups.get(index)
                        if group is None:
                            group = groups[index] = (frees[index], [])
                        group[1].append((need, largest, smallest))
            self.tests.append(groups)
        self.flags = {node: (view.serving[node] > 0, view.idling[node] > 0) for node in self.flagged}
        self.cpu = self.mem = self.bw = self.flagged = None

    def holds(self, view: ContextView, nodes, links) -> bool:
        """True when kernel runs on `view` are certain to give the sealed
        results, where only `nodes` and `links` moved since the seal or the
        last check that passed."""
        kinds = zip(self.tests, (view.free_cpu, view.free_mem, view.free_bw), (nodes, nodes, links))
        for groups, frees, indices in kinds:
            for index in indices:
                group = groups.get(index)
                if group is None:
                    continue
                seen, tests = group
                free = frees[index]
                if free != seen:
                    for need, passed, blocked in tests:
                        if free - passed < need - 1e-9 or not free - blocked < need - 1e-9:
                            return False
        flags, serving, idling = self.flags, view.serving, view.idling
        for node in nodes:
            read = flags.get(node)
            if read is not None and read != (serving[node] > 0, idling[node] > 0):
                return False
        return True


def _beam_search(
    request: UserRequest,
    corridor: list,
    view: ContextView,
    graph: NetworkGraph,
    config: SimulationConfig,
    beam_width: int | None,
    certificate: Certificate | None = None,
    table: dict | None = None,
) -> Strategy | None:
    """Best placement found keeping `beam_width` partial placements per stage
    (None keeps all), with intermediate hosts drawn from the sorted `corridor`.

    Each expansion is first scored as a tuple that sorts by the beam order;
    usage lists are copied only for the expansions that survive truncation.
    Returns None when every partial placement dies (no feasible completion).
    A `certificate`, when given, records what the result depended on.
    `table` maps host tuples to `_Beam` states; runs on one view that share
    it (and one certificate) reuse each other's states and expansions.

    Routes come from the graph's route matrix, ranked by delay, so once the
    delay budget is blown no later entry can fit; they are loopless, so each
    link is tested once against one traversal's bandwidth.
    """
    vnfs = request.vnfs
    bandwidths = request.bandwidths
    n_nodes, n_links = len(graph.nodes), len(graph.links)
    w_bw, w_power, w_delay = config.weights.bw, config.weights.power, config.weights.delay
    inv_bw_total = 1.0 / graph.total_bandwidth if graph.total_bandwidth else 0.0
    inv_pw_total = 1.0 / graph.total_p_max
    inv_delay = 1.0 / request.max_delay
    max_delay = request.max_delay
    serves_self = request.duration_slots >= 2
    # idle ownership only matters for single-slot requests under once-only charging
    track_idle = config.idle_charge == "once" and not serves_self
    per_vnf = config.idle_charge == "per_vnf"
    modes, free_cpu, free_mem, free_bw = view.mode, view.free_cpu, view.free_mem, view.free_bw
    serving, idling = view.serving, view.idling  # holder counts, tested for truth
    p_idle, p_max, power_coeff = graph.p_idle, graph.p_max, graph.power_coeff
    flagged = cpu_passed = cpu_blocked = mem_passed = mem_blocked = bw_passed = bw_blocked = None
    if certificate is not None:
        flagged = certificate.flagged
    if table is None:
        table = {}

    routes = graph.route_matrix(config.num_paths)
    root = (request.source,)
    if root not in table:
        table[root] = _Beam(
            root, (), 0.0, 0.0, 0.0, 0, [0.0] * n_nodes, [0.0] * n_nodes, [0.0] * n_links,
            [False] * n_nodes if track_idle else None, {},
        )
    beam = [table[root]]
    for stage in range(1, len(vnfs)):
        vnf = vnfs[stage]
        pseudo = vnf.is_pseudo
        cpu, bandwidth, exec_time = vnf.cpu, bandwidths[stage - 1], vnf.exec_time
        # each test's right-hand side, as the certificate replays it
        cpu_limit, mem_limit, bw_limit = cpu - 1e-9, vnf.memory - 1e-9, bandwidth - 1e-9
        candidates = (request.destination,) if stage == len(vnfs) - 1 else corridor
        if certificate is not None:
            bw_passed, bw_blocked = certificate.bounds(certificate.bw, bandwidth, n_links)
            if not pseudo:
                cpu_passed, cpu_blocked = certificate.bounds(certificate.cpu, cpu, n_nodes)
                mem_passed, mem_blocked = certificate.bounds(certificate.mem, vnf.memory, n_nodes)
        # (-payoff, hops, hosts so far, node) is the beam order and unique, so sort() stops there
        grown = []
        for state in beam:
            known = state.grown
            routes_from = routes[state.hosts[-1]]
            hosts, hops_so_far, delay_so_far = state.hosts, state.hops, state.delay_ms
            bw_so_far, power_so_far = state.bw_units, state.power_w
            used_cpu, used_mem, used_bw, idle_paid = state.used_cpu, state.used_mem, state.used_bw, state.idle_paid
            for node_id in candidates:
                expansion = known.get(node_id, _UNTRIED)
                if expansion is not _UNTRIED:
                    if expansion is not None:
                        grown.append(expansion)
                    continue
                known[node_id] = None
                if not pseudo:
                    mode = modes[node_id]
                    if mode is OFF_UNAVAILABLE:
                        continue
                    used = used_cpu[node_id]
                    if free_cpu[node_id] - used < cpu_limit:
                        if cpu_blocked is not None and used < cpu_blocked[node_id]:
                            cpu_blocked[node_id] = used
                        continue
                    used = used_mem[node_id]
                    if free_mem[node_id] - used < mem_limit:
                        if mem_blocked is not None and used < mem_blocked[node_id]:
                            mem_blocked[node_id] = used
                        continue
                # the first ranked route that fits the link headroom and the delay budget
                route = None
                for candidate in routes_from[node_id]:
                    new_delay = delay_so_far + candidate.total_delay + exec_time
                    if new_delay > max_delay:
                        break
                    for link_index in candidate.links:
                        used = used_bw[link_index]
                        if free_bw[link_index] - used < bw_limit:
                            if bw_blocked is not None and used < bw_blocked[link_index]:
                                bw_blocked[link_index] = used
                            break
                        if bw_passed is not None and used > bw_passed[link_index]:
                            bw_passed[link_index] = used
                    else:
                        route = candidate
                        break
                if route is None:
                    continue
                route_hops = len(route.links)
                bw_units = bw_so_far + bandwidth * route_hops
                power_w = power_so_far
                pays_idle = False
                if not pseudo:
                    # energy.vnf_power_attribution's rule, inline: a call here gives the same bytes but
                    # made viterbi decisions 1.10x slower (median of 14 alternating runs, 0.93-1.28x;
                    # 12 nodes, 2-vCPU Xeon, modes compared through module names).  The oracle test
                    # test_unlimited_beam_matches_exhaustive_search checks the two agree per server mode.
                    if mode is ON:
                        power_w += cpu * power_coeff[node_id]
                    else:
                        serves = serves_self or serving[node_id]
                        if flagged is not None and not serves_self:
                            flagged.add(node_id)
                        if mode is OFF_AVAILABLE:
                            if not serves:
                                power_w += p_max[node_id]
                        else:  # idle: the baseline is due unless a later slot's service keeps the server on
                            power_w += cpu * power_coeff[node_id]
                            if not serves and (per_vnf or not (idling[node_id] or idle_paid[node_id])):
                                power_w += p_idle[node_id]
                                pays_idle = not per_vnf
                payoff = (
                    1.0
                    - w_bw * (bw_units * inv_bw_total)
                    - w_power * (power_w * inv_pw_total)
                    - w_delay * (new_delay * inv_delay)
                )
                # the parent is named by its hosts, not held, so the cache forms no reference cycle
                expansion = known[node_id] = (
                    -payoff, hops_so_far + route_hops, hosts, node_id, route, new_delay, bw_units, power_w, pays_idle
                )
                grown.append(expansion)
        if not grown:
            return None
        grown.sort()
        survivors = []
        for _, hops, hosts, node_id, route, new_delay, bw_units, power_w, pays_idle in grown[:beam_width]:
            key = hosts + (node_id,)
            state = table.get(key)
            if state is None:
                parent = table[hosts]
                used_cpu, used_mem, used_bw = parent.used_cpu, parent.used_mem, parent.used_bw
                idle_paid = parent.idle_paid
                if not pseudo:
                    if cpu_passed is not None:
                        if used_cpu[node_id] > cpu_passed[node_id]:
                            cpu_passed[node_id] = used_cpu[node_id]
                        if used_mem[node_id] > mem_passed[node_id]:
                            mem_passed[node_id] = used_mem[node_id]
                    used_cpu = list(used_cpu)
                    used_cpu[node_id] += cpu
                    used_mem = list(used_mem)
                    used_mem[node_id] += vnf.memory
                    if pays_idle:
                        idle_paid = list(idle_paid)
                        idle_paid[node_id] = True
                if route.links:
                    used_bw = list(used_bw)
                    for link_index in route.links:
                        used_bw[link_index] += bandwidth
                state = table[key] = _Beam(
                    key, parent.routes + (route,), bw_units, power_w, new_delay, hops,
                    used_cpu, used_mem, used_bw, idle_paid, {},
                )
            survivors.append(state)
        beam = survivors
    best = beam[0]
    if best.strategy is None:
        cost = evaluate_strategy(request, best.hosts, best.routes, graph, view, config)
        best.strategy = Strategy(request.id, best.hosts, best.routes, cost)
    return best.strategy


def viterbi_place(
    request: UserRequest,
    path: Path,
    view: ContextView,
    graph: NetworkGraph,
    config: SimulationConfig,
    certificate: Certificate | None = None,
    table: dict | None = None,
) -> Strategy | None:
    """Best placement of `request` with hosts restricted to `path`'s nodes.

    Returns None when every partial placement dies (no feasible completion).
    A `certificate`, when given, records what the result depended on.  Calls
    on one view may share a `table` of beam states, with one certificate.
    """
    if path.nodes[0] != request.source or path.nodes[-1] != request.destination:
        raise ValueError("candidate path must join the request endpoints")
    return _beam_search(request, sorted(set(path.nodes)), view, graph, config, config.beam_width, certificate, table)


def _whole_numbers(graph: NetworkGraph, profile: StrategyProfile) -> bool:
    """True when every capacity and load of the slot is a whole number and
    their total is below 2**53, so that every free value of a view is an
    integer and any order of additions gives the bits of a fresh build."""
    requests = [p.request for p in profile.context.committed] + list(profile.requests.values())
    values = [
        *(value for node in graph.nodes for value in (node.cpu, node.memory)),
        *(link.bandwidth for link in graph.links),
        *(value for r in requests for vnf in r.vnfs for value in (vnf.cpu, vnf.memory)),
        *(bandwidth for r in requests for bandwidth in r.bandwidths),
    ]
    return all(float(value).is_integer() for value in values) and sum(values) < 2**53


class _Kept:
    """A request's entry in the `best_response` memo: its view, the strategies
    of ``profile.strategies`` that the view reflects, and the certified best
    response of its last search.

    The view catches up by itself: each other request whose strategy is not
    the one it reflects gives that back and takes the new one, which moves
    free values and holder counts at those strategies' hosts and links only.
    This is exact only when the slot is `whole` (see `_whole_numbers`);
    otherwise a stale view is built afresh.
    """

    __slots__ = ("view", "seen", "whole", "certificate", "best")

    def __init__(self, graph: NetworkGraph, profile: StrategyProfile, request_id: int, whole: bool):
        self.view = ContextView.build(graph, profile, exclude=request_id)
        self.seen = dict(profile.strategies)
        self.whole = whole

    def catch_up(self, graph: NetworkGraph, profile: StrategyProfile, request_id: int) -> tuple:
        """Bring the view up to date; returns the (nodes, links) it moved:
        the hosts and route links of each strategy given back or taken, or
        every node and link when the view was built afresh."""
        nodes, links = set(), set()
        for rid, strategy in profile.strategies.items():
            old = self.seen[rid]
            if strategy is old or rid == request_id:
                continue
            self.seen[rid] = strategy
            request = profile.requests[rid]
            keeps_running = request.duration_slots >= 2
            for sign, moved in ((-1, old), (1, strategy)):
                if moved.allocated:
                    nodes.update(moved.hosts)
                    for route in moved.routes:
                        links.update(route.links)
                    if self.whole:
                        self.view.hold(request, moved, keeps_running, sign)
        if not self.whole and nodes:
            self.view = ContextView.build(graph, profile, exclude=request_id)
            return range(len(graph.nodes)), range(len(graph.links))
        return nodes, links


def best_response(
    request: UserRequest,
    profile: StrategyProfile,
    graph: NetworkGraph,
    config: SimulationConfig,
    memo: dict | None = None,
    view: ContextView | None = None,
) -> Strategy | None:
    """Payoff-maximal strategy over all candidate paths, others held fixed.

    Candidate paths with identical node sets explore identical placements, so
    duplicates are skipped; the corridor runs share one table of beam states,
    so an expansion or state that two corridors reach is computed once.  Ties
    between paths break toward fewer total hops and then the
    lexicographically smallest host sequence.  None means the request stays
    unallocated.

    `memo` maps a request id to an entry that keeps the request's view, which
    catches up with ``profile.strategies`` by itself, and a sealed
    `Certificate` of all its corridor runs with the best response they gave.
    The view is built on the request's first call only; while the
    certificate holds for the caught-up view, the stored result is returned
    without running the kernel.  The caller must drop the memo when server
    modes, the graph, the requests or the config change.  Without a memo, a
    given `view` is searched in place of a fresh build; it must equal
    ``ContextView.build(graph, profile, exclude=request.id)``.
    """
    certificate = kept = None
    if memo is None:
        if view is None:
            view = ContextView.build(graph, profile, exclude=request.id)
    else:
        kept = memo.get(request.id)
        if kept is None:
            # one memo serves one slot on one graph, so its first entry's test holds for every entry
            whole = next(iter(memo.values())).whole if memo else _whole_numbers(graph, profile)
            kept = _Kept(graph, profile, request.id, whole)
        else:
            nodes, links = kept.catch_up(graph, profile, request.id)
            if kept.certificate.holds(kept.view, nodes, links):
                return kept.best
        view = kept.view
        certificate = Certificate()
    table: dict = {}
    best = best_rank = None
    seen_corridors = set()
    for path in graph.candidate_sd_paths(request.source, request.destination, config.num_paths):
        corridor = frozenset(path.nodes)
        if corridor in seen_corridors:
            continue
        seen_corridors.add(corridor)
        candidate = viterbi_place(request, path, view, graph, config, certificate, table)
        if candidate is None or candidate is best:  # corridors sharing a final state share its strategy
            continue
        rank = (-candidate.payoff, sum(len(r.links) for r in candidate.routes), candidate.hosts)
        if best is None or rank < best_rank:
            best, best_rank = candidate, rank
    if kept is not None:
        certificate.seal(view)
        kept.certificate, kept.best = certificate, best
        memo[request.id] = kept
    return best


def greedy_place(
    request: UserRequest,
    profile: StrategyProfile,
    graph: NetworkGraph,
    config: SimulationConfig,
    view: ContextView | None = None,
) -> Strategy | None:
    """One-pass placement: each VNF takes the best feasible node right now.

    This is the beam search at width 1 over the union of all candidate-path
    corridors: a node's score is the payoff of the placement so far with it
    appended (bandwidth of the first feasible ranked route from the previous
    host, attributed power, execution plus transit time).  Exact ties break
    toward fewer hops, then the smallest node id.  `config.beam_width` is
    ignored.  No backtracking: any dead end fails the whole request.  A
    given `view` is searched in place of a fresh build, as in `best_response`.
    """
    if view is None:
        view = ContextView.build(graph, profile, exclude=request.id)
    corridor: set = set()
    for path in graph.candidate_sd_paths(request.source, request.destination, config.num_paths):
        corridor.update(path.nodes)
    return _beam_search(request, sorted(corridor), view, graph, config, 1)

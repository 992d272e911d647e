"""Independent reference implementations used only to cross-check results.

These deliberately re-derive answers by exhaustive enumeration instead of
calling the search code they verify.
"""

import math

from satchain.costing import ContextView, Strategy, evaluate_strategy
from satchain.energy import Mode
from satchain.topology import Path


def make_path(graph, node_seq):
    """The walk through ``node_seq``, its links looked up in the adjacency lists."""
    nodes = tuple(node_seq)
    links = []
    for a, b in zip(nodes, nodes[1:]):
        link = next((index for neighbor, index in graph._adj[a] if neighbor == b), None)
        if link is None:
            raise ValueError(f"no link between {a} and {b}")
        links.append(link)
    return Path(nodes, tuple(links), math.fsum(graph.links[i].delay for i in links))


def all_simple_paths(graph, s, t):
    """Every loopless path from s to t as (delay, hops, node tuple)."""
    found = []

    def walk(node, visited, links_so_far):
        if node == t:
            delay = math.fsum(graph.links[i].delay for i in links_so_far)
            found.append((delay, len(links_so_far), tuple(visited)))
            return
        for neighbor, link_index in graph._adj[node]:
            if neighbor in visited:
                continue
            walk(neighbor, visited + [neighbor], links_so_far + [link_index])

    if s == t:
        return [(0.0, 0, (s,))]
    walk(s, [s], [])
    found.sort()
    return found


def enumerate_corridor_placements(request, corridor, view, graph, config):
    """Every completable placement with hosts in ``corridor`` (endpoints pinned).

    The route of each chain edge is the first of the ``config.num_paths``
    ranked shortest paths between the hosts that fits the remaining
    bandwidth and the delay budget, matching the documented strategy space.
    Costs follow the config's weights and idle rule.  Returns (cost, hosts,
    routes) triples.
    """
    corridor = sorted(corridor)
    vnfs = request.vnfs
    found = []

    def recurse(stage, hosts, routes, delay, used_cpu, used_mem, used_bw):
        if stage == len(vnfs):
            hosts, routes = tuple(hosts), tuple(routes)
            found.append((evaluate_strategy(request, hosts, routes, graph, view, config), hosts, routes))
            return
        vnf = vnfs[stage]
        bandwidth = request.bandwidths[stage - 1]
        candidates = [request.destination] if stage == len(vnfs) - 1 else corridor
        for node_id in candidates:
            if not vnf.is_pseudo:
                if view.mode[node_id] is Mode.OFF_UNAVAILABLE:
                    continue
                if view.free_cpu[node_id] - used_cpu.get(node_id, 0.0) < vnf.cpu - 1e-9:
                    continue
                if view.free_mem[node_id] - used_mem.get(node_id, 0.0) < vnf.memory - 1e-9:
                    continue
            route = None
            for candidate_route in graph.k_shortest_paths(hosts[-1], node_id, config.num_paths):
                if delay + candidate_route.total_delay + vnf.exec_time > request.max_delay:
                    break
                need = {}
                for link_index in candidate_route.links:
                    need[link_index] = need.get(link_index, 0.0) + bandwidth
                if all(
                    view.free_bw[link_index] - used_bw.get(link_index, 0.0) >= amount - 1e-9
                    for link_index, amount in need.items()
                ):
                    route = candidate_route
                    break
            if route is None:
                continue
            new_cpu = dict(used_cpu)
            new_mem = dict(used_mem)
            if not vnf.is_pseudo:
                new_cpu[node_id] = new_cpu.get(node_id, 0.0) + vnf.cpu
                new_mem[node_id] = new_mem.get(node_id, 0.0) + vnf.memory
            new_bw = dict(used_bw)
            for link_index in route.links:
                new_bw[link_index] = new_bw.get(link_index, 0.0) + bandwidth
            recurse(
                stage + 1,
                hosts + [node_id],
                routes + [route],
                delay + route.total_delay + vnf.exec_time,
                new_cpu,
                new_mem,
                new_bw,
            )

    recurse(1, [request.source], [], 0.0, {}, {}, {})
    return found


def enumerate_best_placement(request, path, view, graph, config):
    """Max-payoff placement over all host tuples in the candidate path's node
    set, ties to fewer hops then the smaller host tuple.  Returns (payoff,
    hosts, routes) or None."""
    placements = enumerate_corridor_placements(request, set(path.nodes), view, graph, config)
    if not placements:
        return None
    cost, hosts, routes = min(
        placements, key=lambda entry: (-entry[0].payoff, sum(r.hop_count for r in entry[2]), entry[1])
    )
    return cost.payoff, hosts, routes


def enumerate_request_strategies(request, profile, graph, config):
    """Every completable placement of one request, as Strategy objects."""
    view = ContextView.build(graph, profile, exclude=request.id)
    strategies = []
    seen = set()
    for path in graph.candidate_sd_paths(request.source, request.destination, config.num_paths):
        corridor = frozenset(path.nodes)
        if corridor in seen:
            continue
        seen.add(corridor)
        for cost, hosts, routes in enumerate_corridor_placements(request, corridor, view, graph, config):
            strategies.append(Strategy(request.id, hosts, routes, cost))
    return strategies


def cpu_by_host(running):
    """CPU the running placements allocate per host, summed placement by
    placement and VNF by VNF in chain order; the keys are the serving hosts."""
    cpu = {}
    for placement in running:
        for host, vnf in zip(placement.strategy.hosts, placement.request.vnfs):
            if not vnf.is_pseudo:
                cpu[host] = cpu.get(host, 0.0) + vnf.cpu
    return cpu

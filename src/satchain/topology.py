"""Satellite constellation graph: torus wiring, link delays, ranked path sets.

Nodes are edge-server satellites arranged in orbital planes; links are
inter-satellite links (ISLs) with a shared undirected bandwidth capacity and a
propagation delay.  Candidate routing paths between two satellites are the
first ``d`` of all loopless paths ranked by (total delay, hop count, node
sequence), so repeated runs produce identical path sets.

The ranking comes from a best-first search over loopless prefixes, keyed by
the prefix delay plus the exact shortest delay from its last node to the
target (one Dijkstra per target).  That key never exceeds the delay of any
completion, so once ``d`` paths are found and the smallest key left exceeds
the ``d``-th smallest delay, no unseen path can rank in the top ``d``.  The
1e-9 margin on that test absorbs rounding and can only keep extra paths,
which the exact final sort drops.  ``routes[a][b]`` holds the result for
every pair, filled once per ``d`` on first use; one search per unordered
pair ranks both directions.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .energy import PowerParams

LIGHT_SPEED_KM_PER_S = 299_792.458


class NoPath(Exception):
    """The graph is disconnected between the requested endpoints."""


def link_delay(distance_km: float) -> float:
    """Line-of-sight propagation delay in ms."""
    if distance_km <= 0:
        raise ValueError("distance must be positive")
    return distance_km / LIGHT_SPEED_KM_PER_S * 1000.0


@dataclass(frozen=True)
class SatelliteNode:
    """One edge-server satellite; node ``i`` of a graph is ``graph.nodes[i]``."""

    cpu: float  # vCPU
    memory: float
    power: PowerParams

    def __post_init__(self):
        for name in ("cpu", "memory"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)}")


@dataclass(frozen=True)
class Link:
    """An undirected ISL between nodes ``u`` and ``v``; link ``k`` is ``graph.links[k]``."""

    u: int
    v: int
    bandwidth: float  # Mbps, shared by both directions
    delay: float  # ms
    distance: float  # km

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError("link endpoints must differ")
        if self.bandwidth <= 0 or self.delay <= 0:
            raise ValueError("bandwidth and delay must be positive")


@dataclass(frozen=True)
class Path:
    """A walk through the graph; zero-hop paths (single node) are valid.

    ``links`` holds link indices with multiplicity, so an out-and-back walk
    lists the same link twice.  ``total_delay`` is an order-independent sum
    (math.fsum) of the link delays, which keeps equal-delay ties exact.
    """

    nodes: tuple
    links: tuple
    total_delay: float

    @property
    def hop_count(self) -> int:
        return len(self.links)


class NetworkGraph:
    """Immutable-after-build constellation graph that owns its ranked routes.

    A node or link is its position in ``nodes`` / ``links``, and link
    endpoints name node positions.  On the first use of a path count ``d``,
    `route_matrix` fills ``routes[a][b]`` for every pair with the tuple of
    top-``d`` `Path`s (None for a disconnected pair); shortest delays to each
    target and same-node walk sets are cached too.  The graph is otherwise
    read-only, so sharing across workers is safe as long as cache population
    stays single-writer.
    """

    def __init__(self, nodes: list, links: list):
        self.nodes = list(nodes)
        self.links = list(links)
        n = len(self.nodes)
        pairs: set = set()
        self._adj: list = [[] for _ in range(n)]  # node -> [(neighbour, link)]
        for index, link in enumerate(self.links):
            if not (0 <= link.u < n and 0 <= link.v < n):
                raise ValueError(f"link {index} ({link.u}-{link.v}) names a node outside 0..{n - 1}")
            key = (min(link.u, link.v), max(link.u, link.v))
            if key in pairs:
                raise ValueError(f"link {index} duplicates link {key}")
            pairs.add(key)
            self._adj[link.u].append((link.v, index))
            self._adj[link.v].append((link.u, index))
        self.total_bandwidth = sum(l.bandwidth for l in self.links)
        self.total_p_max = sum(node.power.p_max for node in self.nodes)
        # per-node power constants, indexed by node, that the placement kernel reads
        self.p_idle = [node.power.p_idle for node in self.nodes]
        self.p_max = [node.power.p_max for node in self.nodes]
        self.power_coeff = [(node.power.p_max - node.power.p_idle) / node.cpu for node in self.nodes]
        self._routes: dict = {}  # d -> route matrix
        self._to_target: dict = {}  # t -> shortest delay from every node to t
        self._walks: dict = {}  # (s, d) -> same-node candidate walks

    # -- path machinery ----------------------------------------------------

    def _delays_to(self, t: int) -> list:
        """Shortest delay from every node to ``t`` (inf where unreachable)."""
        dist = self._to_target.get(t)
        if dist is not None:
            return dist
        dist = [math.inf] * len(self.nodes)
        dist[t] = 0.0
        heap = [(0.0, t)]
        while heap:
            du, u = heapq.heappop(heap)
            if du > dist[u]:
                continue
            for v, link_index in self._adj[u]:
                dv = du + self.links[link_index].delay
                if dv < dist[v]:
                    dist[v] = dv
                    heapq.heappush(heap, (dv, v))
        self._to_target[t] = dist
        return dist

    def _ranked_paths(self, s: int, t: int, d: int) -> list | None:
        """Every loopless s-t path within the ``d``-th smallest delay, and
        possibly more, as unsorted (fsum delay, hops, nodes, links); None if
        disconnected.  Needs ``s != t``."""
        to_t = self._delays_to(t)
        if to_t[s] == math.inf:
            return None
        adj, links = self._adj, self.links
        # prefixes as (delay + delay to t, nodes, links, delay, visited bitmask); nodes are unique
        frontier = [(to_t[s], (s,), (), 0.0, 1 << s)]
        found = []
        worst = []  # negated delays of the d smallest found
        kth = math.inf
        while frontier:
            bound, nodes, route, delay, visited = heapq.heappop(frontier)
            if bound > kth + 1e-9:
                break
            for v, link_index in adj[nodes[-1]]:
                if visited >> v & 1:
                    continue
                if v == t:
                    full = route + (link_index,)
                    total = math.fsum(links[i].delay for i in full)
                    found.append((total, len(full), nodes + (t,), full))
                    heapq.heappush(worst, -total)
                    if len(worst) > d:
                        heapq.heappop(worst)
                    if len(worst) == d:
                        kth = -worst[0]
                    continue
                step = delay + links[link_index].delay
                bound = step + to_t[v]
                if bound > kth + 1e-9:  # kth only falls, so this prefix would never be expanded
                    continue
                heapq.heappush(frontier, (bound, nodes + (v,), route + (link_index,), step, visited | 1 << v))
        return found

    def route_matrix(self, d: int) -> list:
        """``routes[a][b]``: the top-``d`` `Path`s from a to b, None if disconnected.

        The whole matrix is filled on the first call for ``d`` and shared
        after.  Each unordered pair is searched once: links are undirected
        and `math.fsum` is exact, so the a-b candidates reversed are every
        b-a path within the same ``d``-th delay, and one exact sort per
        direction ranks each.
        """
        routes = self._routes.get(d)
        if routes is None:
            if d < 1:
                raise ValueError("d must be >= 1")
            n = len(self.nodes)
            routes = [[None] * n for _ in range(n)]
            for a in range(n):
                routes[a][a] = (Path((a,), (), 0.0),)
                for b in range(a + 1, n):
                    found = self._ranked_paths(a, b, d)
                    if found is None:
                        continue
                    backward = [(total, hops, nodes[::-1], links[::-1]) for total, hops, nodes, links in found]
                    for s, t, ranked in ((a, b, found), (b, a, backward)):
                        ranked.sort()
                        routes[s][t] = tuple(Path(nodes, links, total) for total, _, nodes, links in ranked[:d])
            self._routes[d] = routes
        return routes

    def _check_nodes(self, *nodes: int) -> None:
        for node in nodes:  # a list index would quietly take -1
            if not 0 <= node < len(self.nodes):
                raise ValueError(f"node {node} is not in 0..{len(self.nodes) - 1}")

    def k_shortest_paths(self, s: int, t: int, d: int) -> tuple:
        """Up to ``d`` loopless shortest paths from s to t.

        Ranked by (total delay, hop count, node sequence); when ``s == t``
        the result is the single zero-hop path.  Raises `NoPath` when the
        endpoints are disconnected.
        """
        self._check_nodes(s, t)
        result = self.route_matrix(d)[s][t]
        if result is None:
            raise NoPath(f"no route from {s} to {t}")
        return result

    def candidate_sd_paths(self, s: int, dest: int, d: int) -> tuple:
        """Candidate source-to-destination paths for one request.

        For distinct endpoints this is `k_shortest_paths`.  When source and
        destination sit on the same satellite, the candidates are the
        zero-hop path plus out-and-back walks to the ``d - 1`` nearest
        satellites (walk delay is twice the one-way shortest delay).
        """
        if s != dest:
            return self.k_shortest_paths(s, dest, d)
        key = (s, d)
        cached = self._walks.get(key)
        if cached is not None:
            return cached
        self._check_nodes(s)
        # the first of the top d paths is the shortest one
        legs = sorted(
            (entry[0].total_delay, v, entry[0])
            for v, entry in enumerate(self.route_matrix(d)[s])
            if v != s and entry is not None
        )
        paths = [Path((s,), (), 0.0)]
        for _, _, leg in legs[: d - 1]:
            nodes = leg.nodes + leg.nodes[-2::-1]
            links = leg.links + leg.links[::-1]
            delay = math.fsum(self.links[i].delay for i in links)
            paths.append(Path(nodes, links, delay))
        result = tuple(paths)
        self._walks[key] = result
        return result


def build_constellation(
    planes: int,
    sats_per_plane: int,
    intra_plane_km: float,
    inter_plane_km: float,
    node: SatelliteNode,
    link_bandwidth: float,
) -> NetworkGraph:
    """Torus-wired constellation of ``planes x sats_per_plane`` copies of ``node``.

    Satellite ``s`` of plane ``p`` is node ``p * sats_per_plane + s``.  Each
    links to its ring neighbours within the plane (``intra_plane_km``) and to
    the same slot in the adjacent planes (``inter_plane_km``).  Wrap-around
    duplicates from 2-wide rings collapse to a single undirected link, so
    small configurations have degree < 4.
    """
    if planes < 1 or sats_per_plane < 1:
        raise ValueError("need at least one plane and one satellite per plane")
    edges: dict = {}
    for p in range(planes):
        for s in range(sats_per_plane):
            me = p * sats_per_plane + s
            if sats_per_plane >= 2:
                ring = p * sats_per_plane + (s + 1) % sats_per_plane
                if ring != me:
                    edges.setdefault((min(me, ring), max(me, ring)), intra_plane_km)
            if planes >= 2:
                column = ((p + 1) % planes) * sats_per_plane + s
                if column != me:
                    edges.setdefault((min(me, column), max(me, column)), inter_plane_km)
    links = [Link(u, v, link_bandwidth, link_delay(dist), dist) for (u, v), dist in sorted(edges.items())]
    return NetworkGraph([node] * (planes * sats_per_plane), links)

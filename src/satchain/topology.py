"""Satellite constellation graph: torus wiring, link delays, ranked path sets.

Nodes are edge-server satellites arranged in orbital planes; links are
inter-satellite links (ISLs) with a shared undirected bandwidth capacity and a
propagation delay.  Candidate routing paths between two satellites are the
``d`` loopless shortest paths by delay, with deterministic tie-breaking so
that repeated runs produce identical path sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import networkx as nx

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
    id: int
    plane: int
    slot_in_plane: int
    capacity: dict  # resource kind -> amount, e.g. {"cpu": 112, "memory": 192}
    power: PowerParams

    def __post_init__(self):
        if any(v <= 0 for v in self.capacity.values()):
            raise ValueError("all capacities must be positive")


@dataclass(frozen=True)
class Link:
    index: int
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


@dataclass(frozen=True)
class PathSet:
    source: int
    destination: int
    paths: tuple


class NetworkGraph:
    """Immutable-after-build constellation graph with a candidate-path cache.

    Node ids must be the contiguous range 0..N-1.  The path cache is filled
    lazily; the graph is otherwise read-only, so sharing across workers is
    safe as long as cache population stays single-writer.
    """

    def __init__(self, nodes: list, links: list):
        ids = [n.id for n in nodes]
        if sorted(ids) != list(range(len(nodes))):
            raise ValueError("node ids must be 0..N-1")
        self.nodes = sorted(nodes, key=lambda n: n.id)
        self.links = list(links)
        self._link_by_pair: dict = {}
        self._adj: dict = {n.id: [] for n in self.nodes}
        for link in self.links:
            key = (min(link.u, link.v), max(link.u, link.v))
            if key in self._link_by_pair:
                raise ValueError(f"duplicate link {key}")
            if link.u not in self._adj or link.v not in self._adj:
                raise ValueError("link endpoint is not a node")
            self._link_by_pair[key] = link
            self._adj[link.u].append((link.v, link.index))
            self._adj[link.v].append((link.u, link.index))
        self.total_bandwidth = sum(l.bandwidth for l in self.links)
        self.total_p_max = sum(n.power.p_max for n in self.nodes)
        self._nx = nx.Graph()
        self._nx.add_nodes_from(self._adj)
        for link in self.links:
            self._nx.add_edge(link.u, link.v, delay=link.delay)
        self._cache: dict = {}

    # -- path machinery ----------------------------------------------------

    def link_between(self, u: int, v: int):
        return self._link_by_pair.get((min(u, v), max(u, v)))

    def make_path(self, node_seq) -> Path:
        nodes = tuple(node_seq)
        links = []
        for a, b in zip(nodes, nodes[1:]):
            link = self.link_between(a, b)
            if link is None:
                raise ValueError(f"no link between {a} and {b}")
            links.append(link.index)
        delay = math.fsum(self.links[i].delay for i in links)
        return Path(nodes, tuple(links), delay)

    def k_shortest_paths(self, s: int, t: int, d: int) -> PathSet:
        """Up to ``d`` loopless shortest paths from s to t.

        Ranked by (total delay, hop count, node sequence); when ``s == t``
        the result is the single zero-hop path.  Raises `NoPath` when the
        endpoints are disconnected.
        """
        if d < 1:
            raise ValueError("d must be >= 1")
        if s not in self._adj or t not in self._adj:
            raise ValueError("unknown node id")
        key = (s, t, d)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if s == t:
            result = PathSet(s, t, (Path((s,), (), 0.0),))
        else:
            collected = []
            kth_delay = math.inf
            try:
                for node_seq in nx.shortest_simple_paths(self._nx, s, t, weight="delay"):
                    path = self.make_path(node_seq)
                    if len(collected) >= d and path.total_delay > kth_delay + 1e-9:
                        break
                    collected.append(path)
                    if len(collected) >= d:
                        kth_delay = sorted(p.total_delay for p in collected)[d - 1]
            except nx.NetworkXNoPath:
                raise NoPath(f"no route from {s} to {t}") from None
            collected.sort(key=lambda p: (p.total_delay, p.hop_count, p.nodes))
            result = PathSet(s, t, tuple(collected[:d]))
        self._cache[key] = result
        return result

    def candidate_sd_paths(self, s: int, dest: int, d: int) -> PathSet:
        """Candidate source-to-destination paths for one request.

        For distinct endpoints this is `k_shortest_paths`.  When source and
        destination sit on the same satellite, the candidates are the
        zero-hop path plus out-and-back walks to the ``d - 1`` nearest
        satellites (walk delay is twice the one-way shortest delay).
        """
        if s != dest:
            return self.k_shortest_paths(s, dest, d)
        key = ("sd", s, d)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if d < 1:
            raise ValueError("d must be >= 1")
        if s not in self._adj:
            raise ValueError("unknown node id")
        walks = []
        for v in sorted(self._adj):
            if v == s:
                continue
            try:
                leg = self.k_shortest_paths(s, v, 1).paths[0]
            except NoPath:
                continue
            walks.append((leg.total_delay, v, leg))
        walks.sort(key=lambda item: (item[0], item[1]))
        paths = [Path((s,), (), 0.0)]
        for _, _, leg in walks[: d - 1]:
            nodes = leg.nodes + leg.nodes[-2::-1]
            links = leg.links + leg.links[::-1]
            delay = math.fsum(self.links[i].delay for i in links)
            paths.append(Path(nodes, links, delay))
        result = PathSet(s, s, tuple(paths))
        self._cache[key] = result
        return result

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {"nodes": [asdict(n) for n in self.nodes], "links": [asdict(l) for l in self.links]}
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NetworkGraph":
        doc = json.loads(text)
        nodes = [SatelliteNode(**{**n, "power": PowerParams(**n["power"])}) for n in doc["nodes"]]
        links = [Link(**l) for l in doc["links"]]
        return cls(nodes, links)


def build_constellation(
    planes: int,
    sats_per_plane: int,
    intra_plane_km: float,
    inter_plane_km: float,
    capacity: dict,
    power: PowerParams,
    link_bandwidth: float,
) -> NetworkGraph:
    """Torus-wired constellation of ``planes x sats_per_plane`` satellites.

    Each satellite links to its ring neighbours within the plane
    (``intra_plane_km``) and to the same slot in the adjacent planes
    (``inter_plane_km``).  Wrap-around duplicates from 2-wide rings collapse
    to a single undirected link, so small configurations have degree < 4.
    """
    if planes < 1 or sats_per_plane < 1:
        raise ValueError("need at least one plane and one satellite per plane")
    nodes = [
        SatelliteNode(
            id=p * sats_per_plane + s,
            plane=p,
            slot_in_plane=s,
            capacity=dict(capacity),
            power=power,
        )
        for p in range(planes)
        for s in range(sats_per_plane)
    ]
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
    links = [
        Link(index=i, u=u, v=v, bandwidth=link_bandwidth, delay=link_delay(dist), distance=dist)
        for i, ((u, v), dist) in enumerate(sorted(edges.items()))
    ]
    return NetworkGraph(nodes, links)

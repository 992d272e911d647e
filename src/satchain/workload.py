"""User requests: service chains of VNFs with randomized resource demands."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .topology import NetworkGraph


@dataclass(frozen=True)
class VnfSpec:
    """One function in a chain; pseudo entries are the fixed chain endpoints."""

    cpu: float  # vCPUs
    memory: float  # GB
    exec_time: float  # ms
    is_pseudo: bool = False

    def __post_init__(self):
        if self.is_pseudo:
            if self.cpu or self.memory or self.exec_time:
                raise ValueError("pseudo VNFs carry no demands")
        elif self.cpu <= 0 or self.memory <= 0 or self.exec_time <= 0:
            raise ValueError("real VNFs need positive demands")


PSEUDO_VNF = VnfSpec(0.0, 0.0, 0.0, is_pseudo=True)


@dataclass(frozen=True)
class SfcEdge:
    from_index: int
    to_index: int
    bandwidth: float  # Mbps

    def __post_init__(self):
        if self.to_index != self.from_index + 1:
            raise ValueError("edges must follow the chain order")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")


@dataclass(frozen=True)
class UserRequest:
    """A chain request: pinned endpoints, ordered VNFs, delay and lifetime."""

    id: int
    source: int
    destination: int
    vnfs: tuple  # VnfSpec; vnfs[0] and vnfs[-1] are pseudo endpoints
    edges: tuple  # SfcEdge, one per consecutive pair
    max_delay: float  # ms
    arrival_slot: int = 0
    duration_slots: int = 1

    def __post_init__(self):
        if len(self.vnfs) < 2 or not (self.vnfs[0].is_pseudo and self.vnfs[-1].is_pseudo):
            raise ValueError("chain must be bracketed by pseudo endpoints")
        if len(self.edges) != len(self.vnfs) - 1:
            raise ValueError("need exactly one edge per consecutive VNF pair")
        # equality is reachable when source == destination and d == 1 leaves a
        # zero-delay candidate set, so >= rather than strict
        if self.max_delay < self.total_exec_time:
            raise ValueError("delay budget below total execution time")
        if self.duration_slots < 1:
            raise ValueError("duration must be at least one slot")

    @property
    def real_vnfs(self) -> tuple:
        return tuple(v for v in self.vnfs if not v.is_pseudo)

    @property
    def total_exec_time(self) -> float:
        return math.fsum(v.exec_time for v in self.vnfs)


@dataclass(frozen=True)
class WorkloadRanges:
    """Closed integer ranges the generator draws from, one per attribute."""

    vnf_count: tuple = (5, 10)
    cpu: tuple = (4, 8)  # vCPUs
    memory: tuple = (4, 16)  # GB
    exec_time: tuple = (10, 30)  # ms
    bandwidth: tuple = (10, 30)  # Mbps
    duration: tuple = (1, 4)  # slots

    def __post_init__(self):
        for lo, hi in (self.vnf_count, self.cpu, self.memory, self.exec_time, self.bandwidth, self.duration):
            if lo < 1 or hi < lo:
                raise ValueError("ranges must satisfy 1 <= lo <= hi")



def _acceptable_delay(source: int, destination: int, exec_total: float, graph: NetworkGraph, d: int) -> float:
    cset = graph.candidate_sd_paths(source, destination, d)
    mean_transit = math.fsum(p.total_delay for p in cset.paths) / len(cset.paths)
    return exec_total + mean_transit


def max_acceptable_delay(request: UserRequest, graph: NetworkGraph, d: int) -> float:
    """Delay budget: total execution time plus the mean candidate-path delay."""
    return _acceptable_delay(request.source, request.destination, request.total_exec_time, graph, d)


def generate_requests(
    count: int,
    graph: NetworkGraph,
    ranges: WorkloadRanges = WorkloadRanges(),
    rng_seed: int = 0,
    slot: int = 0,
    *,
    d: int = 8,
    start_id: int = 0,
) -> list:
    """Draw ``count`` requests, fully determined by ``(rng_seed, slot)``.

    Per request the draw order is: source, destination, VNF count, then
    (cpu, memory, exec time) per VNF, then bandwidth per chain edge, then
    duration.  All draws are uniform over the closed ranges; source and
    destination are independent and may coincide.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, slot]))
    n_nodes = len(graph.nodes)
    requests = []
    for i in range(count):
        source = int(rng.integers(0, n_nodes))
        destination = int(rng.integers(0, n_nodes))
        n_vnfs = int(rng.integers(ranges.vnf_count[0], ranges.vnf_count[1] + 1))
        vnfs = [PSEUDO_VNF]
        for _ in range(n_vnfs):
            cpu = float(rng.integers(ranges.cpu[0], ranges.cpu[1] + 1))
            memory = float(rng.integers(ranges.memory[0], ranges.memory[1] + 1))
            exec_time = float(rng.integers(ranges.exec_time[0], ranges.exec_time[1] + 1))
            vnfs.append(VnfSpec(cpu, memory, exec_time))
        vnfs.append(PSEUDO_VNF)
        edges = tuple(
            SfcEdge(j, j + 1, float(rng.integers(ranges.bandwidth[0], ranges.bandwidth[1] + 1)))
            for j in range(len(vnfs) - 1)
        )
        duration = int(rng.integers(ranges.duration[0], ranges.duration[1] + 1))
        exec_total = math.fsum(v.exec_time for v in vnfs)
        requests.append(
            UserRequest(
                id=start_id + i,
                source=source,
                destination=destination,
                vnfs=tuple(vnfs),
                edges=edges,
                max_delay=_acceptable_delay(source, destination, exec_total, graph, d),
                arrival_slot=slot,
                duration_slots=duration,
            )
        )
    return requests


def workload_to_json(requests: list) -> str:
    """Serialize a workload so a run can be replayed byte-for-byte."""
    return json.dumps([asdict(r) for r in requests], indent=2)


def workload_from_json(text: str) -> list:
    return [
        UserRequest(
            **{
                **doc,
                "vnfs": tuple(VnfSpec(**v) for v in doc["vnfs"]),
                "edges": tuple(SfcEdge(**e) for e in doc["edges"]),
            }
        )
        for doc in json.loads(text)
    ]

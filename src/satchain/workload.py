"""User requests: service chains of VNFs with randomized resource demands."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

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
class UserRequest:
    """A chain request: pinned endpoints, ordered VNFs, delay and lifetime."""

    id: int
    source: int
    destination: int
    vnfs: tuple  # VnfSpec; vnfs[0] and vnfs[-1] are pseudo endpoints
    bandwidths: tuple  # Mbps per chain edge, one per consecutive VNF pair
    max_delay: float  # ms
    arrival_slot: int = 0
    duration_slots: int = 1

    def __post_init__(self):
        if len(self.vnfs) < 2 or not (self.vnfs[0].is_pseudo and self.vnfs[-1].is_pseudo):
            raise ValueError("chain must be bracketed by pseudo endpoints")
        if len(self.bandwidths) != len(self.vnfs) - 1:
            raise ValueError("need exactly one bandwidth per consecutive VNF pair")
        if any(bandwidth <= 0 for bandwidth in self.bandwidths):
            raise ValueError("bandwidth must be positive")
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
        for f in fields(self):
            check_bounds(f"ranges.{f.name}", getattr(self, f.name), 1)


# accepted types per field annotation; a bool, which is an int to isinstance, passes only a "bool" field
_FIELD_TYPES = {
    "int": int, "float": (int, float), "int | None": (int, type(None)), "str": str, "bool": bool, "tuple": (tuple, list)
}


def has_type(value, annotation: str) -> bool:
    """True when `value` may fill a config field annotated `annotation` (a key of `_FIELD_TYPES`)."""
    return isinstance(value, _FIELD_TYPES[annotation]) and (annotation == "bool" or not isinstance(value, bool))


def check_types(config, prefix: str = "") -> None:
    """Raise ValueError naming the first field of dataclass `config` whose value
    has the wrong type; a field with a dataclass default takes that class."""
    for f in fields(config):
        value = getattr(config, f.name)
        if not (isinstance(value, type(f.default)) if is_dataclass(f.default) else has_type(value, f.type)):
            raise ValueError(f"{prefix}{f.name} must be {f.type}, not {value!r}")


def check_bounds(name: str, bounds, low: int) -> None:
    """Raise ValueError naming `name` unless `bounds` is two ints (not bools) lo, hi with low <= lo <= hi."""
    if not (
        isinstance(bounds, (tuple, list))
        and len(bounds) == 2
        and all(isinstance(v, int) and not isinstance(v, bool) for v in bounds)
        and low <= bounds[0] <= bounds[1]
    ):
        raise ValueError(f"{name} must be two ints lo, hi with {low} <= lo <= hi, not {bounds!r}")


def acceptable_delay(source: int, destination: int, exec_total: float, graph: NetworkGraph, d: int) -> float:
    """Delay budget: total execution time plus the mean candidate-path delay."""
    paths = graph.candidate_sd_paths(source, destination, d)
    return exec_total + math.fsum(p.total_delay for p in paths) / len(paths)


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
        bandwidths = tuple(
            float(rng.integers(ranges.bandwidth[0], ranges.bandwidth[1] + 1)) for _ in range(len(vnfs) - 1)
        )
        duration = int(rng.integers(ranges.duration[0], ranges.duration[1] + 1))
        exec_total = math.fsum(v.exec_time for v in vnfs)
        requests.append(
            UserRequest(
                id=start_id + i,
                source=source,
                destination=destination,
                vnfs=tuple(vnfs),
                bandwidths=bandwidths,
                max_delay=acceptable_delay(source, destination, exec_total, graph, d),
                arrival_slot=slot,
                duration_slots=duration,
            )
        )
    return requests

"""Experiment drivers: batch allocation, slotted on-line simulation, and the
two-factor orthogonal parameter sweep, with tidy CSV/JSON emission.

All runs are pure functions of (config, seed): workloads derive from
``(seed, slot)``, sweep repetitions from ``(seed, request_count, repetition)``
via the seeded streams of `satchain.stream`, so any cell of any experiment
can be replayed in isolation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from dataclasses import asdict, astuple, dataclass, fields, is_dataclass, replace

from .costing import (
    CommittedPlacement,
    ContextView,
    SlotContext,
    StrategyProfile,
    Weights,
    check_feasibility,
    network_payoff,
)
from .energy import PowerParams, ServerFleet
from .game import pgra_run
from .placement import best_response, greedy_place
from .stream import generate_state
from .topology import NetworkGraph, SatelliteNode, build_constellation
from .workload import WorkloadRanges, arrival_count, check_bounds, check_types, generate_requests, has_type

ALGORITHMS = ("pgra", "viterbi", "greedy")


@dataclass
class SimulationConfig:
    """Everything a run needs; round-trips through JSON (see `to_json`)."""

    planes: int = 3
    sats_per_plane: int = 2
    intra_plane_km: float = 600.0
    inter_plane_km: float = 400.0
    link_bandwidth: float = 100.0
    cpu: float = 112.0
    memory: float = 192.0
    p_idle: float = 49.9
    p_max: float = 415.0
    t_idle_max: int = 3
    t_off_min: int = 1
    ranges: WorkloadRanges = WorkloadRanges()
    weights: Weights = Weights()
    num_paths: int = 8
    beam_width: int | None = 4
    k_max: int = 100
    idle_charge: str = "once"
    requests: int = 10
    slots: int = 50
    requests_per_slot: tuple = (5, 10)
    validate_each_step: bool = False

    def __post_init__(self):
        check_types(self)
        for name in ("planes", "sats_per_plane", "intra_plane_km", "inter_plane_km", "link_bandwidth"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, not {getattr(self, name)}")
        if self.idle_charge not in ("once", "per_vnf"):
            raise ValueError("idle_charge must be 'once' or 'per_vnf'")
        if self.requests < 0:  # a zero-request batch still emits its one row
            raise ValueError("requests must be >= 0")
        if self.slots < 1:
            raise ValueError("slots must be >= 1")
        check_bounds("requests_per_slot", self.requests_per_slot, 0)
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1 (or None for unlimited)")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        self.node()  # SatelliteNode and PowerParams check the node, power and timing fields

    def with_nodes(self, total: int) -> "SimulationConfig":
        if total % self.planes:
            raise ValueError(f"{total} satellites do not divide into {self.planes} planes")
        return replace(self, sats_per_plane=total // self.planes)

    def node(self) -> SatelliteNode:
        """The satellite that every node of the constellation repeats."""
        power = PowerParams(self.p_idle, self.p_max, self.t_idle_max, self.t_off_min)
        return SatelliteNode(self.cpu, self.memory, power)

    def build_graph(self) -> NetworkGraph:
        return build_constellation(
            self.planes, self.sats_per_plane, self.intra_plane_km, self.inter_plane_km, self.node(), self.link_bandwidth
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        """Parse `to_json` output; absent keys keep their defaults.  An unknown
        key or a value of the wrong JSON type raises ValueError naming the key."""
        return _from_section(cls, json.loads(text), "the top level")


def _from_section(kind, doc, section: str):
    """Build dataclass `kind` from one JSON object; lists become tuples and objects sections."""
    if not isinstance(doc, dict):
        raise ValueError(f"{section} must be a JSON object, not {json.dumps(doc)}")
    by_name = {f.name: f for f in fields(kind)}
    unknown = sorted(set(doc) - set(by_name))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r} in {section}")
    values = {}
    for key, value in doc.items():
        field = by_name[key]
        if is_dataclass(field.default):
            value = _from_section(type(field.default), value, f"section {key!r}")
        elif not has_type(value, field.type):
            raise ValueError(f"config key {key!r} in {section} must be {field.type}, not {json.dumps(value)}")
        values[key] = tuple(value) if isinstance(value, list) else value
    return kind(**values)


@dataclass(frozen=True)
class SlotMetrics:
    slot: int
    algorithm: str
    seed: int
    phi: float
    allocated_fraction: float
    mean_bw: float
    mean_power: float
    mean_delay: float
    iterations: int


def _assert_feasible(profile: StrategyProfile, graph: NetworkGraph, what: str) -> None:
    violations = check_feasibility(profile, graph)
    if violations:
        raise AssertionError(f"{what}: {violations[:3]}")


def _allocate(algorithm, requests, graph, context, config: SimulationConfig):
    """Run one allocation round; returns (profile, iterations used).

    A `pgra` slot cut off by ``k_max`` before it converged warns.
    """
    if algorithm == "pgra":
        on_commit = None
        if config.validate_each_step:
            on_commit = lambda profile: _assert_feasible(profile, graph, "infeasible committed profile")
        profile, trace = pgra_run(requests, graph, context, config, on_commit=on_commit)
        if not trace.converged:
            warnings.warn(
                f"slot {context.slot}: pgra stopped at k_max={config.k_max} before converging", RuntimeWarning
            )
        return profile, trace.iterations
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    place = best_response if algorithm == "viterbi" else greedy_place
    profile = StrategyProfile.empty(requests, context)
    # one view for the round: it holds the committed set, then each placement
    # as it is made, in the id order a fresh build would hold them in
    view = ContextView.build(graph, profile)
    for rid, request in profile.requests.items():
        strategy = place(request, profile, graph, config, view=view)
        if strategy is not None:
            profile.strategies[rid] = strategy
            view.hold(request, strategy, request.duration_slots >= 2)
    return profile, 1


def _metrics(profile: StrategyProfile, slot, algorithm, seed, iterations) -> SlotMetrics:
    allocated = [profile.strategies[rid] for rid in profile.allocated_ids()]
    total = len(profile.strategies)
    fraction = 1.0 if total == 0 else len(allocated) / total
    if allocated:
        mean_bw = math.fsum(s.cost.bw for s in allocated) / len(allocated)
        mean_power = math.fsum(s.cost.power for s in allocated) / len(allocated)
        mean_delay = math.fsum(s.cost.delay for s in allocated) / len(allocated)
    else:
        mean_bw = mean_power = mean_delay = 0.0
    return SlotMetrics(
        slot=slot,
        algorithm=algorithm,
        seed=seed,
        phi=network_payoff(profile),
        allocated_fraction=fraction,
        mean_bw=mean_bw,
        mean_power=mean_power,
        mean_delay=mean_delay,
        iterations=iterations,
    )


def _check_seed(seed: int) -> None:
    """Raise ValueError naming the seed unless a seeded stream takes it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")


def run_batch(config: SimulationConfig, algorithm: str, seed: int, graph: NetworkGraph | None = None) -> SlotMetrics:
    """One batch of requests, one allocation algorithm: slot 0 of an on-line run."""
    _check_seed(seed)
    sim = OnlineSimulation(config, graph)
    config = sim.config
    requests = generate_requests(config.requests, sim.graph, config.ranges, seed, slot=0, d=config.num_paths)
    return sim.step(0, requests, algorithm, seed)


class OnlineSimulation:
    """Slot-stepped simulation: expiry, server-state advance, placement.

    Per slot: release requests whose lifetime ended, advance every server
    state machine under the surviving occupancy, place the new arrivals with
    the survivors as fixed context, then switch freshly loaded servers on
    (restarts spend the slot in setup).  A per-slot audit timeline of
    (slot, node, mode, power) accumulates on the fleet.
    """

    def __init__(self, config: SimulationConfig, graph: NetworkGraph | None = None):
        self.config = replace(config)  # checks again any field assigned after construction
        self.graph = graph if graph is not None else self.config.build_graph()
        self.fleet = ServerFleet(self.graph.nodes)
        self.running: list = []
        self.next_id = 0

    def context(self, slot: int) -> SlotContext:
        """What a placement decision in `slot` sees: server states and the running set."""
        return SlotContext(slot, dict(self.fleet.states), list(self.running))

    def step(self, slot: int, new_requests: list, algorithm: str, seed: int) -> SlotMetrics:
        self.running = [p for p in self.running if p.end_slot >= slot]
        tally = ContextView.tally(self.graph, self.context(slot), ((p.request, p.strategy) for p in self.running))
        if slot > 0:
            self.fleet.advance({host for host, free in enumerate(tally.free_cpu) if free}, slot)
        profile, iterations = _allocate(algorithm, new_requests, self.graph, self.context(slot), self.config)
        if self.config.validate_each_step:
            _assert_feasible(profile, self.graph, f"slot {slot}: infeasible profile")
        for rid in profile.allocated_ids():
            request, strategy = profile.requests[rid], profile.strategies[rid]
            self.running.append(CommittedPlacement(request, strategy, slot + request.duration_slots - 1))
            tally.hold(request, strategy, False)
        allocated_cpu = {host: -free for host, free in enumerate(tally.free_cpu) if free}
        self.fleet.mark_service(set(allocated_cpu))
        self.fleet.record(slot, allocated_cpu)
        return _metrics(profile, slot, algorithm, seed, iterations)


def run_online(config: SimulationConfig, algorithm: str, seed: int, graph: NetworkGraph | None = None) -> list:
    """Time-slotted run; per slot, a fresh uniform batch of arrivals."""
    _check_seed(seed)
    sim = OnlineSimulation(config, graph)
    config = sim.config
    results = []
    for slot in range(config.slots):
        count = arrival_count(seed, slot, config.requests_per_slot)
        arrivals = generate_requests(
            count, sim.graph, config.ranges, seed, slot=slot, d=config.num_paths, start_id=sim.next_id
        )
        sim.next_id += count
        results.append(sim.step(slot, arrivals, algorithm, seed))
    return results


# -- parameter sweep ---------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    number: int  # the (d, beam) cell
    d: int
    beam: int | None
    requests: int
    mean_phi: float


@dataclass
class TaguchiResult:
    """L16-style sweep output: one row per (paths, beam) cell and request
    count, plus per-factor main effects (mean over rows sharing a level)."""

    rows: list  # SweepRow
    effects: dict  # factor -> {level -> {requests -> mean phi}}

    def to_csv_text(self) -> str:
        return emit_text(self.rows, "csv")

    def to_json_text(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def derive_seed(master: int, *parts: int) -> int:
    """Stable sub-seed for one experiment cell."""
    return generate_state([master, *parts], 1, 64)[0] % 2**63


def check_sweep(config: SimulationConfig, d_levels, b_levels, m_values, repetitions: int) -> None:
    """Raise ValueError naming the field when a sweep level or the repetition
    count is out of range, or when the beam levels mix None with widths; each
    level goes through the config's validation."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    for name, levels in (("num_paths", d_levels), ("beam_width", b_levels), ("requests", m_values)):
        if not levels:
            raise ValueError(f"no {name} levels to sweep")
        for level in levels:
            replace(config, **{name: level})
    if None in b_levels and any(level is not None for level in b_levels):  # the effects sort cannot order them
        raise ValueError("beam_width levels cannot mix None (unlimited) with widths")


def run_taguchi(
    config: SimulationConfig,
    d_levels=(1, 2, 4, 8),
    b_levels=(1, 2, 4, 8),
    m_values=(10, 20, 30),
    repetitions: int = 10,
    seed: int = 0,
    graph: NetworkGraph | None = None,
) -> TaguchiResult:
    """Full-factorial sweep of candidate-path count and beam width.

    Repetition seeds depend only on (seed, request count, repetition), so
    every (d, beam) cell sees the same workloads and cells are directly
    comparable.
    """
    _check_seed(seed)
    check_sweep(config, d_levels, b_levels, m_values, repetitions)
    if graph is None:
        graph = config.build_graph()
    rows = []
    number = 0
    for d in d_levels:
        for beam in b_levels:
            cell_cfg = replace(config, num_paths=d, beam_width=beam)
            for m in m_values:
                phis = []
                for rep in range(repetitions):
                    run_cfg = replace(cell_cfg, requests=m)
                    phis.append(run_batch(run_cfg, "pgra", derive_seed(seed, m, rep), graph=graph).phi)
                rows.append(SweepRow(number, d, beam, m, math.fsum(phis) / len(phis)))
            number += 1
    effects: dict = {"d": {}, "beam": {}}
    for factor in effects:
        for level in sorted({getattr(row, factor) for row in rows}):
            per_m: dict = {}
            for m in m_values:
                cells = [row.mean_phi for row in rows if getattr(row, factor) == level and row.requests == m]
                per_m[m] = math.fsum(cells) / len(cells)
            effects[factor][level] = per_m
    return TaguchiResult(rows, effects)


# -- emission ----------------------------------------------------------------


def emit_text(rows: list, fmt: str) -> str:
    """CSV or JSON text of dataclass rows, keyed by their fields; bit-stable for fixed inputs."""
    if not rows:
        raise ValueError("nothing to emit")
    if fmt == "json":
        return json.dumps([asdict(row) for row in rows], indent=2)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(f.name for f in fields(rows[0]))
        # the csv module writes floats with repr(), so rows are bit-stable
        writer.writerows(astuple(row) for row in rows)
        return out.getvalue()
    raise ValueError(f"unknown format {fmt!r}")

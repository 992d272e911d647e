import pytest

from satchain.costing import ContextView, SlotContext, StrategyProfile, Weights
from satchain.energy import Mode, PowerParams, ServerState
from satchain.topology import Link, NetworkGraph, SatelliteNode, build_constellation
from satchain.workload import PSEUDO_VNF, SfcEdge, UserRequest, VnfSpec

TABLE_POWER = PowerParams(p_idle=49.9, p_max=415.0, t_idle_max=3, t_off_min=1)
TABLE_CAPACITY = {"cpu": 112.0, "memory": 192.0}


def make_graph(n_nodes, edges, bandwidth=100.0, capacity=None, capacities=None, power=TABLE_POWER):
    """Hand-built graph; edges are (u, v, delay_ms) triples."""
    nodes = []
    for i in range(n_nodes):
        cap = capacities[i] if capacities else dict(capacity or TABLE_CAPACITY)
        nodes.append(SatelliteNode(id=i, plane=0, slot_in_plane=i, capacity=dict(cap), power=power))
    links = [
        Link(index=k, u=u, v=v, bandwidth=bandwidth, delay=delay, distance=delay)
        for k, (u, v, delay) in enumerate(edges)
    ]
    return NetworkGraph(nodes, links)


def ring_graph(n, delay=1.0, bandwidth=100.0, capacity=None):
    edges = [(i, (i + 1) % n, delay) for i in range(n)]
    return make_graph(n, edges, bandwidth=bandwidth, capacity=capacity)


def idle_context(graph, slot=0, idle_charge="once"):
    states = {node.id: ServerState(Mode.IDLE, idle_since=slot) for node in graph.nodes}
    return SlotContext(slot, states, [], idle_charge)


def make_request(
    request_id,
    source,
    destination,
    vnf_specs=(),
    edge_bw=10.0,
    max_delay=1e6,
    duration=1,
    arrival_slot=0,
):
    """Chain request from (cpu, memory, exec) triples, endpoints added."""
    vnfs = [PSEUDO_VNF] + [VnfSpec(cpu, mem, exec_time) for cpu, mem, exec_time in vnf_specs] + [PSEUDO_VNF]
    if isinstance(edge_bw, (int, float)):
        bws = [float(edge_bw)] * (len(vnfs) - 1)
    else:
        bws = list(edge_bw)
    edges = tuple(SfcEdge(i, i + 1, bws[i]) for i in range(len(vnfs) - 1))
    return UserRequest(
        id=request_id,
        source=source,
        destination=destination,
        vnfs=tuple(vnfs),
        edges=edges,
        max_delay=max_delay,
        arrival_slot=arrival_slot,
        duration_slots=duration,
    )


MODES = (Mode.IDLE, Mode.ON, Mode.OFF_AVAILABLE, Mode.OFF_UNAVAILABLE)


def random_micro_instance(rng, nodes=(3, 5)):
    """A small ring with mixed delays, light load, and one micro request.

    The ring has ``rng.integers(*nodes)`` satellites (two joined by one link).
    Every server is in a random mode under a random idle-charging rule, and
    the returned view also sets next-slot service and idle-baseline ownership
    at random, so the kernel's power rule meets every case of
    `vnf_power_attribution`.  ``rng`` needs only numpy's ``integers``.
    Returns (graph, context, request, view).
    """
    n = int(rng.integers(*nodes))
    delays = [float(rng.integers(1, 5)) for _ in range(n)]
    graph = make_graph(
        n,
        [(i, (i + 1) % n, delays[i]) for i in range(n if n > 2 else 1)],
        capacity={"cpu": float(rng.integers(8, 20)), "memory": 64.0},
    )
    context = idle_context(graph, slot=2, idle_charge=("once", "per_vnf")[int(rng.integers(2))])
    for node in graph.nodes:
        mode = MODES[int(rng.integers(len(MODES)))]
        if mode is Mode.IDLE:
            context.server_states[node.id] = ServerState(mode, idle_since=1)
        else:
            context.server_states[node.id] = ServerState(mode, off_since=0 if mode is Mode.OFF_AVAILABLE else 2)
    n_vnfs = int(rng.integers(1, 4))
    specs = [
        (float(rng.integers(2, 6)), float(rng.integers(1, 5)), float(rng.integers(5, 15)))
        for _ in range(n_vnfs)
    ]
    source = int(rng.integers(n))
    dest = int(rng.integers(n))
    request = make_request(
        0,
        source,
        dest,
        specs,
        edge_bw=float(rng.integers(10, 31)),
        max_delay=float(rng.integers(40, 120)),
        duration=int(rng.integers(1, 3)),
    )
    view = ContextView.build(graph, StrategyProfile.empty([request], context), exclude=request.id)
    view.serves_next = [bool(rng.integers(2)) for _ in range(n)]
    view.idle_charged = [bool(rng.integers(2)) for _ in range(n)]
    return graph, context, request, view


@pytest.fixture
def graph6():
    return build_constellation(3, 2, 600.0, 400.0, dict(TABLE_CAPACITY), TABLE_POWER, 100.0)


@pytest.fixture
def thirds():
    return Weights()

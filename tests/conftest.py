import pytest

from satchain.costing import ContextView, SlotContext, StrategyProfile, Weights
from satchain.energy import Mode, PowerParams, ServerState
from satchain.topology import Link, NetworkGraph, SatelliteNode, build_constellation
from satchain.workload import PSEUDO_VNF, UserRequest, VnfSpec

TABLE_POWER = PowerParams(p_idle=49.9, p_max=415.0, t_idle_max=3, t_off_min=1)
TABLE_NODE = SatelliteNode(cpu=112.0, memory=192.0, power=TABLE_POWER)


def make_graph(n_nodes, edges, bandwidth=100.0, cpu=TABLE_NODE.cpu, memory=TABLE_NODE.memory, nodes=None):
    """Hand-built graph; edges are (u, v, delay_ms) triples.  Each of the
    ``n_nodes`` nodes has ``cpu`` and ``memory`` unless ``nodes`` lists them."""
    if nodes is None:
        nodes = [SatelliteNode(cpu, memory, TABLE_POWER)] * n_nodes
    links = [Link(u, v, bandwidth, delay, distance=delay) for u, v, delay in edges]
    return NetworkGraph(nodes, links)


def ring_graph(n, delay=1.0, bandwidth=100.0):
    edges = [(i, (i + 1) % n, delay) for i in range(n)]
    return make_graph(n, edges, bandwidth=bandwidth)


def idle_context(graph, slot=0):
    states = {i: ServerState(Mode.IDLE, idle_since=slot) for i in range(len(graph.nodes))}
    return SlotContext(slot, states, [])


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
        bandwidths = (float(edge_bw),) * (len(vnfs) - 1)
    else:
        bandwidths = tuple(edge_bw)
    return UserRequest(
        id=request_id,
        source=source,
        destination=destination,
        vnfs=tuple(vnfs),
        bandwidths=bandwidths,
        max_delay=max_delay,
        arrival_slot=arrival_slot,
        duration_slots=duration,
    )


MODES = (Mode.IDLE, Mode.ON, Mode.OFF_AVAILABLE, Mode.OFF_UNAVAILABLE)


def random_micro_instance(rng, nodes=(3, 5)):
    """A small ring with mixed delays, light load, and one micro request.

    The ring has ``rng.integers(*nodes)`` satellites (two joined by one link).
    Every server is in a random mode, and the returned view also sets the
    holder counts behind next-slot service and idle-baseline ownership to
    random values from 0 to 2, so the kernel's power rule meets every case of
    `vnf_power_attribution` and a count above 1.  The idle-charging rule is
    drawn too, for the caller's config.  ``rng`` needs only numpy's
    ``integers``.  Returns (graph, context, request, view, idle_charge).
    """
    n = int(rng.integers(*nodes))
    delays = [float(rng.integers(1, 5)) for _ in range(n)]
    graph = make_graph(
        n,
        [(i, (i + 1) % n, delays[i]) for i in range(n if n > 2 else 1)],
        cpu=float(rng.integers(8, 20)),
        memory=64.0,
    )
    idle_charge = ("once", "per_vnf")[int(rng.integers(2))]
    context = idle_context(graph, slot=2)
    for i in range(n):
        mode = MODES[int(rng.integers(len(MODES)))]
        if mode is Mode.IDLE:
            context.server_states[i] = ServerState(mode, idle_since=1)
        else:
            context.server_states[i] = ServerState(mode, off_since=0 if mode is Mode.OFF_AVAILABLE else 2)
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
    view.serving = [int(rng.integers(3)) for _ in range(n)]
    view.idling = [int(rng.integers(3)) for _ in range(n)]
    return graph, context, request, view, idle_charge


@pytest.fixture
def graph6():
    return build_constellation(3, 2, 600.0, 400.0, TABLE_NODE, 100.0)


@pytest.fixture
def thirds():
    return Weights()

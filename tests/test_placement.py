import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satchain import harness, placement
from satchain.costing import ContextView, Strategy, StrategyProfile, Weights, check_feasibility
from satchain.energy import Mode, ServerState
from satchain.game import pgra_run
from satchain.harness import SimulationConfig
from satchain.placement import best_response, greedy_place, viterbi_place
from satchain.topology import Link, NetworkGraph, SatelliteNode
from satchain.workload import generate_requests

from conftest import MODES, TABLE_POWER, idle_context, make_graph, make_request, random_micro_instance
from oracles import enumerate_best_placement


class DrawnRng:
    """The part of numpy's Generator that `random_micro_instance` uses, drawn
    through Hypothesis so that a failing example shrinks."""

    def __init__(self, data):
        self.data = data

    def integers(self, low, high=None):
        if high is None:
            low, high = 0, low
        return self.data.draw(st.integers(low, high - 1))


def drawn_game(data, divisor=10):
    """(requests, graph, context, config) of a pgra slot on a drawn 2-7-node ring.

    Capacities, demands and bandwidths are drawn in tenths (10.1 CPU, 2.7 per
    VNF), so that ``free - used`` rounds, or with ``divisor=1`` as whole
    numbers ten times as large; servers take every mode, and the requests mix
    single- and multi-slot durations.
    """
    graph = drawn_ring(data, divisor)
    n = len(graph.nodes)
    idle_charge = data.draw(st.sampled_from(("once", "per_vnf")))
    context = idle_context(graph, slot=2)
    for i in range(n):
        mode = data.draw(st.sampled_from(MODES))
        if mode is Mode.IDLE:
            context.server_states[i] = ServerState(mode, idle_since=1)
        else:
            context.server_states[i] = ServerState(mode, off_since=0 if mode is Mode.OFF_AVAILABLE else 2)
    requests = drawn_requests(data, n, divisor)
    config = SimulationConfig(
        num_paths=data.draw(st.integers(1, 4)), beam_width=data.draw(st.integers(1, 4)), idle_charge=idle_charge
    )
    return requests, graph, context, config


def drawn_ring(data, divisor, power=lambda: TABLE_POWER):
    """`drawn_game`'s 2-7-node ring; each node's power parameters come from `power()`."""
    amount = lambda lo, hi: data.draw(st.integers(lo, hi)) / divisor
    n = data.draw(st.integers(2, 7))
    nodes = [SatelliteNode(amount(50, 150), amount(50, 150), power()) for _ in range(n)]
    links = [
        Link(i, (i + 1) % n, amount(50, 400), float(data.draw(st.integers(1, 4))), 1.0)
        for i in range(n if n > 2 else 1)
    ]
    return NetworkGraph(nodes, links)


def drawn_requests(data, n, divisor, start_id=0):
    """2-5 requests of `drawn_game`'s loads between nodes of an `n`-node ring,
    with ids counting up from `start_id`."""
    amount = lambda lo, hi: data.draw(st.integers(lo, hi)) / divisor
    return [
        make_request(
            rid,
            data.draw(st.integers(0, n - 1)),
            data.draw(st.integers(0, n - 1)),
            [(amount(10, 60), amount(10, 60), 10.0) for _ in range(data.draw(st.integers(1, 3)))],
            edge_bw=amount(50, 300),
            max_delay=float(data.draw(st.integers(40, 120))),
            duration=data.draw(st.integers(1, 3)),
        )
        for rid in range(start_id, start_id + data.draw(st.integers(2, 5)))
    ]


def assert_same_view(view, fresh):
    """Free values bit for bit, and modes and holder counts equal."""
    for name in ("free_cpu", "free_mem", "free_bw"):
        assert [x.hex() for x in getattr(view, name)] == [x.hex() for x in getattr(fresh, name)]
    for name in ("mode", "serving", "idling"):
        assert getattr(view, name) == getattr(fresh, name)


def independent_best_response(request, profile, graph, config):
    """`best_response` rebuilt from one `viterbi_place` call per distinct
    corridor, each with its own table and no certificate."""
    view = ContextView.build(graph, profile, exclude=request.id)
    corridors = {}
    for path in graph.candidate_sd_paths(request.source, request.destination, config.num_paths):
        corridors.setdefault(frozenset(path.nodes), path)
    placed = [viterbi_place(request, path, view, graph, config) for path in corridors.values()]
    ranked = [(-s.payoff, sum(r.hop_count for r in s.routes), s.hosts, s) for s in placed if s is not None]
    return min(ranked, key=lambda entry: entry[:3])[3] if ranked else None


def assert_best_responses_match_independent_runs(requests, graph, context, config):
    """Commit each request's best response in turn, twice round, so later
    views carry load and the second round meets certificates sealed on
    earlier views; each must equal `independent_best_response`, with and
    without a memo."""
    profile = StrategyProfile.empty(requests, context)
    memo = {}
    for request in requests * 2:
        expected = independent_best_response(request, profile, graph, config)
        assert best_response(request, profile, graph, config) == expected
        assert best_response(request, profile, graph, config, memo) == expected
        if expected is not None:
            profile.strategies[request.id] = expected


def interleave_memo_calls(data, divisor, check):
    """Interleave memo'd best responses with direct writes to the profile:
    commits, drops to unallocated and restores of an earlier strategy.  After
    each memo'd call, ``check(kept, graph, profile, request)`` runs on the
    request's memo entry."""
    requests, graph, context, config = drawn_game(data, divisor)
    profile = StrategyProfile.empty(requests, context)
    memo, given = {}, {r.id: [] for r in requests}
    for _ in range(data.draw(st.integers(8, 40))):
        request = data.draw(st.sampled_from(requests))
        action = data.draw(st.sampled_from(("respond", "respond", "commit", "drop", "restore")))
        if action == "respond":
            best_response(request, profile, graph, config, memo)
            check(memo[request.id], graph, profile, request)
        elif action == "commit":
            strategy = best_response(request, profile, graph, config)
            if strategy is not None:
                given[request.id].append(strategy)
                profile.strategies[request.id] = strategy
        elif action == "drop":
            profile.strategies[request.id] = Strategy.unallocated(request.id)
        elif given[request.id]:
            profile.strategies[request.id] = data.draw(st.sampled_from(given[request.id]))


def assert_kept_views_match_fresh_builds(data, divisor):
    """After each memo'd call of `interleave_memo_calls`, the request's kept
    view must equal a fresh build, its free values bit for bit."""

    def check(kept, graph, profile, request):
        assert kept.whole or divisor != 1
        assert_same_view(kept.view, ContextView.build(graph, profile, exclude=request.id))

    interleave_memo_calls(data, divisor, check)


def assert_moved_sets_cover_every_change(data, divisor):
    """At each catch-up of `interleave_memo_calls`, the nodes and links it
    names as moved must contain every node and link whose free value or
    holder count differs from the view before the call, and the certificate
    must hold on the moved sets exactly when it holds on every node and
    link."""
    catch_up = placement._Kept.catch_up
    per_node = ("free_cpu", "free_mem", "serving", "idling")

    def checked(kept, graph, profile, request_id):
        before = {name: list(getattr(kept.view, name)) for name in (*per_node, "free_bw")}
        nodes, links = catch_up(kept, graph, profile, request_id)
        view = kept.view
        changed_nodes = {
            i for name in per_node for i, value in enumerate(getattr(view, name)) if value != before[name][i]
        }
        changed_links = {k for k, free in enumerate(view.free_bw) if free != before["free_bw"][k]}
        assert changed_nodes <= set(nodes) and changed_links <= set(links)
        every = range(len(graph.nodes)), range(len(graph.links))
        assert kept.certificate.holds(view, nodes, links) == kept.certificate.holds(view, *every)
        return nodes, links

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement._Kept, "catch_up", checked)
        interleave_memo_calls(data, divisor, lambda *args: None)


def empty_profile(graph, context, *requests):
    return StrategyProfile.empty(list(requests), context)


def fresh_view(graph, profile, request):
    return ContextView.build(graph, profile, exclude=request.id)


class TestViterbiPlace:
    def test_pseudo_only_chain_pays_nothing(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 4, 4, [], max_delay=10.0)
        profile = empty_profile(graph6, context, request)
        path = graph6.candidate_sd_paths(4, 4, 1)[0]
        strategy = viterbi_place(request, path, fresh_view(graph6, profile, request), graph6, SimulationConfig())
        assert strategy is not None
        assert strategy.hosts == (4, 4)
        assert strategy.routes[0].nodes == (4,)
        assert strategy.cost.payoff == 1.0

    def test_full_source_pushes_vnf_to_neighbour(self):
        # two satellites; the endpoint node is too small for the single VNF
        graph = make_graph(
            2, [(0, 1, 1.5)], nodes=[SatelliteNode(2.0, 64.0, TABLE_POWER), SatelliteNode(112.0, 64.0, TABLE_POWER)]
        )
        context = idle_context(graph)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], max_delay=50.0)
        profile = empty_profile(graph, context, request)
        config = SimulationConfig(num_paths=2, beam_width=4)
        view = fresh_view(graph, profile, request)
        zero_hop, out_and_back = graph.candidate_sd_paths(0, 0, 2)
        assert viterbi_place(request, zero_hop, view, graph, config) is None
        strategy = viterbi_place(request, out_and_back, view, graph, config)
        assert strategy.hosts == (0, 1, 0)
        assert [r.nodes for r in strategy.routes] == [(0, 1), (1, 0)]

    def test_unlimited_beam_matches_exhaustive_search(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(400):
            graph, _, request, view, idle_charge = random_micro_instance(rng)
            config = SimulationConfig(num_paths=2, beam_width=None, idle_charge=idle_charge)
            for path in graph.candidate_sd_paths(request.source, request.destination, 2):
                expected = enumerate_best_placement(request, path, view, graph, config)
                got = viterbi_place(request, path, view, graph, config)
                if expected is None:
                    assert got is None
                    continue
                checked += 1
                assert got is not None
                assert abs(got.cost.payoff - expected[0]) <= 1e-12
                assert got.hosts == expected[1]
        assert checked >= 500

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_unlimited_beam_matches_exhaustive_search_on_drawn_rings(self, data):
        graph, _, request, view, idle_charge = random_micro_instance(DrawnRng(data), nodes=(2, 8))
        # tight link headroom, so that ranked routes get rejected
        view.free_bw = [float(data.draw(st.integers(10, 100))) for _ in graph.links]
        d = data.draw(st.integers(1, 4))
        config = SimulationConfig(num_paths=d, beam_width=None, idle_charge=idle_charge)
        for path in graph.candidate_sd_paths(request.source, request.destination, d):
            expected = enumerate_best_placement(request, path, view, graph, config)
            got = viterbi_place(request, path, view, graph, config)
            if expected is None:
                assert got is None
                continue
            assert got is not None
            assert abs(got.cost.payoff - expected[0]) <= 1e-12
            assert got.hosts == expected[1]

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_certified_reuse_matches_searching_again_on_drawn_rings(self, data):
        requests, graph, context, config = drawn_game(data)
        profile, trace = pgra_run(requests, graph, context, config)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(placement.Certificate, "holds", lambda self, view, nodes, links: False)
            searched, searched_trace = pgra_run(requests, graph, context, config)
        assert trace.rows == searched_trace.rows
        assert profile.strategies == searched.strategies

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_certificate_that_holds_predicts_the_kernel_on_a_shifted_view(self, data):
        requests, graph, context, config = drawn_game(data)
        # with every request unallocated, each one sees this view
        view = ContextView.build(graph, StrategyProfile.empty(requests, context))
        view.serving = [data.draw(st.integers(0, 2)) for _ in graph.nodes]
        view.idling = [data.draw(st.integers(0, 2)) for _ in graph.nodes]
        # shift free values or holder counts of one or more kinds, so that a change of one kind alone is common
        read = ("free_cpu", "free_mem", "free_bw", "serving", "idling")
        kinds = data.draw(st.sets(st.sampled_from(read), min_size=1))
        shift = st.sampled_from((0, -1, 1)).flatmap(lambda sign: st.integers(0, 60).map(lambda t: sign * t / 10))
        step = st.sampled_from((0, 0, -1, 1))
        shifted = copy.copy(view)
        for name in read:
            if name in kinds and name.startswith("free"):
                setattr(shifted, name, [free + data.draw(shift) for free in getattr(view, name)])
            elif name in kinds:
                setattr(shifted, name, [max(count + data.draw(step), 0) for count in getattr(view, name)])
        # every count above 0 moves and stays above 0: the kernel reads the same flags
        same_sides = copy.copy(view)
        same_sides.serving = [count + 1 if count else 0 for count in view.serving]
        same_sides.idling = [count + 1 if count else 0 for count in view.idling]
        every = range(len(graph.nodes)), range(len(graph.links))
        for request in requests:
            for path in graph.candidate_sd_paths(request.source, request.destination, config.num_paths):
                certificate = placement.Certificate()
                got = viterbi_place(request, path, view, graph, config, certificate)
                certificate.seal(view)
                assert certificate.holds(same_sides, *every)
                if certificate.holds(shifted, *every):
                    assert viterbi_place(request, path, shifted, graph, config) == got

    def test_certificate_replays_the_kernels_rounding(self):
        # at free 0.499999999, 0.499999999 - 0.1 rounds below 0.4 - 1e-9, so the kernel's test
        # blocks the second VNF, where the algebraically equal free < 0.4 + 0.1 - 1e-9 would not
        graph = make_graph(1, [], cpu=1.0, memory=64.0)
        request = make_request(0, 0, 0, [(0.1, 1.0, 1.0), (0.4, 1.0, 1.0)], max_delay=100.0)
        view = fresh_view(graph, empty_profile(graph, idle_context(graph), request), request)
        path = graph.candidate_sd_paths(0, 0, 1)[0]
        certificate = placement.Certificate()
        assert viterbi_place(request, path, view, graph, SimulationConfig(), certificate) is not None
        certificate.seal(view)
        view.free_cpu = [0.499999999]
        assert viterbi_place(request, path, view, graph, SimulationConfig()) is None
        assert not certificate.holds(view, range(len(graph.nodes)), range(len(graph.links)))

    def test_second_route_when_first_lacks_link_headroom(self):
        # only node 2 can host; going out on 0-1-2 leaves 5 of 15 units on those
        # links, so the way back skips the shorter 2-1-0 and takes 2-3-0
        small, big = SatelliteNode(2.0, 64.0, TABLE_POWER), SatelliteNode(112.0, 64.0, TABLE_POWER)
        graph = make_graph(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (3, 0, 2.0)], bandwidth=15.0,
            nodes=[small, small, big, small],
        )
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], edge_bw=10.0, max_delay=100.0)
        view = fresh_view(graph, empty_profile(graph, idle_context(graph), request), request)
        path = next(p for p in graph.candidate_sd_paths(0, 0, 3) if 2 in p.nodes)
        strategy = viterbi_place(request, path, view, graph, SimulationConfig(num_paths=2, beam_width=4))
        assert [r.nodes for r in graph.k_shortest_paths(2, 0, 2)] == [(2, 1, 0), (2, 3, 0)]
        assert strategy.hosts == (0, 2, 0)
        assert [r.nodes for r in strategy.routes] == [(0, 1, 2), (2, 3, 0)]

    def test_builds_state_only_for_the_beam_survivors(self, graph6, monkeypatch):
        request = make_request(0, 0, 5, [(4.0, 4.0, 10.0)] * 3, max_delay=500.0)
        view = fresh_view(graph6, empty_profile(graph6, idle_context(graph6), request), request)
        path = graph6.candidate_sd_paths(0, 5, 8)[-1]
        config = SimulationConfig(num_paths=8, beam_width=2)
        expected = viterbi_place(request, path, view, graph6, config)
        built = []
        beam_class = placement._Beam
        monkeypatch.setattr(placement, "_Beam", lambda *fields: built.append(fields) or beam_class(*fields))
        assert viterbi_place(request, path, view, graph6, config) == expected
        assert len(built) <= 1 + 2 * (len(request.vnfs) - 1)

    def test_beam_width_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            graph, _, request, view, idle_charge = random_micro_instance(rng)
            path = graph.candidate_sd_paths(request.source, request.destination, 2)[-1]
            payoffs = []
            for beam in (1, 2, 4, 8):
                config = SimulationConfig(num_paths=2, beam_width=beam, idle_charge=idle_charge)
                placed = viterbi_place(request, path, view, graph, config)
                payoffs.append(-1.0 if placed is None else placed.cost.payoff)
            assert payoffs == sorted(payoffs)

    def test_rejects_path_with_wrong_endpoints(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 5, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph6, context, request)
        bad_path = graph6.k_shortest_paths(1, 5, 1)[0]
        with pytest.raises(ValueError):
            viterbi_place(request, bad_path, fresh_view(graph6, profile, request), graph6, SimulationConfig())


class TestBestResponse:
    def test_single_candidate_path_reduces_to_viterbi(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 5, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph6, context, request)
        config = SimulationConfig(num_paths=1, beam_width=4)
        via_best = best_response(request, profile, graph6, config)
        path = graph6.candidate_sd_paths(0, 5, 1)[0]
        direct = viterbi_place(request, path, fresh_view(graph6, profile, request), graph6, config)
        assert via_best == direct

    def test_second_path_opens_cheaper_host(self):
        # 0 and 2 are off (single-slot request pays full setup there); 1 is idle
        graph = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        context = idle_context(graph)
        context.server_states[0] = ServerState(Mode.OFF_AVAILABLE, off_since=-1)
        context.server_states[2] = ServerState(Mode.OFF_AVAILABLE, off_since=-1)
        request = make_request(0, 0, 2, [(4.0, 4.0, 10.0)], max_delay=100.0, duration=1)
        profile = empty_profile(graph, context, request)
        narrow = best_response(request, profile, graph, SimulationConfig(num_paths=1, beam_width=8))
        wide = best_response(request, profile, graph, SimulationConfig(num_paths=2, beam_width=8))
        assert narrow.hosts[1] in (0, 2)
        assert wide.hosts[1] == 1
        assert wide.cost.payoff > narrow.cost.payoff

    def test_saturated_network_returns_none(self):
        graph = make_graph(2, [(0, 1, 1.0)], cpu=2.0, memory=2.0)
        context = idle_context(graph)
        request = make_request(0, 0, 1, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph, context, request)
        assert best_response(request, profile, graph, SimulationConfig(num_paths=2, beam_width=4)) is None

    def test_returned_strategy_is_feasible_with_others(self, graph6):
        rng = np.random.default_rng(31)
        context = idle_context(graph6)
        requests = generate_requests(6, graph6, rng_seed=64, d=4)
        profile = StrategyProfile.empty(requests, context)
        config = SimulationConfig(num_paths=4, beam_width=4)
        for request in requests:
            strategy = best_response(request, profile, graph6, config)
            if strategy is None:
                continue
            profile.strategies[request.id] = strategy
            assert check_feasibility(profile, graph6) == []

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_shared_table_matches_independent_corridor_runs_on_drawn_games(self, data):
        requests, graph, context, config = drawn_game(data)
        assert_best_responses_match_independent_runs(requests, graph, context, config)

    @pytest.mark.parametrize("nodes, seed", [(9, 1), (12, 2), (15, 3)])
    def test_shared_table_matches_independent_corridor_runs_on_constellations(self, nodes, seed):
        # chains of 5-10 VNFs on a torus, where many corridors reach the same partial placements
        config = SimulationConfig().with_nodes(nodes)
        graph = config.build_graph()
        requests = generate_requests(16, graph, config.ranges, seed, d=config.num_paths)
        assert_best_responses_match_independent_runs(requests, graph, idle_context(graph), config)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_kept_view_updated_in_place_matches_a_fresh_build(self, data):
        assert_kept_views_match_fresh_builds(data, divisor=1)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_kept_view_of_tenths_matches_a_fresh_build(self, data):
        assert_kept_views_match_fresh_builds(data, divisor=10)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_catch_up_names_every_change_of_a_kept_view(self, data):
        assert_moved_sets_cover_every_change(data, divisor=1)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_catch_up_names_every_change_of_a_view_of_tenths(self, data):
        assert_moved_sets_cover_every_change(data, divisor=10)

    def test_pgra_run_builds_each_request_view_once(self, monkeypatch):
        config = SimulationConfig().with_nodes(12)
        graph = config.build_graph()
        requests = generate_requests(20, graph, config.ranges, 1, d=config.num_paths)
        built = []
        build = ContextView.build.__func__
        counted = lambda cls, *args, **kwargs: built.append(kwargs) or build(cls, *args, **kwargs)
        monkeypatch.setattr(ContextView, "build", classmethod(counted))
        _, trace = pgra_run(requests, graph, idle_context(graph), config)
        assert trace.iterations > 5
        assert sorted(kwargs["exclude"] for kwargs in built) == [r.id for r in requests]

    def test_pgra_run_tests_whole_numbers_once(self, monkeypatch):
        config = SimulationConfig().with_nodes(12)
        graph = config.build_graph()
        requests = generate_requests(20, graph, config.ranges, 1, d=config.num_paths)
        tested = []
        whole_numbers = placement._whole_numbers
        counted = lambda *args: tested.append(args) or whole_numbers(*args)
        monkeypatch.setattr(placement, "_whole_numbers", counted)
        profile, _ = pgra_run(requests, graph, idle_context(graph), config)
        assert len(tested) == 1
        assert whole_numbers(graph, profile)

    def test_deterministic(self, graph6):
        context = idle_context(graph6)
        requests = generate_requests(4, graph6, rng_seed=11, d=8)
        profile = StrategyProfile.empty(requests, context)
        config = SimulationConfig()
        first = best_response(requests[0], profile, graph6, config)
        second = best_response(requests[0], profile, graph6, config)
        assert first == second


class TestGreedyPlace:
    def test_tie_breaks_toward_smallest_node_id(self, graph6):
        # source node is full; the two inter-plane neighbours (2 and 4) tie
        context = idle_context(graph6)
        filler = make_request(9, 0, 0, [(110.0, 4.0, 10.0)], max_delay=100.0, duration=2)
        profile = StrategyProfile.empty([filler], context)
        strategy = best_response(filler, profile, graph6, SimulationConfig(num_paths=1, beam_width=1))
        profile.strategies[9] = strategy
        request = make_request(0, 0, 0, [(8.0, 8.0, 10.0)], max_delay=100.0, duration=2)
        profile.requests[request.id] = request
        profile.strategies[request.id] = Strategy.unallocated(0)
        placed = greedy_place(request, profile, graph6, SimulationConfig(num_paths=8, beam_width=4))
        assert placed.hosts[1] == 2

    def test_equal_cost_tie_breaks_toward_fewer_hops(self):
        # with no bandwidth weight, node 1 (two 1 ms hops away) and node 2 (one
        # 2 ms hop away) cost the same; the beam order takes the shorter route
        small, big = SatelliteNode(2.0, 64.0, TABLE_POWER), SatelliteNode(112.0, 64.0, TABLE_POWER)
        graph = make_graph(
            4, [(0, 3, 1.0), (3, 1, 1.0), (0, 2, 2.0)], nodes=[small, big, big, small]
        )
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph, idle_context(graph), request)
        config = SimulationConfig(num_paths=4, beam_width=4, weights=Weights(0.0, 0.5, 0.5))
        placed = greedy_place(request, profile, graph, config)
        assert placed.hosts == (0, 2, 0)

    def test_never_beats_the_beam_search(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            graph, context, request, _, idle_charge = random_micro_instance(rng)
            profile = empty_profile(graph, context, request)
            config = SimulationConfig(num_paths=2, beam_width=None, idle_charge=idle_charge)
            beam = best_response(request, profile, graph, config)
            greedy = greedy_place(request, profile, graph, config)
            if greedy is None:
                continue
            assert beam is not None
            assert greedy.cost.payoff <= beam.cost.payoff + 1e-12

    def test_saturated_network_returns_none(self):
        graph = make_graph(2, [(0, 1, 1.0)], cpu=2.0, memory=2.0)
        context = idle_context(graph)
        request = make_request(0, 0, 1, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph, context, request)
        assert greedy_place(request, profile, graph, SimulationConfig(num_paths=2, beam_width=4)) is None

    def test_greedy_strategy_is_feasible(self, graph6):
        context = idle_context(graph6)
        requests = generate_requests(6, graph6, rng_seed=13, d=4)
        profile = StrategyProfile.empty(requests, context)
        config = SimulationConfig(num_paths=4, beam_width=4)
        for request in requests:
            strategy = greedy_place(request, profile, graph6, config)
            if strategy is not None:
                profile.strategies[request.id] = strategy
        assert check_feasibility(profile, graph6) == []


def assert_round_views_match_fresh_builds(data, divisor):
    """Run a drawn one-pass round, or a short on-line run whose later slots
    carry committed placements, on a shuffled request list.  At every
    decision the round's view must equal a fresh build, and the decision must
    equal one made on that fresh build."""
    requests, graph, context, config = drawn_game(data, divisor)
    algorithm = data.draw(st.sampled_from(("viterbi", "greedy")))
    decided = []

    def checked(place):
        def decide(request, profile, graph, config, view):
            assert_same_view(view, ContextView.build(graph, profile, exclude=request.id))
            strategy = place(request, profile, graph, config, view=view)
            assert strategy == place(request, profile, graph, config)
            decided.append(request.id)
            return strategy

        return decide

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "best_response", checked(best_response))
        patch.setattr(harness, "greedy_place", checked(greedy_place))
        if data.draw(st.booleans()):
            harness._allocate(algorithm, data.draw(st.permutations(requests)), graph, context, config)
            assert decided == sorted(r.id for r in requests)
            return
        sim = harness.OnlineSimulation(config, graph)
        arrivals = requests
        for slot in range(data.draw(st.integers(2, 3))):
            sim.step(slot, data.draw(st.permutations(arrivals)), algorithm, 0)
            assert decided[-len(arrivals):] == sorted(r.id for r in arrivals)
            arrivals = drawn_requests(data, len(graph.nodes), divisor, start_id=arrivals[-1].id + 1)


class TestOnePassRound:
    @pytest.mark.parametrize("divisor", [1, 10])
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_round_view_matches_a_fresh_build_at_every_decision(self, divisor, data):
        assert_round_views_match_fresh_builds(data, divisor)

    @pytest.mark.parametrize("algorithm", ["viterbi", "greedy"])
    def test_round_builds_one_view(self, algorithm, monkeypatch):
        config = SimulationConfig().with_nodes(12)
        graph = config.build_graph()
        requests = generate_requests(20, graph, config.ranges, 1, d=config.num_paths)
        built = []
        build = ContextView.build.__func__
        counted = lambda cls, *args, **kwargs: built.append(kwargs) or build(cls, *args, **kwargs)
        monkeypatch.setattr(ContextView, "build", classmethod(counted))
        profile, _ = harness._allocate(algorithm, requests, graph, idle_context(graph), config)
        assert len(profile.allocated_ids()) > 5
        assert built == [{}]

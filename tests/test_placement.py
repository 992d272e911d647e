import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satchain import placement
from satchain.costing import ContextView, Strategy, StrategyProfile, Weights, check_feasibility
from satchain.energy import Mode, ServerState
from satchain.placement import PlacementConfig, best_response, greedy_place, viterbi_place
from satchain.workload import generate_requests

from conftest import idle_context, make_graph, make_request, random_micro_instance
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


def empty_profile(graph, context, *requests):
    return StrategyProfile.empty(list(requests), context)


def fresh_view(graph, profile, request):
    return ContextView.build(graph, profile, exclude=request.id)


class TestViterbiPlace:
    def test_pseudo_only_chain_pays_nothing(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 4, 4, [], max_delay=10.0)
        profile = empty_profile(graph6, context, request)
        path = graph6.candidate_sd_paths(4, 4, 1).paths[0]
        strategy = viterbi_place(request, path, fresh_view(graph6, profile, request), graph6, PlacementConfig())
        assert strategy is not None
        assert strategy.hosts == (4, 4)
        assert strategy.routes[0].nodes == (4,)
        assert strategy.cost.payoff == 1.0

    def test_full_source_pushes_vnf_to_neighbour(self):
        # two satellites; the endpoint node is too small for the single VNF
        graph = make_graph(
            2, [(0, 1, 1.5)], capacities=[{"cpu": 2.0, "memory": 64.0}, {"cpu": 112.0, "memory": 64.0}]
        )
        context = idle_context(graph)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], max_delay=50.0)
        profile = empty_profile(graph, context, request)
        config = PlacementConfig(num_paths=2, beam_width=4)
        view = fresh_view(graph, profile, request)
        zero_hop, out_and_back = graph.candidate_sd_paths(0, 0, 2).paths
        assert viterbi_place(request, zero_hop, view, graph, config) is None
        strategy = viterbi_place(request, out_and_back, view, graph, config)
        assert strategy.hosts == (0, 1, 0)
        assert [r.nodes for r in strategy.routes] == [(0, 1), (1, 0)]

    def test_unlimited_beam_matches_exhaustive_search(self):
        rng = np.random.default_rng(77)
        config = PlacementConfig(num_paths=2, beam_width=None)
        checked = 0
        for _ in range(400):
            graph, _, request, view = random_micro_instance(rng)
            for path in graph.candidate_sd_paths(request.source, request.destination, 2).paths:
                expected = enumerate_best_placement(request, path, view, graph, 2, Weights())
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
        graph, _, request, view = random_micro_instance(DrawnRng(data), nodes=(2, 8))
        # tight link headroom, so that ranked routes get rejected
        view.free_bw = [float(data.draw(st.integers(10, 100))) for _ in graph.links]
        d = data.draw(st.integers(1, 4))
        config = PlacementConfig(num_paths=d, beam_width=None)
        for path in graph.candidate_sd_paths(request.source, request.destination, d).paths:
            expected = enumerate_best_placement(request, path, view, graph, d, Weights())
            got = viterbi_place(request, path, view, graph, config)
            if expected is None:
                assert got is None
                continue
            assert got is not None
            assert abs(got.cost.payoff - expected[0]) <= 1e-12
            assert got.hosts == expected[1]

    def test_second_route_when_first_lacks_link_headroom(self):
        # only node 2 can host; going out on 0-1-2 leaves 5 of 15 units on those
        # links, so the way back skips the shorter 2-1-0 and takes 2-3-0
        small, big = {"cpu": 2.0, "memory": 64.0}, {"cpu": 112.0, "memory": 64.0}
        graph = make_graph(
            4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 2.0), (3, 0, 2.0)], bandwidth=15.0,
            capacities=[small, small, big, small],
        )
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], edge_bw=10.0, max_delay=100.0)
        view = fresh_view(graph, empty_profile(graph, idle_context(graph), request), request)
        path = next(p for p in graph.candidate_sd_paths(0, 0, 3).paths if 2 in p.nodes)
        strategy = viterbi_place(request, path, view, graph, PlacementConfig(num_paths=2, beam_width=4))
        assert [r.nodes for r in graph.k_shortest_paths(2, 0, 2).paths] == [(2, 1, 0), (2, 3, 0)]
        assert strategy.hosts == (0, 2, 0)
        assert [r.nodes for r in strategy.routes] == [(0, 1, 2), (2, 3, 0)]

    def test_builds_state_only_for_the_beam_survivors(self, graph6, monkeypatch):
        request = make_request(0, 0, 5, [(4.0, 4.0, 10.0)] * 3, max_delay=500.0)
        view = fresh_view(graph6, empty_profile(graph6, idle_context(graph6), request), request)
        path = graph6.candidate_sd_paths(0, 5, 8).paths[-1]
        config = PlacementConfig(num_paths=8, beam_width=2)
        expected = viterbi_place(request, path, view, graph6, config)
        built = []
        beam_class = placement._Beam
        monkeypatch.setattr(placement, "_Beam", lambda *fields: built.append(fields) or beam_class(*fields))
        assert viterbi_place(request, path, view, graph6, config) == expected
        assert len(built) <= 1 + 2 * (len(request.vnfs) - 1)

    def test_beam_width_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            graph, _, request, view = random_micro_instance(rng)
            path = graph.candidate_sd_paths(request.source, request.destination, 2).paths[-1]
            payoffs = []
            for beam in (1, 2, 4, 8):
                placed = viterbi_place(request, path, view, graph, PlacementConfig(2, beam))
                payoffs.append(-1.0 if placed is None else placed.cost.payoff)
            assert payoffs == sorted(payoffs)

    def test_rejects_path_with_wrong_endpoints(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 5, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph6, context, request)
        bad_path = graph6.k_shortest_paths(1, 5, 1).paths[0]
        with pytest.raises(ValueError):
            viterbi_place(request, bad_path, fresh_view(graph6, profile, request), graph6, PlacementConfig())


class TestBestResponse:
    def test_single_candidate_path_reduces_to_viterbi(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 5, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph6, context, request)
        config = PlacementConfig(num_paths=1, beam_width=4)
        via_best = best_response(request, profile, graph6, config)
        path = graph6.candidate_sd_paths(0, 5, 1).paths[0]
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
        narrow = best_response(request, profile, graph, PlacementConfig(num_paths=1, beam_width=8))
        wide = best_response(request, profile, graph, PlacementConfig(num_paths=2, beam_width=8))
        assert narrow.hosts[1] in (0, 2)
        assert wide.hosts[1] == 1
        assert wide.cost.payoff > narrow.cost.payoff

    def test_saturated_network_returns_none(self):
        graph = make_graph(2, [(0, 1, 1.0)], capacity={"cpu": 2.0, "memory": 2.0})
        context = idle_context(graph)
        request = make_request(0, 0, 1, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph, context, request)
        assert best_response(request, profile, graph, PlacementConfig(2, 4)) is None

    def test_returned_strategy_is_feasible_with_others(self, graph6):
        rng = np.random.default_rng(31)
        context = idle_context(graph6)
        requests = generate_requests(6, graph6, rng_seed=64, d=4)
        profile = StrategyProfile.empty(requests, context)
        config = PlacementConfig(num_paths=4, beam_width=4)
        for request in requests:
            strategy = best_response(request, profile, graph6, config)
            if strategy is None:
                continue
            profile.strategies[request.id] = strategy
            assert check_feasibility(profile, graph6) == []

    def test_deterministic(self, graph6):
        context = idle_context(graph6)
        requests = generate_requests(4, graph6, rng_seed=11, d=8)
        profile = StrategyProfile.empty(requests, context)
        config = PlacementConfig()
        first = best_response(requests[0], profile, graph6, config)
        second = best_response(requests[0], profile, graph6, config)
        assert first == second


class TestGreedyPlace:
    def test_tie_breaks_toward_smallest_node_id(self, graph6):
        # source node is full; the two inter-plane neighbours (2 and 4) tie
        context = idle_context(graph6)
        filler = make_request(9, 0, 0, [(110.0, 4.0, 10.0)], max_delay=100.0, duration=2)
        profile = StrategyProfile.empty([filler], context)
        strategy = best_response(filler, profile, graph6, PlacementConfig(1, 1))
        profile.strategies[9] = strategy
        request = make_request(0, 0, 0, [(8.0, 8.0, 10.0)], max_delay=100.0, duration=2)
        profile.requests[request.id] = request
        profile.strategies[request.id] = Strategy.unallocated(0)
        placed = greedy_place(request, profile, graph6, PlacementConfig(8, 4))
        assert placed.hosts[1] == 2

    def test_equal_cost_tie_breaks_toward_fewer_hops(self):
        # with no bandwidth weight, node 1 (two 1 ms hops away) and node 2 (one
        # 2 ms hop away) cost the same; the beam order takes the shorter route
        small, big = {"cpu": 2.0, "memory": 64.0}, {"cpu": 112.0, "memory": 64.0}
        graph = make_graph(
            4, [(0, 3, 1.0), (3, 1, 1.0), (0, 2, 2.0)], capacities=[small, big, big, small]
        )
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph, idle_context(graph), request)
        config = PlacementConfig(num_paths=4, beam_width=4, weights=Weights(0.0, 0.5, 0.5))
        placed = greedy_place(request, profile, graph, config)
        assert placed.hosts == (0, 2, 0)

    def test_never_beats_the_beam_search(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            graph, context, request, _ = random_micro_instance(rng)
            profile = empty_profile(graph, context, request)
            config = PlacementConfig(num_paths=2, beam_width=None)
            beam = best_response(request, profile, graph, config)
            greedy = greedy_place(request, profile, graph, config)
            if greedy is None:
                continue
            assert beam is not None
            assert greedy.cost.payoff <= beam.cost.payoff + 1e-12

    def test_saturated_network_returns_none(self):
        graph = make_graph(2, [(0, 1, 1.0)], capacity={"cpu": 2.0, "memory": 2.0})
        context = idle_context(graph)
        request = make_request(0, 0, 1, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = empty_profile(graph, context, request)
        assert greedy_place(request, profile, graph, PlacementConfig(2, 4)) is None

    def test_greedy_strategy_is_feasible(self, graph6):
        context = idle_context(graph6)
        requests = generate_requests(6, graph6, rng_seed=13, d=4)
        profile = StrategyProfile.empty(requests, context)
        config = PlacementConfig(num_paths=4, beam_width=4)
        for request in requests:
            strategy = greedy_place(request, profile, graph6, config)
            if strategy is not None:
                profile.strategies[request.id] = strategy
        assert check_feasibility(profile, graph6) == []

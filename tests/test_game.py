import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satchain.costing import (
    ContextView,
    Strategy,
    StrategyProfile,
    check_feasibility,
    network_payoff,
)
from satchain.game import EPSILON, is_nash, pgra_run, potential_identity_check
from satchain.harness import SimulationConfig
from satchain.placement import best_response, viterbi_place
from satchain.workload import generate_requests

from conftest import idle_context, make_graph, make_request
from oracles import enumerate_request_strategies
from test_placement import drawn_game


def small_config(num_paths=4, beam=4):
    return SimulationConfig(k_max=100, num_paths=num_paths, beam_width=beam)


class TestPgraRun:
    def test_no_requests(self, graph6):
        profile, trace = pgra_run([], graph6, idle_context(graph6), small_config())
        assert network_payoff(profile) == 0.0
        assert trace.iterations == 1
        assert trace.rows[0].winner is None
        assert trace.converged

    def test_k_max_cut_off_is_not_converged(self, graph6):
        requests = generate_requests(6, graph6, rng_seed=2, d=4)
        config = SimulationConfig(k_max=2, num_paths=4, beam_width=4)
        _, cut = pgra_run(requests, graph6, idle_context(graph6), config)
        _, full = pgra_run(requests, graph6, idle_context(graph6), small_config())
        assert cut.iterations == 2 and not cut.converged
        assert full.converged and full.iterations > 2

    def test_single_request_plays_its_best_response(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 3, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile, trace = pgra_run([request], graph6, context, small_config())
        solo = best_response(request, StrategyProfile.empty([request], context), graph6, small_config())
        assert profile.strategies[0] == solo
        assert trace.iterations <= 2

    def test_two_requests_contending_for_one_node(self):
        graph = make_graph(2, [(0, 1, 1.0)], cpu=100.0, memory=100.0)
        context = idle_context(graph)
        requests = [
            make_request(0, 0, 0, [(60.0, 10.0, 10.0)], max_delay=100.0, duration=2),
            make_request(1, 0, 0, [(60.0, 10.0, 10.0)], max_delay=100.0, duration=2),
        ]
        config = small_config(num_paths=2, beam=None)
        profile, _ = pgra_run(requests, graph, context, config)
        assert all(profile.strategies[r.id].allocated for r in requests)
        assert check_feasibility(profile, graph) == []

        # exhaustive joint optimum over both requests' full strategy spaces
        base = StrategyProfile.empty(requests, context)
        options = []
        for request in requests:
            options.append(
                enumerate_request_strategies(request, base, graph, config)
                + [Strategy.unallocated(request.id)]
            )
        best_joint = 0.0
        for pair in itertools.product(*options):
            candidate = StrategyProfile(
                base.requests, {s.request_id: s for s in pair}, context
            )
            if check_feasibility(candidate, graph):
                continue
            best_joint = max(best_joint, network_payoff(candidate))
        assert network_payoff(profile) == pytest.approx(best_joint, abs=1e-12)

    def test_phi_non_decreasing_and_strictly_improving(self, graph6):
        requests = generate_requests(8, graph6, rng_seed=5, d=4)
        profile, trace = pgra_run(requests, graph6, idle_context(graph6), small_config())
        rows = trace.rows
        for row in rows[:-1]:
            assert row.winner is not None
            assert row.phi_after > row.phi_before + 1e-12
        assert rows[-1].winner is None
        assert rows[-1].phi_after == rows[-1].phi_before

    def test_deterministic_trace(self, graph6):
        requests = generate_requests(6, graph6, rng_seed=21, d=4)
        run = lambda: pgra_run(requests, graph6, idle_context(graph6), small_config())
        profile_a, trace_a = run()
        profile_b, trace_b = run()
        assert trace_a.rows == trace_b.rows
        assert profile_a.strategies == profile_b.strategies

    def test_every_committed_iteration_is_feasible(self, graph6):
        requests = generate_requests(10, graph6, rng_seed=17, d=4)
        seen = []

        def on_commit(profile):
            seen.append(len(check_feasibility(profile, graph6)))

        pgra_run(requests, graph6, idle_context(graph6), small_config(), on_commit=on_commit)
        assert seen and all(count == 0 for count in seen)


class TestIsNash:
    def test_converged_run_is_an_equilibrium(self, graph6):
        requests = generate_requests(8, graph6, rng_seed=23, d=4)
        config = small_config()
        profile, _ = pgra_run(requests, graph6, idle_context(graph6), config)
        assert is_nash(profile, graph6, config)

    def test_unallocated_request_with_room_is_not_an_equilibrium(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 3, [(4.0, 4.0, 10.0)], max_delay=100.0)
        profile = StrategyProfile.empty([request], context)
        assert not is_nash(profile, graph6, small_config())

    def test_empty_profile_on_empty_network(self, graph6):
        profile = StrategyProfile.empty([], idle_context(graph6))
        assert is_nash(profile, graph6, small_config())


class TestPotentialIdentity:
    def test_identity_for_current_strategy_is_zero(self, graph6):
        requests = generate_requests(5, graph6, rng_seed=3, d=4)
        config = small_config()
        profile, _ = pgra_run(requests, graph6, idle_context(graph6), config)
        rid = profile.allocated_ids()[0]
        assert potential_identity_check(profile, rid, profile.strategies[rid]) == 0.0

    def test_identity_for_random_deviations(self, graph6):
        rng = np.random.default_rng(8)
        config = small_config(num_paths=8, beam=4)
        requests = generate_requests(10, graph6, rng_seed=19, d=8)
        profile, _ = pgra_run(requests, graph6, idle_context(graph6), config)
        ids = sorted(profile.requests)
        worst = 0.0
        for _ in range(200):
            rid = ids[int(rng.integers(len(ids)))]
            request = profile.requests[rid]
            paths = graph6.candidate_sd_paths(request.source, request.destination, 8)
            path = paths[int(rng.integers(len(paths)))]
            view = ContextView.build(graph6, profile, exclude=rid)
            alt = viterbi_place(request, path, view, graph6, config)
            if alt is None:
                alt = Strategy.unallocated(rid)
            worst = max(worst, potential_identity_check(profile, rid, alt))
        assert worst <= 1e-12


def assert_game_guarantees_on_a_drawn_game(data, divisor):
    """On one `drawn_game`: every committed profile is feasible, the trace
    rows chain with each commit raising the network payoff by the winner's
    improvement, the run converges to a profile that `is_nash` (which runs
    uncached) accepts, and a drawn unilateral deviation moves the network
    payoff by exactly the deviator's payoff change."""
    requests, graph, context, config = drawn_game(data, divisor)
    commits = []

    def on_commit(profile):
        assert check_feasibility(profile, graph) == []
        commits.append(network_payoff(profile))

    profile, trace = pgra_run(requests, graph, context, config, on_commit=on_commit)
    assert trace.converged and is_nash(profile, graph, config)
    rows = trace.rows
    assert [row.iteration for row in rows] == list(range(len(rows)))
    assert rows[0].phi_before == 0.0 and rows[-1].phi_after == network_payoff(profile)
    assert [row.phi_after for row in rows[:-1]] == commits
    for row, following in zip(rows, rows[1:]):
        assert row.winner is not None and following.phi_before == row.phi_after
        assert row.improvement > EPSILON and row.phi_after > row.phi_before
        assert abs((row.phi_after - row.phi_before) - row.improvement) <= 1e-12
    request = data.draw(st.sampled_from(requests))
    paths = graph.candidate_sd_paths(request.source, request.destination, config.num_paths)
    view = ContextView.build(graph, profile, exclude=request.id)
    alternative = viterbi_place(request, data.draw(st.sampled_from(paths)), view, graph, config)
    if alternative is None:
        alternative = Strategy.unallocated(request.id)
    assert potential_identity_check(profile, request.id, alternative) <= 1e-12


class TestDrawnGames:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_guarantees_hold_on_drawn_games_of_whole_numbers(self, data):
        assert_game_guarantees_on_a_drawn_game(data, divisor=1)

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_guarantees_hold_on_drawn_games_of_tenths(self, data):
        assert_game_guarantees_on_a_drawn_game(data, divisor=10)

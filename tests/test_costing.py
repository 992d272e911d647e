import math
from dataclasses import replace

import pytest

from satchain.costing import (
    ContextView,
    CommittedPlacement,
    SlotContext,
    Strategy,
    StrategyProfile,
    Weights,
    bandwidth_cost,
    check_feasibility,
    delay_cost,
    energy_cost,
    evaluate_strategy,
    network_payoff,
    user_payoff,
)
from satchain.energy import Mode, ServerState
from satchain.harness import SimulationConfig
from satchain.placement import best_response, viterbi_place
from satchain.topology import Path, link_delay
from satchain.workload import PSEUDO_VNF, generate_requests

from conftest import idle_context, make_graph, make_request, ring_graph
from oracles import make_path


def zero_hop(node):
    return Path((node,), (), 0.0)


def profile_of(graph, context, *pairs):
    requests = {request.id: request for request, _ in pairs}
    strategies = {request.id: strategy for request, strategy in pairs}
    return StrategyProfile(requests, strategies, context)


def build_strategy(request, graph, context, hosts, route_nodes, config=SimulationConfig()):
    routes = tuple(
        zero_hop(seq[0]) if len(seq) == 1 else make_path(graph, seq) for seq in route_nodes
    )
    profile = profile_of(graph, context)
    view = ContextView.build(graph, profile)
    cost = evaluate_strategy(request, tuple(hosts), routes, graph, view, config)
    return Strategy(request.id, tuple(hosts), routes, cost)


@pytest.fixture
def ring12():
    return ring_graph(12, delay=1.0)  # 12 links at 100 Mbps: 1200 Mbps total


class TestBandwidthCost:
    def test_one_edge_two_hops(self, ring12):
        request = make_request(0, 0, 2, [], edge_bw=10.0)
        strategy = Strategy(0, (0, 2), (make_path(ring12, [0, 1, 2]),))
        assert bandwidth_cost(strategy, request, ring12) == pytest.approx(20.0 / 1200.0, rel=1e-12)
        assert bandwidth_cost(strategy, request, ring12) == pytest.approx(1.0 / 60.0, abs=1e-12)

    def test_fully_co_located_chain_is_free(self, ring12):
        request = make_request(0, 4, 4, [(4, 4, 10.0), (4, 4, 10.0)], edge_bw=25.0)
        strategy = Strategy(0, (4, 4, 4, 4), tuple(zero_hop(4) for _ in range(3)))
        assert bandwidth_cost(strategy, request, ring12) == 0.0

    def test_two_edges_with_different_routes(self, ring12):
        request = make_request(0, 0, 4, [(4, 4, 10.0)], edge_bw=[10.0, 20.0])
        strategy = Strategy(0, (0, 1, 4), (make_path(ring12, [0, 1]), make_path(ring12, [1, 2, 3, 4])))
        assert bandwidth_cost(strategy, request, ring12) == pytest.approx(70.0 / 1200.0, rel=1e-12)

    def test_out_and_back_charges_the_link_twice(self, ring12):
        walk = ring12.candidate_sd_paths(0, 0, 2)[1]
        assert walk.hop_count == 2 and len(set(walk.links)) == 1
        request = make_request(0, 0, 0, [], edge_bw=10.0)
        strategy = Strategy(0, (0, 0), (walk,))
        assert bandwidth_cost(strategy, request, ring12) == pytest.approx(20.0 / 1200.0, rel=1e-12)


class TestEnergyCost:
    def test_lone_vnf_on_idle_server_with_follow_up_slot(self, graph6):
        # duration 2: the host keeps serving next slot, so only the CPU share counts
        context = idle_context(graph6)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], duration=2)
        strategy = build_strategy(request, graph6, context, (0, 0, 0), [(0,), (0,)])
        expected = ((4.0 / 112.0) * (415.0 - 49.9)) / (6 * 415.0)
        assert strategy.cost.power == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.0052366, abs=1e-7)

    def test_free_when_off_server_keeps_serving(self, graph6):
        context = idle_context(graph6)
        context.server_states[0] = ServerState(Mode.OFF_AVAILABLE, off_since=-1)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], duration=2)
        strategy = build_strategy(request, graph6, context, (0, 0, 0), [(0,), (0,)])
        assert strategy.cost.power == 0.0

    def test_full_setup_power_when_off_server_serves_one_slot(self, graph6):
        context = idle_context(graph6)
        context.server_states[0] = ServerState(Mode.OFF_AVAILABLE, off_since=-1)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], duration=1)
        strategy = build_strategy(request, graph6, context, (0, 0, 0), [(0,), (0,)])
        assert strategy.cost.power == pytest.approx(415.0 / 2490.0, rel=1e-12)

    def test_idle_baseline_charged_once_per_server(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0), (4.0, 4.0, 10.0)], duration=1)
        strategy = build_strategy(request, graph6, context, (0, 0, 0, 0), [(0,), (0,), (0,)])
        expected = (49.9 + 2 * (4.0 / 112.0) * 365.1) / 2490.0
        assert strategy.cost.power == pytest.approx(expected, rel=1e-12)

    def test_idle_baseline_per_vnf_flag(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0), (4.0, 4.0, 10.0)], duration=1)
        config = SimulationConfig(idle_charge="per_vnf")
        strategy = build_strategy(request, graph6, context, (0, 0, 0, 0), [(0,), (0,), (0,)], config)
        expected = (2 * 49.9 + 2 * (4.0 / 112.0) * 365.1) / 2490.0
        assert strategy.cost.power == pytest.approx(expected, rel=1e-12)


class TestDelayCost:
    def test_two_vnfs_zero_hop(self):
        graph = ring_graph(4)
        request = make_request(0, 1, 1, [(4, 4, 10.0), (4, 4, 10.0)], max_delay=24.0)
        strategy = Strategy(0, (1, 1, 1, 1), tuple(zero_hop(1) for _ in range(3)))
        assert delay_cost(strategy, request) == pytest.approx(20.0 / 24.0, rel=1e-12)

    def test_budget_saturating_route_hits_exactly_one(self):
        graph = make_graph(2, [(0, 1, link_delay(600.0))])
        request = make_request(0, 0, 1, [(4, 4, 10.0)], max_delay=10.0 + link_delay(600.0))
        strategy = Strategy(0, (0, 0, 1), (zero_hop(0), make_path(graph, [0, 1])))
        assert delay_cost(strategy, request) == 1.0

    def test_pseudo_only_chain(self):
        request = make_request(0, 3, 3, [], max_delay=5.0)
        strategy = Strategy(0, (3, 3), (zero_hop(3),))
        assert delay_cost(strategy, request) == 0.0


class TestPayoff:
    def test_unallocated_payoff_is_zero(self):
        strategy = Strategy.unallocated(9)
        assert strategy.payoff == 0.0

    def test_costless_allocation_pays_one(self):
        assert user_payoff(0.0, 0.0, 0.0, Weights()) == 1.0

    def test_weighted_costs(self):
        assert user_payoff(0.1, 0.2, 0.3, Weights()) == pytest.approx(0.8, abs=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Weights(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            Weights(-0.5, 1.0, 0.5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"bw": "0.5"}, "weights.bw must be float, not '0.5'"),
            ({"bw": True, "power": 0.0, "delay": 0.0}, "weights.bw must be float, not True"),
        ],
    )
    def test_mistyped_weight_fails_naming_the_field(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            Weights(**kwargs)
        assert str(raised.value) == message


class TestNetworkPayoff:
    def _stub(self, request_id, payoff):
        from satchain.costing import CostBreakdown

        return Strategy(request_id, (0, 0), (zero_hop(0),), CostBreakdown(0, 0, 0, payoff))

    def test_empty_profile(self, graph6):
        profile = profile_of(graph6, idle_context(graph6))
        assert network_payoff(profile) == 0.0

    def test_sums_in_id_order(self, graph6):
        context = idle_context(graph6)
        r1 = make_request(1, 0, 0, [])
        r2 = make_request(2, 0, 0, [])
        r3 = make_request(3, 0, 0, [])
        profile = profile_of(
            graph6,
            context,
            (r1, self._stub(1, 0.8)),
            (r2, self._stub(2, 0.9)),
            (r3, Strategy.unallocated(3)),
        )
        assert network_payoff(profile) == pytest.approx(1.7, rel=1e-12)

    def test_single_request_equals_its_payoff(self, graph6):
        context = idle_context(graph6)
        r = make_request(5, 0, 0, [])
        profile = profile_of(graph6, context, (r, self._stub(5, 0.73)))
        assert network_payoff(profile) == 0.73


class TestContextView:
    def test_subtracts_committed_and_current_usage(self, graph6):
        context = idle_context(graph6)
        old = make_request(10, 0, 1, [(20.0, 30.0, 10.0)], edge_bw=40.0, duration=3)
        old_strategy = Strategy(10, (0, 1, 1), (make_path(graph6, [0, 1]), zero_hop(1)))
        context.committed.append(CommittedPlacement(old, old_strategy, 2))
        new = make_request(11, 0, 0, [(8.0, 8.0, 10.0)])
        new_strategy = build_strategy(new, graph6, context, (0, 2, 0), [(0, 2), (2, 0)])
        profile = profile_of(graph6, context, (new, new_strategy))
        view = ContextView.build(graph6, profile)
        assert view.free_cpu[1] == 112.0 - 20.0
        assert view.free_mem[1] == 192.0 - 30.0
        assert view.free_cpu[2] == 112.0 - 8.0
        link01 = make_path(graph6, [0, 1]).links[0]
        assert view.free_bw[link01] == 100.0 - 40.0
        # committed lifetime reaches past this slot: host keeps serving
        assert view.serving[1] == 1
        excluded = ContextView.build(graph6, profile, exclude=11)
        assert excluded.free_cpu[2] == 112.0

    def test_idle_charged_tracks_other_occupants(self, graph6):
        context = idle_context(graph6)
        r = make_request(1, 3, 3, [(4.0, 4.0, 10.0)], duration=1)
        strategy = build_strategy(r, graph6, context, (3, 3, 3), [(3,), (3,)])
        profile = profile_of(graph6, context, (r, strategy))
        view = ContextView.build(graph6, profile)
        assert view.idling[3] == 1
        assert ContextView.build(graph6, profile, exclude=1).idling[3] == 0

    @pytest.mark.parametrize("duration", [1, 2], ids=["idling", "serving"])
    def test_hold_alone_brings_the_view_to_a_fresh_build(self, graph6, duration):
        # the other request keeps idle host 3 serving next slot (duration 2) or pays its
        # idle baseline there (duration 1); either spares this request the baseline
        context = idle_context(graph6)
        config = SimulationConfig()
        other = make_request(1, 3, 3, [(4.0, 4.0, 10.0)], duration=duration)
        request = make_request(2, 3, 3, [(4.0, 4.0, 10.0)], duration=1)
        other_strategy = build_strategy(other, graph6, context, (3, 3, 3), [(3,), (3,)])
        mine = Strategy(2, (3, 3, 3), (zero_hop(3), zero_hop(3)))
        path = graph6.candidate_sd_paths(3, 3, 1)[0]
        profile = StrategyProfile.empty([other, request], context)
        view = ContextView.build(graph6, profile, exclude=2)
        energies = []
        for sign, strategy in ((1, other_strategy), (-1, Strategy.unallocated(1))):
            view.hold(other, other_strategy, duration >= 2, sign)
            profile.strategies[1] = strategy
            fresh = ContextView.build(graph6, profile, exclude=2)
            energy = energy_cost(mine, request, graph6, view, config.idle_charge)
            assert energy == energy_cost(mine, request, graph6, fresh, config.idle_charge)
            assert viterbi_place(request, path, view, graph6, config) == viterbi_place(request, path, fresh, graph6, config)
            energies.append(energy)
        assert energies[0] < energies[1]


class TestCheckFeasibility:
    def test_light_load_is_feasible(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], max_delay=50.0)
        strategy = build_strategy(request, graph6, context, (0, 0, 0), [(0,), (0,)])
        profile = profile_of(graph6, context, (request, strategy))
        assert check_feasibility(profile, graph6) == []

    def test_cpu_over_capacity(self, graph6):
        context = idle_context(graph6)
        request = make_request(0, 0, 0, [(4.0, 1.0, 10.0)] * 29, max_delay=1e6)
        hosts = tuple([0] * 31)
        routes = tuple(zero_hop(0) for _ in range(30))
        strategy = Strategy(0, hosts, routes)
        profile = profile_of(graph6, context, (request, strategy))
        violations = check_feasibility(profile, graph6)
        assert any(v.constraint == "node_capacity" and v.entity == 0 for v in violations)

    def test_delay_budget_violation(self):
        graph = make_graph(2, [(0, 1, 3.0)])
        context = idle_context(graph)
        request = make_request(0, 0, 1, [(4.0, 4.0, 10.0)], max_delay=12.0)
        strategy = Strategy(0, (0, 0, 1), (zero_hop(0), make_path(graph, [0, 1])))
        profile = profile_of(graph, context, (request, strategy))
        violations = check_feasibility(profile, graph)
        assert [v.constraint for v in violations] == ["delay_budget"]

    def test_link_over_subscription(self):
        graph = make_graph(2, [(0, 1, 1.0)])
        context = idle_context(graph)
        pairs = []
        for rid in (0, 1):
            request = make_request(rid, 0, 1, [], edge_bw=60.0, max_delay=10.0)
            pairs.append((request, Strategy(rid, (0, 1), (make_path(graph, [0, 1]),))))
        profile = profile_of(graph, context, *pairs)
        violations = check_feasibility(profile, graph)
        assert any(v.constraint == "link_bandwidth" for v in violations)

    def test_unavailable_server_cannot_host(self, graph6):
        context = idle_context(graph6)
        context.server_states[0] = ServerState(Mode.OFF_UNAVAILABLE, off_since=0)
        request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], max_delay=50.0)
        strategy = Strategy(0, (0, 0, 0), (zero_hop(0), zero_hop(0)))
        profile = profile_of(graph6, context, (request, strategy))
        violations = check_feasibility(profile, graph6)
        assert any(v.constraint == "server_unavailable" for v in violations)

    def test_server_timing_violations(self, graph6):
        context = idle_context(graph6)
        context.slot = 10
        context.server_states[1] = ServerState(Mode.IDLE, idle_since=2)  # idle 8 > 3
        context.server_states[2] = ServerState(Mode.OFF_AVAILABLE, off_since=10)  # off gap 0 < 1
        profile = profile_of(graph6, context)
        constraints = {v.constraint for v in check_feasibility(profile, graph6)}
        assert constraints == {"idle_time", "off_time"}

    def test_committed_requests_hold_their_resources(self, graph6):
        context = idle_context(graph6)
        old = make_request(1, 0, 0, [(110.0, 4.0, 10.0)], max_delay=100.0)
        old_strategy = Strategy(1, (0, 0, 0), (zero_hop(0), zero_hop(0)))
        context.committed.append(CommittedPlacement(old, old_strategy, 5))
        new = make_request(2, 0, 0, [(4.0, 4.0, 10.0)], max_delay=100.0)
        new_strategy = Strategy(2, (0, 0, 0), (zero_hop(0), zero_hop(0)))
        profile = profile_of(graph6, context, (new, new_strategy))
        violations = check_feasibility(profile, graph6)
        assert any(v.constraint == "node_capacity" for v in violations)

    def test_over_capacity_details_print_the_loads_summed_in_order(self):
        # tenths round, so each printed sum pins the order: committed first, then ascending id
        graph = make_graph(2, [(0, 1, 1.0)], cpu=10.0, memory=11.0, bandwidth=0.9)
        context = idle_context(graph)
        hosts, routes = (0, 0, 1), (zero_hop(0), make_path(graph, [0, 1]))
        old = make_request(5, 0, 1, [(3.3, 4.1, 1.0)], edge_bw=0.3)
        context.committed.append(CommittedPlacement(old, Strategy(5, hosts, routes), 3))
        loads = {2: 3.7, 0: 3.1}
        pairs = [
            (make_request(rid, 0, 1, [(load, load + 0.1, 1.0)], edge_bw=load / 10), Strategy(rid, hosts, routes))
            for rid, load in loads.items()
        ]
        violations = check_feasibility(profile_of(graph, context, *pairs), graph)
        a, b = loads[0], loads[2]
        assert [v.detail for v in violations] == [
            f"cpu {0.0 + 3.3 + a + b} over capacity",
            f"memory {0.0 + 4.1 + (a + 0.1) + (b + 0.1)} over capacity",
            f"bandwidth {0.0 + 0.3 + a / 10 + b / 10} over capacity",
        ]
        assert f"{0.0 + 3.3 + b + a}" != f"{0.0 + 3.3 + a + b}"


    @pytest.mark.parametrize(
        "mutate, constraint, detail",
        [
            (lambda s, g: replace(s, hosts=s.hosts[:-2]), "vnf_assignment", "host count != VNF count"),
            (
                lambda s, g: replace(s, hosts=((s.hosts[0] + 1) % len(g.nodes),) + s.hosts[1:]),
                "vnf_assignment",
                "endpoints not pinned",
            ),
            (lambda s, g: replace(s, routes=s.routes[:-1]), "route_selection", "route count != edge count"),
            (
                lambda s, g: replace(s, routes=(zero_hop((s.hosts[0] + 1) % len(g.nodes)),) + s.routes[1:]),
                "route_selection",
                "route does not connect hosts",
            ),
            (
                lambda s, g: replace(
                    s,
                    hosts=(s.hosts[0],) * 2 + s.hosts[2:],
                    routes=(g.candidate_sd_paths(s.hosts[0], s.hosts[0], 2)[1],) + s.routes[1:],
                ),
                "route_selection",
                "co-located hosts need a zero-hop route",
            ),
        ],
        ids=["host-count", "endpoints", "route-count", "route-joins-hosts", "co-located-route"],
    )
    def test_malformed_strategy_is_reported_not_tallied(self, graph6, mutate, constraint, detail):
        context = idle_context(graph6)
        request = generate_requests(1, graph6, rng_seed=5, d=8)[0]
        strategy = best_response(request, StrategyProfile.empty([request], context), graph6, SimulationConfig())
        assert check_feasibility(profile_of(graph6, context, (request, strategy)), graph6) == []
        violations = check_feasibility(profile_of(graph6, context, (request, mutate(strategy, graph6))), graph6)
        assert (constraint, detail) in {(v.constraint, v.detail) for v in violations}


class TestEvaluateConsistency:
    def test_breakdown_matches_component_functions(self, graph6, thirds):
        context = idle_context(graph6)
        request = make_request(0, 0, 5, [(4.0, 4.0, 10.0), (6.0, 8.0, 20.0)], edge_bw=15.0, duration=2)
        hosts = (0, 2, 4, 5)
        routes = (make_path(graph6, [0, 2]), make_path(graph6, [2, 4]), make_path(graph6, [4, 5]))
        profile = profile_of(graph6, context)
        view = ContextView.build(graph6, profile)
        config = SimulationConfig(weights=thirds)
        cost = evaluate_strategy(request, hosts, routes, graph6, view, config)
        strategy = Strategy(0, hosts, routes, cost)
        assert cost.bw == bandwidth_cost(strategy, request, graph6)
        assert cost.delay == delay_cost(strategy, request)
        assert cost.power == energy_cost(strategy, request, graph6, view, config.idle_charge)
        assert cost.payoff == user_payoff(cost.bw, cost.power, cost.delay, thirds)

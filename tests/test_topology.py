import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satchain
from satchain.harness import SimulationConfig
from satchain.topology import (
    LIGHT_SPEED_KM_PER_S,
    Link,
    NetworkGraph,
    NoPath,
    SatelliteNode,
    build_constellation,
    link_delay,
)

from conftest import TABLE_CAPACITY, TABLE_POWER, make_graph, ring_graph
from oracles import all_simple_paths


def degrees(graph):
    return {node.id: len(graph._adj[node.id]) for node in graph.nodes}


class TestBuildConstellation:
    def test_three_planes_two_per_plane_merges_duplicates(self, graph6):
        assert len(graph6.nodes) == 6
        assert len(graph6.links) == 9
        assert all(deg == 3 for deg in degrees(graph6).values())
        intra = [l for l in graph6.links if l.distance == 600.0]
        inter = [l for l in graph6.links if l.distance == 400.0]
        assert len(intra) == 3 and len(inter) == 6
        assert {(l.u, l.v) for l in intra} == {(0, 1), (2, 3), (4, 5)}

    def test_three_planes_five_per_plane_full_torus(self):
        graph = build_constellation(3, 5, 600.0, 400.0, dict(TABLE_CAPACITY), TABLE_POWER, 100.0)
        assert len(graph.nodes) == 15
        assert len(graph.links) == 30
        assert all(deg == 4 for deg in degrees(graph).values())

    def test_single_satellite(self):
        graph = build_constellation(1, 1, 600.0, 400.0, dict(TABLE_CAPACITY), TABLE_POWER, 100.0)
        assert len(graph.nodes) == 1
        assert graph.links == []

    def test_delays_follow_distance(self, graph6):
        for link in graph6.links:
            assert link.delay == link_delay(link.distance)


class TestLinkDelay:
    def test_intra_plane_distance(self):
        assert link_delay(600.0) == pytest.approx(2.0014, abs=1e-4)
        assert link_delay(600.0) == 600.0 / LIGHT_SPEED_KM_PER_S * 1000.0

    def test_inter_plane_distance(self):
        assert link_delay(400.0) == pytest.approx(1.3343, abs=1e-4)

    def test_one_light_second(self):
        assert link_delay(LIGHT_SPEED_KM_PER_S) == pytest.approx(1000.0, rel=1e-12)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            link_delay(0.0)


class TestKShortestPaths:
    def test_equal_delay_ring_breaks_ties_lexicographically(self):
        graph = ring_graph(4, delay=1.0)
        result = graph.k_shortest_paths(0, 2, 2)
        assert [p.nodes for p in result.paths] == [(0, 1, 2), (0, 3, 2)]
        assert [p.hop_count for p in result.paths] == [2, 2]

    def test_source_equals_target_is_zero_hop(self):
        graph = ring_graph(4)
        result = graph.k_shortest_paths(1, 1, 5)
        assert len(result.paths) == 1
        assert result.paths[0].nodes == (1,)
        assert result.paths[0].total_delay == 0.0

    def test_disconnected_raises(self):
        graph = make_graph(2, [])
        with pytest.raises(NoPath):
            graph.k_shortest_paths(0, 1, 1)

    def test_matches_exhaustive_enumeration_on_small_graphs(self):
        rng = np.random.default_rng(2024)
        for trial in range(15):
            n = int(rng.integers(3, 9))
            edges = []
            seen = set()
            for u, v in itertools.combinations(range(n), 2):
                if rng.random() < 0.5:
                    seen.add((u, v))
                    edges.append((u, v, float(rng.integers(1, 6))))
            if not edges:
                continue
            graph = make_graph(n, edges)
            s, t = int(rng.integers(n)), int(rng.integers(n))
            expected = all_simple_paths(graph, s, t)
            if s != t and not expected:
                with pytest.raises(NoPath):
                    graph.k_shortest_paths(s, t, 3)
                continue
            got = graph.k_shortest_paths(s, t, 10_000)
            assert [p.nodes for p in got.paths] == [nodes for _, _, nodes in expected]
            for path, (delay, hops, _) in zip(got.paths, expected):
                assert path.total_delay == delay
                assert path.hop_count == hops

    # integers, non-dyadic tenths and the constellation's two link delays: many exact and near ties
    TIE_HEAVY_DELAYS = (1.0, 2.0, 3.0, 0.1, 0.2, 0.3, link_delay(600.0), link_delay(400.0))

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_matches_exhaustive_enumeration_on_drawn_graphs(self, data):
        n = data.draw(st.integers(2, 8))
        density = data.draw(st.sampled_from((0.2, 0.4, 0.6, 0.8, 1.0)))
        edges = [
            (u, v, data.draw(st.sampled_from(self.TIE_HEAVY_DELAYS)))
            for u, v in itertools.combinations(range(n), 2)
            if data.draw(st.floats(0.0, 1.0)) < density
        ]
        graph = make_graph(n, edges)
        s, t, d = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1)), data.draw(st.integers(1, 10))
        expected = all_simple_paths(graph, s, t)[:d]
        if not expected:
            with pytest.raises(NoPath):
                graph.k_shortest_paths(s, t, d)
            return
        got = graph.k_shortest_paths(s, t, d).paths
        assert [(p.total_delay, p.hop_count, p.nodes) for p in got] == expected
        if s == t:
            assert [(p.nodes, p.links, p.total_delay) for p in got] == [((s,), (), 0.0)]

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(st.data())
    def test_both_directions_of_every_pair_match_exhaustive_enumeration(self, data):
        # the route matrix ranks b -> a from the reversed a -> b search, so check every ordered pair
        n = data.draw(st.integers(2, 8))
        density = data.draw(st.sampled_from((0.2, 0.4, 0.6, 0.8, 1.0)))
        edges = [
            (u, v, data.draw(st.sampled_from(self.TIE_HEAVY_DELAYS)))
            for u, v in itertools.combinations(range(n), 2)
            if data.draw(st.floats(0.0, 1.0)) < density
        ]
        graph = make_graph(n, edges)
        for s, t in itertools.product(range(n), repeat=2):
            expected = all_simple_paths(graph, s, t)
            for d in range(1, 11):
                if not expected:
                    with pytest.raises(NoPath):
                        graph.k_shortest_paths(s, t, d)
                    continue
                got = graph.k_shortest_paths(s, t, d).paths
                assert [(p.total_delay, p.hop_count, p.nodes) for p in got] == expected[:d]
                assert [graph.make_path(p.nodes) for p in got] == list(got)

    @pytest.mark.parametrize("nodes", (6, 9, 12, 15))
    def test_routes_are_loopless_on_every_constellation(self, nodes):
        # the beam kernel checks each route link once against one traversal's bandwidth
        graph = SimulationConfig().with_nodes(nodes).build_graph()
        for s, t in itertools.permutations(range(nodes), 2):
            for path in graph.k_shortest_paths(s, t, 8).paths:
                assert len(set(path.links)) == len(path.links)
                assert len(set(path.nodes)) == len(path.nodes)

    def test_results_are_cached_objects(self, graph6):
        first = graph6.k_shortest_paths(0, 5, 3)
        assert graph6.k_shortest_paths(0, 5, 3) is first


def test_fresh_import_never_loads_networkx():
    # set-up time and peak memory count every module `import satchain` pulls in
    code = (
        "import sys\n"
        "from satchain import SimulationConfig, run_batch\n"
        "config = SimulationConfig().with_nodes(15)\n"
        "config.requests = 3\n"
        "assert config.build_graph().k_shortest_paths(0, 14, 8).paths\n"
        "assert run_batch(config, 'pgra', seed=1).allocated_fraction > 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'networkx'))\n"
    )
    src = str(Path(satchain.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + code],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"


class TestCandidateSourceDestinationPaths:
    def test_same_node_gets_out_and_back_walks(self, graph6):
        result = graph6.candidate_sd_paths(0, 0, 3)
        assert [p.nodes for p in result.paths] == [(0,), (0, 2, 0), (0, 4, 0)]
        one_way = graph6.k_shortest_paths(0, 2, 1).paths[0].total_delay
        assert result.paths[1].total_delay == pytest.approx(2 * one_way, rel=1e-12)
        # the walk reuses the same link in both directions
        assert result.paths[1].links[0] == result.paths[1].links[1]

    def test_same_node_single_candidate_is_zero_hop(self, graph6):
        result = graph6.candidate_sd_paths(3, 3, 1)
        assert [p.nodes for p in result.paths] == [(3,)]

    def test_distinct_endpoints_match_k_shortest(self, graph6):
        assert graph6.candidate_sd_paths(0, 5, 4) == graph6.k_shortest_paths(0, 5, 4)

    def test_ordering_is_non_decreasing_in_delay(self, graph6):
        for s in range(6):
            for t in range(6):
                delays = [p.total_delay for p in graph6.candidate_sd_paths(s, t, 8).paths]
                assert delays == sorted(delays)


class TestDeterminismAndSerialization:
    def test_identical_builds_yield_identical_path_sets(self):
        a = build_constellation(3, 3, 600.0, 400.0, dict(TABLE_CAPACITY), TABLE_POWER, 100.0)
        b = build_constellation(3, 3, 600.0, 400.0, dict(TABLE_CAPACITY), TABLE_POWER, 100.0)
        for s in range(9):
            for t in range(9):
                assert a.k_shortest_paths(s, t, 4) == b.k_shortest_paths(s, t, 4)

    def test_json_round_trip(self, graph6):
        text = graph6.to_json()
        clone = NetworkGraph.from_json(text)
        assert clone.nodes == graph6.nodes
        assert clone.links == graph6.links
        assert clone.to_json() == text
        assert clone.k_shortest_paths(0, 5, 4) == graph6.k_shortest_paths(0, 5, 4)

    def test_rejects_bad_node_ids(self):
        nodes = [SatelliteNode(id=1, plane=0, slot_in_plane=0, capacity=dict(TABLE_CAPACITY), power=TABLE_POWER)]
        with pytest.raises(ValueError):
            NetworkGraph(nodes, [])

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            SatelliteNode(id=0, plane=0, slot_in_plane=0, capacity={"cpu": 0.0}, power=TABLE_POWER)

    def test_rejects_self_loop_link(self):
        with pytest.raises(ValueError):
            Link(index=0, u=1, v=1, bandwidth=100.0, delay=1.0, distance=1.0)

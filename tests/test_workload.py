import math

import pytest

from satchain.topology import link_delay
from satchain.workload import (
    UserRequest,
    VnfSpec,
    WorkloadRanges,
    acceptable_delay,
    generate_requests,
)

from conftest import make_graph, make_request


class TestGeneration:
    def test_zero_count(self, graph6):
        assert generate_requests(0, graph6, rng_seed=1) == []

    def test_same_seed_same_requests(self, graph6):
        a = generate_requests(10, graph6, rng_seed=42)
        b = generate_requests(10, graph6, rng_seed=42)
        assert a == b

    def test_different_slots_differ(self, graph6):
        a = generate_requests(5, graph6, rng_seed=42, slot=0)
        b = generate_requests(5, graph6, rng_seed=42, slot=1)
        assert a != b

    def test_ranges_and_mean_chain_length(self, graph6):
        requests = generate_requests(1000, graph6, rng_seed=7)
        counts = []
        for r in requests:
            real = [v for v in r.vnfs if not v.is_pseudo]
            counts.append(len(real))
            assert 5 <= len(real) <= 10
            for vnf in real:
                assert 4 <= vnf.cpu <= 8
                assert 4 <= vnf.memory <= 16
                assert 10 <= vnf.exec_time <= 30
            for bandwidth in r.bandwidths:
                assert 10 <= bandwidth <= 30
            assert 1 <= r.duration_slots <= 4
            assert 0 <= r.source < 6 and 0 <= r.destination < 6
        assert 7.2 <= sum(counts) / len(counts) <= 7.8

    def test_generated_requests_satisfy_invariants(self, graph6):
        for r in generate_requests(50, graph6, rng_seed=3):
            assert r.vnfs[0].is_pseudo and r.vnfs[-1].is_pseudo
            assert len(r.bandwidths) == len(r.vnfs) - 1
            assert r.max_delay >= r.total_exec_time
            assert r.max_delay == acceptable_delay(r.source, r.destination, r.total_exec_time, graph6, 8)

    def test_start_id_offsets_ids(self, graph6):
        requests = generate_requests(3, graph6, rng_seed=1, slot=3, start_id=100)
        assert [r.id for r in requests] == [100, 101, 102]
        assert [r.arrival_slot for r in requests] == [3, 3, 3]


class TestAcceptableDelay:
    def test_co_located_endpoints_with_single_candidate(self, graph6):
        request = make_request(0, 2, 2, [(4, 4, 10.0), (4, 4, 10.0)], max_delay=20.0)
        assert acceptable_delay(request.source, request.destination, request.total_exec_time, graph6, 1) == 20.0

    def test_mean_over_two_candidate_paths(self):
        # direct 2.0 ms path and a 4.0 ms detour
        graph = make_graph(3, [(0, 2, 2.0), (0, 1, 1.5), (1, 2, 2.5)])
        request = make_request(0, 0, 2, [(4, 4, 10.0)], max_delay=100.0)
        assert acceptable_delay(0, 2, request.total_exec_time, graph, 2) == pytest.approx(13.0, rel=1e-12)

    def test_chain_execution_plus_single_path(self):
        graph = make_graph(2, [(0, 1, link_delay(600.0))])
        request = make_request(0, 0, 1, [(4, 4, 10.0), (4, 4, 20.0), (4, 4, 30.0)], max_delay=100.0)
        expected = 60.0 + link_delay(600.0)
        assert acceptable_delay(0, 1, request.total_exec_time, graph, 1) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(62.0014, abs=1e-4)


class TestValidation:
    def test_pseudo_vnf_rejects_demands(self):
        with pytest.raises(ValueError):
            VnfSpec(1.0, 0.0, 0.0, is_pseudo=True)

    def test_real_vnf_requires_positive_demands(self):
        with pytest.raises(ValueError):
            VnfSpec(0.0, 4.0, 10.0)

    def test_request_needs_pseudo_endpoints(self):
        with pytest.raises(ValueError):
            UserRequest(0, 0, 1, (VnfSpec(4, 4, 10),), (), max_delay=100.0)

    def test_budget_below_execution_time_rejected(self):
        with pytest.raises(ValueError):
            make_request(0, 0, 1, [(4, 4, 10.0)], max_delay=5.0)

    def test_ranges_validate(self):
        with pytest.raises(ValueError):
            WorkloadRanges(vnf_count=(5, 4))
        with pytest.raises(ValueError, match="ranges.cpu must be two ints"):
            WorkloadRanges(cpu=(True, 3))
        assert WorkloadRanges().vnf_count == (5, 10)

"""Certified best-response reuse inside `pgra_run` changes no result.

`pgra_run` keeps, per request, its last best response with one
`placement.Certificate` of what all of its corridor runs read, and reuses
the result while the certificate holds.  Each test here runs 4-slot on-line
sequences, which supply committed placements and servers in every mode, and
compares every `IterationRecord` and every final `Strategy` of every slot's
`pgra_run` with the same run where every certificate check fails, so every
corridor is searched again.  Two weakened certificates, one blind to the power rule's
flags and one blind to link headroom, must each be caught by the same
comparison.
"""

import pytest

from satchain import harness, placement
from satchain.game import is_nash, pgra_run
from satchain.harness import OnlineSimulation, SimulationConfig, run_online
from satchain.workload import generate_requests

# (nodes, idle_charge, link_bandwidth, seed); the 40 Mbps leg is where link headroom binds
GRID = [
    (6, "once", 100.0, 0),
    (6, "per_vnf", 100.0, 1),
    (9, "once", 100.0, 2),
    (9, "per_vnf", 100.0, 3),
    (12, "once", 100.0, 4),
    (12, "per_vnf", 100.0, 5),
    (12, "once", 40.0, 6),
]
TIGHT = [leg for leg in GRID if leg[2] == 40.0]


def slot_runs(monkeypatch, leg) -> list:
    """(trace rows, final strategies) of each slot's `pgra_run` in a 4-slot on-line run."""
    nodes, idle_charge, link_bandwidth, seed = leg
    config = SimulationConfig(
        idle_charge=idle_charge, link_bandwidth=link_bandwidth, slots=4, requests_per_slot=(4, 8)
    ).with_nodes(nodes)
    runs = []

    def recording(*args, **kwargs):
        profile, trace = pgra_run(*args, **kwargs)
        runs.append((trace.rows, profile.strategies))
        return profile, trace

    with monkeypatch.context() as patch:
        patch.setattr(harness, "pgra_run", recording)
        run_online(config, "pgra", seed)
    return runs


def never_holds(self, view, nodes, links):
    return False


def sealed_without(recorded: str):
    """A `Certificate.seal` that forgets one kind of recorded read first."""
    seal = placement.Certificate.seal

    def weakened(self, view):
        getattr(self, recorded).clear()
        seal(self, view)

    return weakened


@pytest.fixture(scope="module")
def searched_again():
    """The reference: every leg with every certificate check failing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(placement.Certificate, "holds", never_holds)
        return {leg: slot_runs(patch, leg) for leg in GRID}


def differing_slots(monkeypatch, leg, searched_again) -> int:
    runs = slot_runs(monkeypatch, leg)
    assert len(runs) == len(searched_again[leg]) == 4
    return sum(run != reference for run, reference in zip(runs, searched_again[leg]))


def test_reuse_matches_searching_every_corridor_again(monkeypatch, searched_again):
    reused = []
    holds = placement.Certificate.holds
    counted = lambda self, view, nodes, links: reused.append(1) or holds(self, view, nodes, links)
    monkeypatch.setattr(placement.Certificate, "holds", counted)
    assert [differing_slots(monkeypatch, leg, searched_again) for leg in GRID] == [0] * len(GRID)
    assert len(reused) > 1000  # the comparison exercised reuse, not only fresh searches


def test_certificate_blind_to_flags_is_caught(monkeypatch, searched_again):
    monkeypatch.setattr(placement.Certificate, "seal", sealed_without("flagged"))
    assert any(differing_slots(monkeypatch, leg, searched_again) for leg in GRID)


def test_certificate_blind_to_link_headroom_is_caught(monkeypatch, searched_again):
    monkeypatch.setattr(placement.Certificate, "seal", sealed_without("bw"))
    assert any(differing_slots(monkeypatch, leg, searched_again) for leg in TIGHT)


def test_is_nash_runs_without_certificates(monkeypatch):
    config = SimulationConfig().with_nodes(6)
    sim = OnlineSimulation(config)
    requests = generate_requests(10, sim.graph, config.ranges, 3, slot=0, d=config.num_paths)
    profile, trace = pgra_run(requests, sim.graph, sim.context(0), config)
    assert trace.converged

    def refuse(self, *args):
        raise AssertionError("certificate consulted")

    for method in ("__init__", "seal", "holds"):
        monkeypatch.setattr(placement.Certificate, method, refuse)
    assert is_nash(profile, sim.graph, config)
    with pytest.raises(AssertionError, match="certificate consulted"):
        pgra_run(requests, sim.graph, sim.context(0), config)

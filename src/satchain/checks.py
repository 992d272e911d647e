"""Property suites: the one implementation of each structural guarantee.

Each suite takes its scale as arguments and returns ``(ok, detail, checked)``,
where ``checked`` counts the cases it checked.  `satchain check` runs them at
their small defaults; ``tests/test_acceptance.py`` runs them at its own scale.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .costing import ContextView, Strategy, StrategyProfile, check_feasibility
from .energy import ServerFleet
from .game import is_nash, pgra_run, potential_identity_check
from .harness import OnlineSimulation, SimulationConfig, run_online
from .placement import best_response, viterbi_place
from .stream import Stream
from .workload import generate_requests


def _instance(config: SimulationConfig, seed: int, m: int):
    sim = OnlineSimulation(config)
    requests = generate_requests(m, sim.graph, config.ranges, seed, d=config.num_paths)
    return sim.graph, sim.context(0), requests


def check_potential_identity(seed: int = 0, instances: int = 4, triples: int = 50) -> tuple:
    """A unilateral swap moves Phi by exactly the deviator's payoff change."""
    config = SimulationConfig()
    worst = 0.0
    checked = 0
    for i in range(instances):
        graph, context, requests = _instance(config, seed + i, m=10)
        profile, _ = pgra_run(requests, graph, context, config)
        rng = Stream(seed + i)
        ids = sorted(profile.requests)
        for _ in range(triples):
            rid = ids[rng.integers(0, len(ids))]
            request = profile.requests[rid]
            paths = graph.candidate_sd_paths(request.source, request.destination, config.num_paths)
            path = paths[rng.integers(0, len(paths))]
            view = ContextView.build(graph, profile, exclude=rid)
            alt = viterbi_place(request, path, view, graph, config)
            if alt is None:
                alt = Strategy.unallocated(rid)
            worst = max(worst, potential_identity_check(profile, rid, alt))
            checked += 1
    return worst <= 1e-12, f"{checked} deviations, max |dPhi - dpayoff| = {worst:.3e}", checked


def check_nash_convergence(seed: int = 0, loads=(5, 10), instances: int = 2) -> tuple:
    """Runs converge before k_max, each commit raises Phi, and they end at a Nash equilibrium."""
    config = SimulationConfig()
    checked = 0
    for m in loads:
        for i in range(instances):
            graph, context, requests = _instance(config, seed + i, m)
            profile, trace = pgra_run(requests, graph, context, config)
            where = f"M={m} seed={seed + i}"
            if trace.iterations >= config.k_max or not trace.converged:
                return False, f"{where}: stopped after {trace.iterations} iterations unconverged", checked
            rows = trace.rows
            if any(row.phi_after <= row.phi_before for row in rows[:-1]):
                return False, f"{where}: a commit did not raise the network payoff", checked
            if any(after.phi_before != before.phi_after for before, after in zip(rows, rows[1:])):
                return False, f"{where}: iteration rows do not chain", checked
            if not is_nash(profile, graph, config):
                return False, f"{where}: converged profile is not an equilibrium", checked
            checked += 1
    return True, f"{checked} runs converged to an equilibrium", checked


def check_beam_monotonicity(seed: int = 0, instances: int = 20) -> tuple:
    """Against three placed requests, a fourth never loses payoff as the beam widens."""
    config = SimulationConfig()
    for i in range(instances):
        graph, context, requests = _instance(config, seed + i, m=5)
        profile = StrategyProfile.empty(requests, context)
        for request in requests[:3]:
            strategy = best_response(request, profile, graph, config)
            if strategy is not None:
                profile.strategies[request.id] = strategy
        target = requests[3]
        path = graph.candidate_sd_paths(target.source, target.destination, config.num_paths)[0]
        view = ContextView.build(graph, profile, exclude=target.id)
        payoffs = []
        for beam in (1, 4, 8):
            placed = viterbi_place(target, path, view, graph, replace(config, beam_width=beam))
            payoffs.append(-math.inf if placed is None else placed.payoff)
        if not (payoffs[0] <= payoffs[1] <= payoffs[2]):
            return False, f"seed {seed + i}: payoffs {payoffs} not monotone in beam width", i
    return True, f"{instances} instances monotone over beam widths 1/4/8", instances


def check_feasibility_invariance(
    seed: int = 0, loads=(10,), instances: int = 3, slots: int = 10, online_runs: int = 1
) -> tuple:
    """Every commit and final profile of a game is feasible, and so is every on-line slot."""
    config = SimulationConfig()
    checked = violations = 0

    def audit(profile):
        nonlocal checked, violations
        violations += len(check_feasibility(profile, graph))
        checked += 1

    for m in loads:
        for i in range(instances):
            graph, context, requests = _instance(config, seed + i, m)
            profile, _ = pgra_run(requests, graph, context, config, on_commit=audit)
            audit(profile)
    online = replace(config, slots=slots, validate_each_step=True)
    failures = []
    for r in range(online_runs):
        try:
            checked += len(run_online(online, "pgra", seed + r))
        except AssertionError as exc:  # a validated run stops at its first infeasible slot
            checked += 1
            violations += 1
            failures.append(f"; on-line seed {seed + r}: {exc}")
    detail = f"{checked} feasibility checkpoints, {violations} violations" + "".join(failures)
    return violations == 0, detail, checked


def check_server_lifecycle(seed: int = 0) -> tuple:
    """The fleet's scripted idle-out, off and restart timeline; ``seed`` is unused."""
    fleet = ServerFleet([SimulationConfig().node()])  # 112 vCPU, 49.9/415 W, idle 3 slots, off 1
    fleet.mark_service({0})  # serving in slot 0
    fleet.record(0, {0: 8.0})
    for slot in (1, 2, 3, 4, 5):
        fleet.advance(set(), slot)
        fleet.record(slot, {})
    fleet.mark_service({0})  # restarts during slot 5
    fleet.record(5, {0: 8.0})
    expected = [
        (0, 0, "on", 49.9 + (8.0 / 112.0) * 365.1),
        (1, 0, "idle", 49.9),
        (2, 0, "idle", 49.9),
        (3, 0, "idle", 49.9),
        (4, 0, "off_unavailable", 0.0),
        (5, 0, "off_available", 0.0),
        (5, 0, "setup", 415.0),
    ]
    if fleet.timeline != expected:
        return False, f"timeline {fleet.timeline}", len(fleet.timeline)
    return True, "idle 3 slots -> off at slot 4, restartable at 5, setup slot at 415 W", len(expected)


SUITES = (
    ("potential-identity", check_potential_identity),
    ("nash-convergence", check_nash_convergence),
    ("beam-monotonicity", check_beam_monotonicity),
    ("feasibility-invariance", check_feasibility_invariance),
    ("server-lifecycle", check_server_lifecycle),
)


def run_all(seed: int = 0) -> list:
    results = []
    for name, fn in SUITES:
        try:
            ok, detail, _ = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {exc!r}"
        results.append((name, ok, detail))
    return results

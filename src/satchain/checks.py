"""Built-in property suites behind the `check` CLI subcommand.

Quick seeded versions of the structural guarantees the test suite pins down:
the exact-potential accounting identity, beam-width monotonicity, joint
feasibility of committed profiles, and the server lifecycle script.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .costing import ContextView, StrategyProfile, check_feasibility
from .energy import Mode, PowerParams, ServerState, step_server_state
from .game import is_nash, pgra_run, potential_identity_check
from .harness import OnlineSimulation, SimulationConfig, run_online
from .placement import viterbi_place
from .workload import generate_requests


def _instance(config: SimulationConfig, seed: int, m: int):
    sim = OnlineSimulation(config)
    requests = generate_requests(m, sim.graph, config.ranges, seed, d=config.num_paths)
    return sim.graph, sim.context(0), requests


def check_potential_identity(seed: int = 0, instances: int = 4, triples: int = 50) -> tuple:
    config = SimulationConfig()
    worst = 0.0
    for i in range(instances):
        graph, context, requests = _instance(config, seed + i, m=10)
        profile, _ = pgra_run(requests, graph, context, config.game_config())
        rng = np.random.default_rng(seed + i)
        ids = sorted(profile.requests)
        for _ in range(triples):
            rid = ids[int(rng.integers(len(ids)))]
            request = profile.requests[rid]
            paths = graph.candidate_sd_paths(request.source, request.destination, config.num_paths).paths
            path = paths[int(rng.integers(len(paths)))]
            view = ContextView.build(graph, profile, exclude=rid)
            alt = viterbi_place(request, path, view, graph, config.placement_config())
            if alt is None:
                continue
            worst = max(worst, potential_identity_check(profile, rid, alt))
    return worst <= 1e-12, f"max |dPhi - dpayoff| = {worst:.3e}"


def check_beam_monotonicity(seed: int = 0, instances: int = 20) -> tuple:
    config = SimulationConfig()
    for i in range(instances):
        graph, context, requests = _instance(config, seed + i, m=3)
        profile = StrategyProfile.empty(requests, context)
        target = requests[-1]
        path = graph.candidate_sd_paths(target.source, target.destination, config.num_paths).paths[0]
        view = ContextView.build(graph, profile, exclude=target.id)
        payoffs = []
        for beam in (1, 4, 8):
            placed = viterbi_place(target, path, view, graph, replace(config.placement_config(), beam_width=beam))
            payoffs.append(None if placed is None else placed.payoff)
        cleaned = [(-1.0 if p is None else p) for p in payoffs]
        if not (cleaned[0] <= cleaned[1] <= cleaned[2]):
            return False, f"instance {i}: payoffs {payoffs} not monotone in beam width"
    return True, f"{instances} instances monotone over beam widths 1/4/8"


def check_feasibility_invariance(seed: int = 0) -> tuple:
    config = replace(SimulationConfig(), validate_each_step=True, slots=10)
    checks = 0
    for s in range(3):
        graph, context, requests = _instance(config, seed + s, m=10)
        committed = []

        def on_commit(profile):
            violations = check_feasibility(profile, graph)
            committed.append(len(violations))
            if violations:
                raise AssertionError(violations[:3])

        profile, _ = pgra_run(requests, graph, context, config.game_config(), on_commit=on_commit)
        if not is_nash(profile, graph, config.game_config()):
            return False, f"seed {seed + s}: converged profile is not an equilibrium"
        checks += len(committed)
    run_online(config, "pgra", seed)  # validates every slot internally
    checks += config.slots
    return True, f"{checks} feasibility checkpoints, zero violations"


def check_server_lifecycle() -> tuple:
    params = PowerParams(49.9, 415.0, 3, 1)
    state = ServerState(Mode.ON)
    trail = []
    for slot, occupied in ((1, False), (2, False), (3, False), (4, False), (5, False)):
        state = step_server_state(state, params, occupied, slot)
        trail.append(state.mode)
    expected = [Mode.IDLE, Mode.IDLE, Mode.IDLE, Mode.OFF_UNAVAILABLE, Mode.OFF_AVAILABLE]
    if trail != expected:
        return False, f"lifecycle {[(m.value) for m in trail]}"
    state = step_server_state(state, params, True, 6)
    if state.mode is not Mode.ON:
        return False, "available-off server did not restart"
    return True, "idle-out, off, restart transitions all as scripted"


SUITES = (
    ("potential-identity", check_potential_identity),
    ("beam-monotonicity", check_beam_monotonicity),
    ("feasibility-invariance", check_feasibility_invariance),
    ("server-lifecycle", check_server_lifecycle),
)


def run_all(seed: int = 0) -> list:
    results = []
    for name, fn in SUITES:
        try:
            ok, detail = fn() if fn is check_server_lifecycle else fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {exc!r}"
        results.append((name, ok, detail))
    return results

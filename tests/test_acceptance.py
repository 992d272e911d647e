"""Acceptance suite: one check per headline guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tests 1, 2, 4, 5 and 9 run the `satchain.checks` suites at the gate's
scale; the experiment-level tests 6 to 8 share one constellation graph so
path caches are reused across runs.
"""

import time
from dataclasses import replace
from statistics import fmean

import numpy as np

from satchain.checks import (
    check_beam_monotonicity,
    check_feasibility_invariance,
    check_nash_convergence,
    check_potential_identity,
    check_server_lifecycle,
)
from satchain.costing import ContextView, Strategy, StrategyProfile, bandwidth_cost
from satchain.harness import SimulationConfig, run_batch, run_taguchi
from satchain.placement import viterbi_place

from conftest import idle_context, make_request, random_micro_instance, ring_graph
from oracles import enumerate_best_placement, make_path

BASE = SimulationConfig()
GRAPH6 = BASE.build_graph()


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_1_exact_potential_identity():
    started = time.perf_counter()
    ok, detail, checked = check_potential_identity(seed=0, instances=10, triples=100)
    elapsed = time.perf_counter() - started
    report("exact potential identity", ok and checked >= 1000 and elapsed < 30.0, f"{detail}, {elapsed:.1f}s")


def test_2_nash_convergence():
    ok, detail, checked = check_nash_convergence(seed=0, loads=(5, 10, 15, 20), instances=10)
    report("equilibrium convergence", ok and checked == 40, detail)


def test_3_beam_search_matches_exhaustive_optimum():
    started = time.perf_counter()
    rng = np.random.default_rng(303)
    compared = 0
    worst = 0.0
    while compared < 50:
        graph, _, request, view, idle_charge = random_micro_instance(rng)
        config = SimulationConfig(num_paths=2, beam_width=None, idle_charge=idle_charge)
        for path in graph.candidate_sd_paths(request.source, request.destination, 2):
            expected = enumerate_best_placement(request, path, view, graph, config)
            got = viterbi_place(request, path, view, graph, config)
            if expected is None:
                assert got is None
                continue
            assert got is not None, "beam search missed a feasible placement"
            assert got.hosts == expected[1], f"hosts {got.hosts} differ from the optimum {expected[1]}"
            worst = max(worst, abs(got.cost.payoff - expected[0]))
            compared += 1
    elapsed = time.perf_counter() - started
    report(
        "unlimited-beam search equals brute force",
        worst <= 1e-12 and elapsed < 60.0,
        f"{compared} instances, max payoff gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_4_beam_width_monotone():
    ok, detail, checked = check_beam_monotonicity(seed=0, instances=100)
    report("wider beams never lose payoff", ok and checked == 100, detail)


def test_5_feasibility_invariance():
    ok, detail, checked = check_feasibility_invariance(seed=0, loads=(10, 20), instances=5, slots=50, online_runs=2)
    report("feasibility holds at every commit and slot", ok and checked >= 240, detail)


def test_6_outperforms_baselines():
    started = time.perf_counter()
    config = BASE
    for m in (15, 25, 35):
        phis = {alg: [] for alg in ("pgra", "viterbi", "greedy")}
        fractions = {alg: [] for alg in ("pgra", "viterbi", "greedy")}
        for seed in range(10):
            for alg in ("pgra", "viterbi", "greedy"):
                metrics = run_batch(replace(config, requests=m), alg, seed, graph=GRAPH6)
                phis[alg].append(metrics.phi)
                fractions[alg].append(metrics.allocated_fraction)
        for alg in ("viterbi", "greedy"):
            assert fmean(phis["pgra"]) >= fmean(phis[alg]) * (1 - 0.005), (
                f"M={m}: mean payoff {fmean(phis['pgra']):.4f} trails {alg} {fmean(phis[alg]):.4f}"
            )
            assert fmean(fractions["pgra"]) >= fmean(fractions[alg]) * (1 - 0.005), (
                f"M={m}: allocation rate trails {alg}"
            )
    elapsed = time.perf_counter() - started
    report(
        "game dynamics match or beat both baselines",
        elapsed < 300.0,
        f"M in (15, 25, 35), 10 seeds each, {elapsed:.0f}s",
    )


def test_7_small_load_fully_allocated():
    config = replace(BASE, requests=5)
    fractions = [run_batch(config, "pgra", seed, graph=GRAPH6).allocated_fraction for seed in range(10)]
    report(
        "light load allocates every request",
        all(f == 1.0 for f in fractions),
        "M=5, 10 seeds, allocation rate 1.0 in each",
    )


def test_8_sweep_prefers_wide_search():
    started = time.perf_counter()
    result = run_taguchi(BASE, repetitions=10, seed=0, graph=GRAPH6)
    cells = {(row.d, row.beam, row.requests): row.mean_phi for row in result.rows}
    for m in (10, 20, 30):
        assert cells[(8, 4, m)] >= cells[(1, 1, m)], f"M={m}: wide search lost to the narrowest"
    band = 0.01
    for factor in ("d", "beam"):
        levels = sorted(result.effects[factor])
        for m in (10, 20, 30):
            curve = [result.effects[factor][level][m] for level in levels]
            for lo, hi in zip(curve, curve[1:]):
                assert hi >= lo * (1 - band), f"{factor} effect dips over {band:.0%} at M={m}: {curve}"
    elapsed = time.perf_counter() - started
    report(
        "parameter sweep favors wider search",
        True,
        f"16 cells x 3 loads x 10 repetitions, {elapsed:.0f}s",
    )


def test_9_server_lifecycle_trace():
    ok, detail, checked = check_server_lifecycle(seed=0)
    report("server lifecycle trace matches the script", ok and checked == 7, detail)


def test_10_spot_arithmetic():
    context = idle_context(GRAPH6)
    request = make_request(0, 0, 0, [(4.0, 4.0, 10.0)], duration=2)
    profile = StrategyProfile.empty([request], context)
    view = ContextView.build(GRAPH6, profile, exclude=0)
    path = GRAPH6.candidate_sd_paths(0, 0, 1)[0]
    strategy = viterbi_place(request, path, view, GRAPH6, BASE)
    expected_energy = ((4.0 / 112.0) * (415.0 - 49.9)) / (6 * 415.0)
    energy_ok = abs(strategy.cost.power - expected_energy) <= 1e-9

    ring12 = ring_graph(12, delay=1.0)
    probe = Strategy(0, (0, 2), (make_path(ring12, [0, 1, 2]),))
    bw = bandwidth_cost(probe, make_request(1, 0, 2, [], edge_bw=10.0), ring12)
    bw_ok = abs(bw - 1.0 / 60.0) <= 1e-12
    report(
        "spot arithmetic",
        energy_ok and bw_ok,
        f"lone-VNF energy {strategy.cost.power:.10f}, 2-hop bandwidth {bw:.10f}",
    )

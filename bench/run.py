#!/usr/bin/env python3
"""satchain allocation benchmark.

    python3 bench/run.py --workload pgra --seed 1 --seconds 50 --trace 0

Run from the root of a satchain checkout; the library is imported from its
``src/`` directory.  One process, one thread; the workloads and their instance
lists are in ``bench/workloads.py`` and described in ``bench/README.md``.

Untraced (``--trace 0``): times set-up in fresh interpreters, runs the
workload's canary instances against their golden rows, then runs the seed's
instance list once and cycles it again until ``--seconds`` have passed since
the list started.  The only hook is a timer around the placement entry each
algorithm calls.  Prints the end-to-end metrics.

Traced (``--trace 1``): runs each instance of the list once with that timer
only and once with a span around every layer entry point, checks that tracing
changed no output, and prints the per-layer metrics.  Spans are written to
``.bench_out/spans-<workload>-<seed>.npz``.

The last line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  An instance fails when it raises,
when its rows break an invariant, when they differ from the golden rows
(checked for every instance at the default seed and for the canaries at every
seed), or when a repeat differs from the first run.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# the benchmark writes only inside its checkout: bytecode only where measure_setup compiles it
sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))
from spans import GAME, KSP_HIT, KSP_MISS, Tracer, patched  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, config_text  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "req/s",
    "decision_ms_p50": "ms",
    "decision_ms_p90": "ms",
    "phi_mean": "1",
    "allocated_fraction_mean": "1",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "placement.viterbi_calls": "count",
    "placement.viterbi_self_s": "s",
    "placement.best_response_self_s": "s",
    "placement.viterbi_dead_frac": "ratio",
    "placement.corridors_per_response": "ratio",
    "placement.greedy_calls": "count",
    "placement.greedy_self_s": "s",
    "topology.ksp_calls": "count",
    "topology.ksp_misses": "count",
    "topology.ksp_miss_s": "s",
    "topology.ksp_hit_s": "s",
    "topology.candidate_paths_self_s": "s",
    "topology.build_graph_s": "s",
    "game.iterations": "count",
    "game.improving_proposals": "count",
    "game.responses_per_commit": "ratio",
    "game.self_s": "s",
    "costing.context_build_calls": "count",
    "costing.context_build_s": "s",
    "costing.evaluate_calls": "count",
    "costing.evaluate_s": "s",
    "costing.network_payoff_s": "s",
    "energy.attribution_calls": "count",
    "energy.attribution_s": "s",
    "energy.fleet_s": "s",
    "workload.generate_self_s": "s",
    "harness.self_s": "s",
    "bench.trace_overhead_frac": "frac",
}
# units of the metrics that are counts or ratios of counts: these repeat exactly from run to run
EXACT_UNITS = ("count", "ratio")


def import_satchain():
    """Import satchain from this checkout's sources, or exit without a result."""
    init = SRC / "satchain" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: no satchain sources at {init}")
    sys.path.insert(0, str(SRC))
    import satchain

    if Path(satchain.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported satchain from {satchain.__file__}, not {init}")
    return satchain


# -- correctness -------------------------------------------------------------


def row_problem(instance, rows: list) -> str | None:
    """What is wrong with an instance's CSV rows on their own, or None."""
    expected = 1 if instance.command == "batch" else instance.size
    if len(rows) != expected:
        return f"{len(rows)} rows, expected {expected}"
    for slot, row in enumerate(rows):
        fields = row.split(",")
        if len(fields) != 9:
            return f"malformed row {row!r}"
        phi, fraction, mean_bw, mean_power, mean_delay = map(float, fields[3:8])
        if fields[:3] != [str(slot), instance.algorithm, str(instance.seed)]:
            return f"row {row!r} does not belong to slot {slot}"
        if not all(math.isfinite(v) for v in (phi, fraction, mean_bw, mean_power, mean_delay)):
            return f"non-finite value in {row!r}"
        if not 0.0 <= fraction <= 1.0 or int(fields[8]) < 1:
            return f"allocated fraction or iterations out of range in {row!r}"
        if mean_delay > 1.0 + 1e-12:
            return f"mean delay cost above the budget in {row!r}"
        if instance.command == "batch" and phi > fraction * instance.size + 1e-9:
            return f"phi above the allocated count in {row!r}"
    return None


class Checker:
    """Counts instances attempted and failed.

    An instance fails when it raises, when its rows break an invariant, when
    they differ from its golden rows, or when a repeat differs from the first
    run of the same instance.
    """

    def __init__(self, golden: dict, seed: int):
        self.golden = golden
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}

    def fail(self, instance, message: str) -> None:
        self.failed += 1
        print(f"FAIL {instance.label}: {message}", file=sys.stderr)

    def check(self, instance, rows: list, need_golden: bool) -> None:
        self.attempted += 1
        golden = self.golden.get(instance.label)
        previous = self.first.setdefault(instance.label, rows)
        if golden is None and need_golden:
            self.fail(instance, "no golden rows")
        elif golden is not None and rows != golden:
            diff = next(i for i in range(max(len(rows), len(golden))) if rows[i : i + 1] != golden[i : i + 1])
            self.fail(instance, f"row {diff} is {rows[diff : diff + 1]}, golden {golden[diff : diff + 1]}")
        elif rows != previous:
            self.fail(instance, "a repeat differs from the first run")
        else:
            problem = row_problem(instance, rows)
            if problem:
                self.fail(instance, problem)

    def raised(self, instance) -> None:
        self.attempted += 1
        self.fail(instance, traceback.format_exc())


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def rows_digest(rows: list) -> str:
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


# -- running instances -------------------------------------------------------


def run_instance(instance, tracer: Tracer | None = None) -> list:
    """Run one instance as `satchain` would; returns its CSV data rows."""
    from satchain import harness

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    config = instance.sim_config()
    with span("harness.run"):
        with span("topology.build_graph"):
            graph = config.build_graph()
        if instance.command == "batch":
            results = [harness.run_batch(config, instance.algorithm, instance.seed, graph=graph)]
        else:
            results = harness.run_online(config, instance.algorithm, instance.seed, graph=graph)
    return harness.emit_text(results, "csv").splitlines()[1:]


class Deadline(Exception):
    """The measuring window closed during a repeat of the list."""


class DecisionTimer:
    """The untraced run's one hook: a timer around each placement decision.

    It records the latencies and the requests decided in the current
    instance, and ends a repeat of the list by raising `Deadline` once the
    window has closed.
    """

    def __init__(self):
        self.samples: list = []
        self.request_ids: set = set()
        self.deadline = math.inf

    def wrap(self, fn):
        clock = time.perf_counter
        samples = self.samples

        def timed(request, *args, **kwargs):
            t0 = clock()
            result = fn(request, *args, **kwargs)
            t1 = clock()
            samples.append(t1 - t0)
            self.request_ids.add(request.id)
            if t1 > self.deadline:
                raise Deadline
            return result

        return timed

    def hooks(self, workload) -> dict:
        return {target: self.wrap for target in workload.decision_entries()}


def measure_setup(config_stem: str) -> float:
    """Median seconds for `import satchain` plus `build_graph` in a fresh interpreter.

    Bytecode is compiled first, and the first spawn, which warms the file
    cache, is not counted.
    """
    compileall.compile_dir(str(SRC / "satchain"), quiet=1)
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t0 = time.perf_counter()\n"
        "import satchain\n"
        "satchain.SimulationConfig.from_json(sys.argv[2]).build_graph()\n"
        "print(time.perf_counter() - t0, satchain.__file__)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-B", "-c", code, str(SRC), config_text(config_stem)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, where = done.stdout.split()
        if Path(where).resolve() != (SRC / "satchain" / "__init__.py").resolve():
            raise RuntimeError(f"set-up imported satchain from {where}")
        times.append(float(seconds))
    return statistics.median(times[1:])


def run_checked(instance, checker: Checker, need_golden: bool, tracer: Tracer | None = None) -> None:
    """Run one instance and count it as passed or failed."""
    try:
        rows = run_instance(instance, tracer)
    except Exception:
        checker.raised(instance)
        return
    checker.check(instance, rows, need_golden)


def quality(rows_per_instance: list) -> dict:
    """Mean over instances of phi and allocated fraction, each an instance's mean over its rows.

    A batch emits one row and an on-line run one per slot, so a row mean
    would weigh an on-line run by its slot count.
    """

    def mean_field(column):
        means = (statistics.fmean(float(row.split(",")[column]) for row in rows) for rows in rows_per_instance)
        return statistics.fmean(means)

    return {"phi_mean": mean_field(3), "allocated_fraction_mean": mean_field(4)}


def untraced(workload, instances, seconds: float, checker: Checker) -> tuple:
    """End-to-end metrics but set-up time, and the rows of the list's first pass.

    Throughput is over the fixed list: each entry's requests over the mean
    wall of its completed runs, so the entries repeated before the window
    closes do not change the mix of slow and fast instances it is taken over.
    """
    timer = DecisionTimer()
    need_golden = checker.seed == DEFAULT_SEED
    requests = [0] * len(instances)
    walls: list = [[] for _ in instances]
    samples = []  # of completed instances only: an aborted one holds mostly its cold first decisions
    first_rows = []  # per instance
    with patched(timer.hooks(workload)):
        deadline = time.perf_counter() + seconds
        for number, instance in enumerate(itertools.chain(instances, itertools.cycle(instances))):
            entry = number % len(instances)
            first = number < len(instances)
            if not first:
                if time.perf_counter() >= deadline:
                    break
                timer.deadline = deadline
            timer.request_ids.clear()
            timer.samples.clear()
            t0 = time.perf_counter()
            try:
                rows = run_instance(instance)
            except Deadline:
                break
            except Exception:
                checker.raised(instance)
                continue
            walls[entry].append(time.perf_counter() - t0)
            requests[entry] = len(timer.request_ids)
            samples.extend(timer.samples)
            checker.check(instance, rows, need_golden=first and need_golden)
            if first:
                first_rows.append(rows)
    completed = [(count, statistics.fmean(w)) for count, w in zip(requests, walls) if w]  # a raising entry has no wall
    if not samples or not completed:
        raise RuntimeError(f"no placement decision timed at {', '.join(workload.decision_entries())}")
    samples_ms = sorted(s * 1000.0 for s in samples)
    decided = sum(count for count, _ in completed)
    wall = sum(mean_wall for _, mean_wall in completed)
    runs = sum(map(len, walls))
    print(f"decisions timed: {len(samples_ms)}; {runs} instance runs; list of {decided} requests in {wall:.3f} s")
    return {
        "requests_per_s": decided / wall,
        "decision_ms_p50": statistics.median(samples_ms),
        "decision_ms_p90": statistics.quantiles(samples_ms, n=10)[8],
        **quality(first_rows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, [row for rows in first_rows for row in rows]


def expected_layers(instances) -> set:
    """Span names that must record calls on this instance list."""
    names = {
        "harness.run",
        "topology.build_graph",
        "workload.generate",
        "topology.candidate_paths",
        KSP_MISS,
        KSP_HIT,
        "costing.context_build",
        "costing.evaluate",
        "costing.network_payoff",
        "energy.attribution",
    }
    algorithms = {i.algorithm for i in instances}
    if algorithms & {"pgra", "viterbi"}:
        names |= {"placement.best_response", "placement.viterbi"}
    if "pgra" in algorithms:
        names.add(GAME)
    if "greedy" in algorithms:
        names.add("placement.greedy")
    if any(i.command == "online" for i in instances):
        names.add("energy.fleet")
    return names


def layer_metrics(tracer: Tracer, expected: set, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics; fails naming any expected layer whose hook saw no call."""
    spans = tracer.summary()
    missing = sorted(name for name in expected if spans.get(name, (0,))[0] == 0)
    if missing:
        raise RuntimeError(f"hooks recorded no calls: {', '.join(missing)}")

    def get(name):
        return spans.get(name, (0, 0.0, 0.0, 0))

    viterbi, best, greedy = get("placement.viterbi"), get("placement.best_response"), get("placement.greedy")
    hit, miss = get(KSP_HIT), get(KSP_MISS)
    commits = sum(1 for trace in tracer.game_traces for row in trace.rows if row.winner is not None)
    game_responses = tracer.calls_under("placement.best_response", GAME)
    return {
        "placement.viterbi_calls": viterbi[0],
        "placement.viterbi_self_s": viterbi[2],
        "placement.best_response_self_s": best[2],
        "placement.viterbi_dead_frac": viterbi[3] / viterbi[0] if viterbi[0] else 0.0,
        "placement.corridors_per_response": viterbi[0] / best[0] if best[0] else 0.0,
        "placement.greedy_calls": greedy[0],
        "placement.greedy_self_s": greedy[2],
        "topology.ksp_calls": hit[0] + miss[0],
        "topology.ksp_misses": miss[0],
        "topology.ksp_miss_s": miss[1],
        "topology.ksp_hit_s": hit[1],
        "topology.candidate_paths_self_s": get("topology.candidate_paths")[2],
        "topology.build_graph_s": get("topology.build_graph")[1],
        "game.iterations": sum(trace.iterations for trace in tracer.game_traces),
        "game.improving_proposals": sum(row.proposals for trace in tracer.game_traces for row in trace.rows),
        "game.responses_per_commit": game_responses / commits if commits else 0.0,
        "game.self_s": get(GAME)[2],
        "costing.context_build_calls": get("costing.context_build")[0],
        "costing.context_build_s": get("costing.context_build")[1],
        "costing.evaluate_calls": get("costing.evaluate")[0],
        "costing.evaluate_s": get("costing.evaluate")[1],
        "costing.network_payoff_s": get("costing.network_payoff")[1],
        "energy.attribution_calls": get("energy.attribution")[0],
        "energy.attribution_s": get("energy.attribution")[1],
        "energy.fleet_s": get("energy.fleet")[1],
        "workload.generate_self_s": get("workload.generate")[2],
        "harness.self_s": get("harness.run")[2],
        "bench.trace_overhead_frac": traced_wall / untraced_wall - 1.0,
    }


def traced(workload, instances, checker: Checker, spans_path: Path | None = None) -> dict:
    """Per-layer metrics from one traced pass over the list.

    Each instance first runs with the decision timer only; the two walls, taken
    side by side so that host drift hits both alike, give the tracing overhead.
    """
    need_golden = checker.seed == DEFAULT_SEED
    timer = DecisionTimer()
    tracer = Tracer()
    untraced_wall = traced_wall = 0.0
    for number, instance in enumerate(instances):
        with patched(timer.hooks(workload)):
            t0 = time.perf_counter()
            run_checked(instance, checker, need_golden)
            untraced_wall += time.perf_counter() - t0
        tracer.current_instance = number
        with patched(tracer.hooks()):
            t0 = time.perf_counter()
            run_checked(instance, checker, need_golden, tracer)
            traced_wall += time.perf_counter() - t0
    metrics = layer_metrics(tracer, expected_layers(instances), traced_wall, untraced_wall)
    print(f"spans recorded: {len(tracer.start)}; traced {traced_wall:.3f} s, untraced {untraced_wall:.3f} s")
    if spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        tracer.dump(spans_path)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    import_satchain()
    workload = WORKLOADS[args.workload]
    instances = workload.instances(args.seed)
    checker = Checker(load_golden(), args.seed)

    metrics = {}
    if not args.trace:
        metrics["setup_s"] = measure_setup(workload.setup_config)
    for canary in workload.canaries():
        run_checked(canary, checker, need_golden=True)
    if args.trace:
        metrics.update(traced(workload, instances, checker, OUT_DIR / f"spans-{workload.name}-{args.seed}.npz"))
        units = PER_LAYER
    else:
        measured, first_rows = untraced(workload, instances, args.seconds, checker)
        metrics.update(measured)
        units = END_TO_END
        print(f"rows digest (seed {args.seed}, {len(instances)} instances): {rows_digest(first_rows)}")
    for exact in (True, False):
        print("counts, which repeat exactly:" if exact else "timings and values:")
        for name, unit in units.items():
            if (unit in EXACT_UNITS) == exact:
                print(f"  {name} = {metrics[name]!r} {unit}")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests of the benchmark itself: python3 -m pytest bench"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import KSP_HIT, KSP_MISS, KSP_TARGET, HookTargetMissing, Tracer, patched, self_times
from workloads import DEFAULT_SEED, WORKLOADS

run.import_satchain()


def test_self_times_subtract_covered_child_time():
    # root [0, 100] holds a [10, 40] and b [50, 70]; a holds c [15, 25]
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 70]
    parent = [-1, 0, 1, 0]
    duration, own = self_times(start, end, parent)
    assert duration.tolist() == [100, 30, 10, 20]
    assert own.tolist() == [50, 20, 10, 20]


def test_tracer_links_nested_calls_to_their_parent():
    tracer = Tracer()
    inner = tracer.wrap("inner")(lambda: None)
    outer = tracer.wrap("outer")(lambda: inner())
    with tracer.span("root"):
        outer()
        outer()
    assert [tracer.names[i] for i in tracer.name] == ["root", "outer", "inner", "outer", "inner"]
    assert list(tracer.parent) == [-1, 0, 1, 0, 3]
    summary = tracer.summary()
    assert summary["inner"][0] == 2 and summary["inner"][3] == 2  # both returned None
    assert tracer.calls_under("inner", "outer") == 2
    calls, total, own, _ = summary["root"]
    assert calls == 1 and 0 <= own <= total


def test_golden_check_flags_one_ulp_change_in_phi():
    instance = WORKLOADS["pgra"].canaries()[0]
    golden = run.load_golden()
    rows = golden[instance.label]
    fields = rows[0].split(",")
    fields[3] = repr(math.nextafter(float(fields[3]), math.inf))
    nudged = [",".join(fields)] + rows[1:]

    checker = run.Checker(golden, DEFAULT_SEED)
    checker.check(instance, rows, need_golden=True)
    assert checker.failed == 0
    checker = run.Checker(golden, DEFAULT_SEED)
    checker.check(instance, nudged, need_golden=True)
    assert (checker.attempted, checker.failed) == (1, 1)


def test_repeat_that_differs_from_first_run_fails():
    instance = dataclasses.replace(WORKLOADS["pgra"].canaries()[0], seed=7)
    checker = run.Checker({}, seed=0)
    checker.check(instance, ["0,pgra,7,3.0,0.5,0.01,0.02,0.9,6"], need_golden=False)
    checker.check(instance, ["0,pgra,7,3.5,0.5,0.01,0.02,0.9,6"], need_golden=False)
    assert (checker.attempted, checker.failed) == (2, 1)


def test_golden_rows_are_what_the_cli_prints():
    from golden import cli_rows

    golden = run.load_golden()
    for workload in WORKLOADS.values():
        for canary in workload.canaries():
            assert cli_rows(canary) == golden[canary.label]


def test_ksp_miss_counter_survives_freed_graphs():
    from satchain.harness import SimulationConfig

    config = SimulationConfig()
    tracer = Tracer()
    rounds = 30
    ids = set()
    with patched({KSP_TARGET: tracer.wrap_ksp}):
        for _ in range(rounds):
            graph = config.build_graph()
            ids.add(id(graph))
            graph.k_shortest_paths(0, 1, 2)
            graph.k_shortest_paths(0, 1, d=2)
            del graph
            gc.collect()
    summary = tracer.summary()
    assert summary[KSP_MISS][0] == rounds
    assert summary[KSP_HIT][0] == rounds
    assert len(ids) < rounds  # freed graphs' ids were reused, which an id-keyed counter would miscount


def test_missing_hook_target_fails_with_its_name(monkeypatch):
    monkeypatch.delattr("satchain.harness.greedy_place")
    with pytest.raises(HookTargetMissing, match="satchain.harness.greedy_place"):
        with patched(Tracer().hooks()):
            pass


def test_layer_that_records_no_calls_fails_with_its_name():
    with pytest.raises(RuntimeError, match="placement.greedy"):
        run.layer_metrics(Tracer(), {"placement.greedy"}, 1.0, 1.0)


def test_hooks_are_removed_after_use():
    import satchain.costing
    import satchain.harness

    before = (satchain.harness.best_response, vars(satchain.costing.ContextView)["build"])
    with patched(Tracer().hooks()):
        assert satchain.harness.best_response is not before[0]
    assert (satchain.harness.best_response, vars(satchain.costing.ContextView)["build"]) == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_instance_of_each_workload_passes(name):
    tiny = dataclasses.replace(WORKLOADS[name], entries=WORKLOADS[name].canary)
    instances = tiny.instances(DEFAULT_SEED)
    golden = run.load_golden()

    checker = run.Checker(golden, DEFAULT_SEED)
    metrics, rows = run.untraced(tiny, instances, 0.5, checker)
    assert checker.failed == 0 and checker.attempted >= len(instances)
    assert set(metrics) == set(run.END_TO_END) - {"setup_s"}
    assert rows == [row for i in instances for row in golden[i.label]]

    checker = run.Checker(golden, DEFAULT_SEED)
    metrics = run.traced(tiny, instances, checker)
    assert checker.failed == 0 and checker.attempted == 2 * len(instances)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["topology.ksp_misses"] > 0


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["command"] == ["python3", "bench/run.py"]


def test_run_without_library_sources_exits_without_result(tmp_path: Path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pgra", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""

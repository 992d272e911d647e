"""`tools/bench_pairs.py`'s summary of paired bench runs, on fixed numbers;
no benchmark runs here."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"setup_s": "lower", "decision_ms_p50": "lower", "requests_per_s": "higher"}


def run(setup_s, p50, rate):
    return {"correct": True, "failed": 0, "metrics": {"setup_s": setup_s, "decision_ms_p50": p50, "requests_per_s": rate}}


PAIRS = [
    {"first": "a", "a": run(0.20, 10.0, 100.0), "b": run(0.30, 6.0, 110.0)},
    {"first": "b", "a": run(0.40, 12.0, 90.0), "b": run(0.10, 7.0, 90.0)},
    {"first": "a", "a": run(0.22, 11.0, 95.0), "b": run(0.32, 8.0, 80.0)},
    {"first": "b", "a": run(0.42, 13.0, 105.0), "b": run(0.12, 5.0, 120.0)},
]


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == {"q1": 1.75, "median": 2.5, "q3": 3.25}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_summary_counts_wins_by_direction_and_compares_the_gap_with_the_iqr():
    metrics = bench_pairs.summarize(PAIRS, BETTER)["metrics"]
    p50 = metrics["decision_ms_p50"]
    assert p50["wins"] == ["b", "b", "b", "b"] and p50["b_wins"] == 4 and p50["pairs"] == 4
    assert p50["a"] == {"q1": 10.75, "median": 11.5, "q3": 12.25}
    assert p50["b"] == {"q1": 5.75, "median": 6.5, "q3": 7.25}
    assert p50["change"] == pytest.approx(-5.0 / 11.5)
    assert p50["gap_exceeds_a_iqr"] is True
    rate = metrics["requests_per_s"]
    assert rate["wins"] == ["b", "tie", "a", "b"] and rate["b_wins"] == 2
    assert rate["gap_exceeds_a_iqr"] is False  # medians 97.5 and 100.0, A's quartiles 93.75 and 101.25


def test_setup_time_is_split_by_position_in_the_pair():
    by_position = bench_pairs.summarize(PAIRS, BETTER)["setup_s_by_position"]
    assert by_position == {
        "a": {"first": [0.20, 0.22], "second": [0.40, 0.42]},
        "b": {"first": [0.10, 0.12], "second": [0.30, 0.32]},
    }


def test_a_pair_with_a_failed_run_counts_for_no_metric():
    failed = {"first": "a", "a": run(0.2, 1.0, 1.0), "b": {"correct": False, "failed": None, "metrics": {}}}
    summary = bench_pairs.summarize([failed, *PAIRS[:1]], BETTER)
    assert summary["metrics"]["decision_ms_p50"]["pairs"] == 1
    assert summary["setup_s_by_position"]["a"] == {"first": [0.20], "second": []}

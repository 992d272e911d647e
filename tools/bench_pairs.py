#!/usr/bin/env python3
"""Paired benchmark runs of two satchain checkouts.

    python3 tools/bench_pairs.py PARENT CHANGE --workloads pgra onepass-cold \\
        --pairs 10 --seeds 1 --seconds 50 --out BENCH.json

Runs ``bench/run.py --trace 0`` of each checkout in its own directory, one
pair per round and workload and seed, in ABBA order: A goes first in even
rounds and B in odd ones, so that host drift and the position in a pair hit
both sides alike.  For each workload and seed it writes, per end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles, which side
won each pair, the change of B's median against A's and whether the gap
between the medians exceeds A's interquartile spread; each side's quartiles
of the decisions a run timed (its ``decisions timed: N`` line), since the
bench keeps every sample and so its ``peak_rss_mb`` grows with that count;
``setup_s`` split by position in the pair; both commit ids; and each run's
``correct`` and ``failed``.  An existing ``--out`` file of the same two
commits keeps its other workloads and seeds.  Exits 1 unless every run reads
``correct: true, failed: 0``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("a", "b")


def quartiles(values: list) -> dict:
    """First quartile, median and third quartile, interpolated between the
    sorted values (the inclusive method, which a single value also takes)."""
    ordered = sorted(values)

    def at(fraction):
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return {"q1": at(0.25), "median": at(0.5), "q3": at(0.75)}


def summarize(pairs: list, better: dict) -> dict:
    """Per-metric summary of `pairs`, each ``{"first": "a" or "b", "a": run,
    "b": run}`` with a run's metric values under ``"metrics"`` and its count
    of timed decisions under ``"decisions_timed"``; `better` maps each metric
    to "lower" or "higher".  A pair where either run has no metrics counts
    for none, and a side with a run of no count gets no count quartiles."""
    pairs = [pair for pair in pairs if pair["a"]["metrics"] and pair["b"]["metrics"]]
    complete = [(pair["first"], {side: pair[side]["metrics"] for side in SIDES}) for pair in pairs]
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        wins = []
        for _, values in complete:
            gain = sign * (values["b"][name] - values["a"][name])
            wins.append("b" if gain > 0 else "a" if gain < 0 else "tie")
        sides = {side: quartiles([values[side][name] for _, values in complete]) for side in SIDES} if complete else {}
        summary = {"better": direction, "pairs": len(complete), "wins": wins, "b_wins": wins.count("b"), **sides}
        if complete:
            a, b = sides["a"], sides["b"]
            summary["change"] = (b["median"] - a["median"]) / a["median"] if a["median"] else None
            summary["gap_exceeds_a_iqr"] = abs(b["median"] - a["median"]) > a["q3"] - a["q1"]
        metrics[name] = summary
    by_position = {side: {"first": [], "second": []} for side in SIDES}
    for first, values in complete:
        for side in SIDES:
            by_position[side]["first" if first == side else "second"].append(values[side]["setup_s"])
    timed = {side: [pair[side].get("decisions_timed") for pair in pairs] for side in SIDES}
    timed = {side: quartiles(counts) for side, counts in timed.items() if counts and None not in counts}
    return {"metrics": metrics, "decisions_timed": timed, "setup_s_by_position": by_position}


def decisions_timed(stdout: str) -> int | None:
    """N of the run's ``decisions timed: N; ...`` line, None without one."""
    found = re.search(r"^decisions timed: (\d+);", stdout, re.MULTILINE)
    return int(found.group(1)) if found else None


def bench_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in `checkout`: its last output line's
    ``correct``, ``attempted`` and ``failed``, its metric values and the
    number of decisions it timed."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    command += ["--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        fields = {key: result[key] for key in ("correct", "attempted", "failed")}
        return {**fields, "metrics": metrics, "decisions_timed": decisions_timed(done.stdout)}
    except (IndexError, KeyError, TypeError, ValueError):
        return {"correct": False, "attempted": None, "failed": None, "metrics": {}, "error": done.stderr[-2000:]}


def commit_id(checkout: Path) -> str | None:
    """The checkout's HEAD, marked ``+dirty`` when its tracked files differ."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode:
        return None
    dirty = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="checkout A, the parent")
    parser.add_argument("b", type=Path, help="checkout B, the change")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    checkouts = {"a": args.a.resolve(), "b": args.b.resolve()}
    commits = {side: commit_id(checkout) for side, checkout in checkouts.items()}
    report = {"commits": commits, "entries": {}}
    if args.out.is_file():
        report = json.loads(args.out.read_text())
        if report["commits"] != commits:
            sys.exit(f"{args.out} holds runs of commits {report['commits']}, not {commits}")
    better = {row["name"]: row["better"] for row in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    runs = {(workload, seed): [] for workload in args.workloads for seed in args.seeds}
    host = {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()}
    for number in range(args.pairs):
        order = SIDES if number % 2 == 0 else SIDES[::-1]
        for (workload, seed), pairs in runs.items():
            pair = {"first": order[0]}
            for side in order:
                pair[side] = bench_once(checkouts[side], workload, seed, args.seconds)
                print(f"pair {number} {workload} seed {seed} {side}: correct={pair[side]['correct']}", flush=True)
            pairs.append(pair)
            report["entries"][f"{workload} seed {seed}"] = {
                "command": f"bench/run.py --workload {workload} --seed {seed} --seconds {args.seconds:g} --trace 0",
                "host": host,
                **summarize(pairs, better),
                "runs": pairs,
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n")  # after every pair, so a cut run keeps its pairs
    runs = [pair[side] for pairs in runs.values() for pair in pairs for side in SIDES]
    ok = all(run["correct"] is True and run["failed"] == 0 for run in runs)
    print(f"wrote {args.out}; every run correct with no failure: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())

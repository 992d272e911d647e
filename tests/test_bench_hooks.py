"""Every library entry point that the benchmark hooks by name still exists,
and every config the benchmark builds is still accepted.

`bench/spans.py` wraps satchain's layer entry points by dotted name, and
`bench/workloads.py` names the placement entry that each algorithm's decision
timer wraps and builds each instance's config.  A refactor that renames or
moves one of them, or that rejects how a config is built, breaks the
benchmark run; these tests make it fail the test suite as well.
"""

import sys
import types
from pathlib import Path

import pytest

from satchain.harness import OnlineSimulation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    """Run ``bench/<name>.py`` from its source, so no bytecode is written under bench/."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"_bench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look up their defining module
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    return module


spans = bench_module("spans")
workloads = bench_module("workloads")
TARGETS = sorted({*spans.HOOKS, spans.GAME_TARGET, spans.KSP_TARGET, *workloads.DECISION_ENTRY.values()})


@pytest.mark.parametrize("target", TARGETS)
def test_hook_target_resolves(target):
    owner, attribute, _ = spans.resolve(target)
    assert callable(getattr(owner, attribute))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_bench_config_passes_the_run_start_check(name):
    # `Instance.sim_config` assigns fields after construction, which `OnlineSimulation` checks again
    workload = workloads.WORKLOADS[name]
    for instance in workload.instances(workloads.DEFAULT_SEED) + workload.canaries():
        OnlineSimulation(instance.sim_config())

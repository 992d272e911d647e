"""Hooks around satchain's layer entry points, installed from outside the library.

`patched` swaps module globals and class attributes for wrappers and puts the
originals back on exit.  Callers inside satchain look these names up at call
time, so the wrappers see every call.  A target that no longer exists raises
`HookTargetMissing` naming it, before anything is patched, so a renamed or
removed entry point fails the run instead of reading as zero calls.

`Tracer` records one span per call: name, start, end, parent span and instance
number, kept in flat arrays in memory and written out by `dump`.  Self time is
a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import time
import weakref
from array import array
from contextlib import contextmanager

import numpy as np

# span name of every hooked callable; one layer can be entered from two modules
HOOKS = {
    "satchain.harness.generate_requests": "workload.generate",
    "satchain.harness.best_response": "placement.best_response",
    "satchain.game.best_response": "placement.best_response",
    "satchain.harness.greedy_place": "placement.greedy",
    "satchain.placement.viterbi_place": "placement.viterbi",
    "satchain.placement.evaluate_strategy": "costing.evaluate",
    "satchain.costing.ContextView.build": "costing.context_build",
    "satchain.harness.network_payoff": "costing.network_payoff",
    "satchain.game.network_payoff": "costing.network_payoff",
    "satchain.costing.vnf_power_attribution": "energy.attribution",
    "satchain.energy.ServerFleet.advance": "energy.fleet",
    "satchain.energy.ServerFleet.mark_service": "energy.fleet",
    "satchain.energy.ServerFleet.record": "energy.fleet",
    "satchain.topology.NetworkGraph.candidate_sd_paths": "topology.candidate_paths",
}
GAME_TARGET = "satchain.harness.pgra_run"
GAME = "game.pgra_run"
KSP_TARGET = "satchain.topology.NetworkGraph.k_shortest_paths"
KSP_HIT, KSP_MISS = "topology.ksp_hit", "topology.ksp_miss"


class HookTargetMissing(LookupError):
    """A hook names a function or method that satchain no longer has."""


def resolve(dotted: str) -> tuple:
    """(owner, attribute, raw value) for ``pkg.module.attr`` or ``pkg.module.Class.attr``."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        break
    else:
        raise HookTargetMissing(f"hook target {dotted} not found: no module")
    for name in parts[cut:-1]:
        owner = vars(owner).get(name)
        if owner is None:
            raise HookTargetMissing(f"hook target {dotted} not found: no {name}")
    raw = vars(owner).get(parts[-1])
    if raw is None:
        raise HookTargetMissing(f"hook target {dotted} not found")
    return owner, parts[-1], raw


@contextmanager
def patched(wrappers: dict):
    """Replace each dotted target with ``make(original)`` for the duration."""
    resolved = [(resolve(dotted), make) for dotted, make in wrappers.items()]
    try:
        for (owner, attr, raw), make in resolved:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
        yield
    finally:
        for (owner, attr, raw), _ in resolved:
            setattr(owner, attr, raw)


def self_times(start, end, parent) -> tuple:
    """(duration, self time) per span, in the units of ``start``/``end``.

    ``parent`` holds the index of each span's parent, or -1 for a root.
    Spans of one thread nest, so the children's durations are the covered time.
    """
    duration = (np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)).astype(np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration, duration - covered


class Tracer:
    """In-memory span log for one single-threaded run."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.instance = array("i")
        self.start = array("q")
        self.end = array("q")
        self.returned_none: list = []
        self.current_instance = -1
        self.game_traces: list = []
        self._stack = [-1]
        # keyed on the graph object, not id(graph): the ids of freed graphs are reused
        self._ksp_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.returned_none.append(0)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.instance.append(self.current_instance)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, nid: int, fn, args, kwargs):
        idx = self._open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if result is None:
            self.returned_none[nid] += 1
        return result

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str):
        nid = self.name_id(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(nid, fn, args, kwargs)

            return wrapper

        return make

    def wrap_ksp(self, fn):
        """Split `k_shortest_paths` calls into first calls (misses) and repeats (hits).

        The key is ``(s, t, d)`` per graph, as the library's own cache keys it.
        """
        hit, miss = self.name_id(KSP_HIT), self.name_id(KSP_MISS)
        seen = self._ksp_seen

        def wrapper(graph, s, t, d):
            keys = seen.get(graph)
            if keys is None:
                keys = seen[graph] = set()
            key = (s, t, d)
            result = self.call(hit if key in keys else miss, fn, (graph, s, t, d), {})
            keys.add(key)
            return result

        return wrapper

    def wrap_game(self, fn):
        """Span around `pgra_run` that also keeps the `GameTrace` it returns."""
        inner = self.wrap(GAME)(fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.game_traces.append(result[1])
            return result

        return wrapper

    def hooks(self) -> dict:
        wrappers = {target: self.wrap(name) for target, name in HOOKS.items()}
        wrappers[GAME_TARGET] = self.wrap_game
        wrappers[KSP_TARGET] = self.wrap_ksp
        return wrappers

    def summary(self) -> dict:
        """name -> (calls, total seconds, self seconds, calls returning None)."""
        duration, own = self_times(self.start, self.end, self.parent)
        names = np.asarray(self.name, dtype=np.int64)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k) / 1e9
        selft = np.bincount(names, weights=own, minlength=k) / 1e9
        return {
            name: (int(calls[i]), float(total[i]), float(selft[i]), self.returned_none[i])
            for i, name in enumerate(self.names)
        }

    def calls_under(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose parent span is named ``parent``."""
        if child not in self._ids or parent not in self._ids:
            return 0
        names = np.asarray(self.name, dtype=np.int64)
        parents = np.asarray(self.parent, dtype=np.int64)
        mine = (names == self._ids[child]) & (parents >= 0)
        return int(np.count_nonzero(names[parents[mine]] == self._ids[parent]))

    def dump(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(self.name),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            instance=np.asarray(self.instance),
        )

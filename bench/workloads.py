"""The benchmark's workloads: fixed lists of allocation instances per seed.

An instance is one `satchain batch` or `satchain online` invocation: a
checked-in config file under ``configs/``, an algorithm, a request count
(batch) or slot count (online) and a library seed.  `Instance.label` is the
command line that reproduces it, and it keys the golden rows.

The benchmark seed picks the library seeds: entry ``offset`` of a workload runs
with library seed ``seed * 100 + offset``.  Entries that share an offset see
the same requests, so the one-pass baselines are compared on identical inputs.
Each list is ordered so that any prefix of it has about the list's mix, since
the timed window ends part way through a repeat of the list.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
DEFAULT_SEED = 1
# the placement entry each algorithm calls, once per request decision
DECISION_ENTRY = {
    "pgra": "satchain.game.best_response",
    "viterbi": "satchain.harness.best_response",
    "greedy": "satchain.harness.greedy_place",
}


@dataclass(frozen=True)
class Instance:
    command: str  # "batch" or "online"
    config: str  # file stem under configs/
    algorithm: str  # "pgra", "viterbi" or "greedy"
    size: int  # requests (batch) or slots (online)
    seed: int  # library seed

    def cli_args(self, config_dir: Path = CONFIG_DIR) -> list:
        count_flag = "--requests" if self.command == "batch" else "--slots"
        return [
            self.command,
            "--config",
            str(config_dir / f"{self.config}.json"),
            "--algorithm",
            self.algorithm,
            count_flag,
            str(self.size),
            "--seed",
            str(self.seed),
        ]

    @property
    def label(self) -> str:
        return " ".join(["satchain", *self.cli_args(Path("bench/configs"))])

    def sim_config(self):
        """The `SimulationConfig` that `satchain.cli` builds for `cli_args`."""
        from satchain.harness import SimulationConfig

        config = SimulationConfig.from_json(config_text(self.config))
        config.mode = self.command
        if self.command == "batch":
            config.requests = self.size
        else:
            config.slots = self.size
        return config


def config_text(stem: str) -> str:
    return (CONFIG_DIR / f"{stem}.json").read_text()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entries: tuple  # (command, config, algorithm, size, seed offset)
    canary: tuple  # entries run at DEFAULT_SEED in every run, checked against golden rows
    setup_config: str  # config whose graph the set-up time builds

    def instances(self, seed: int) -> list:
        return [Instance(*entry[:4], seed=seed * 100 + entry[4]) for entry in self.entries]

    def canaries(self) -> list:
        return [Instance(*entry[:4], seed=DEFAULT_SEED * 100 + entry[4]) for entry in self.canary]

    def decision_entries(self) -> list:
        """The placement entries this workload's algorithms call; the untraced run times these."""
        return sorted({DECISION_ENTRY[entry[2]] for entry in self.entries})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pgra",
            "pgra batches at 12 and 15 nodes and slotted pgra at 12 nodes, fresh graph each: the beam kernel, "
            "the game's m best responses per commit and the server fleet dominate",
            tuple(
                entry
                for rep in range(3)
                for entry in (
                    ("batch", "n12", "pgra", 20, rep),
                    ("online", "n12", "pgra", 8, 2 * rep),
                    ("batch", "n15", "pgra", 24, rep),
                    ("online", "n12", "pgra", 8, 2 * rep + 1),
                )
            )[:9],  # batch and slotted runs alternate; nine instances fill half the window
            (("batch", "n6", "pgra", 10, 50), ("online", "n12", "pgra", 3, 50)),
            "n15",
        ),
        Workload(
            "onepass-cold",
            "viterbi and greedy one-pass batches at 6 to 15 nodes, fresh graph each: cold path search "
            "dominates and no game runs",
            tuple(
                ("batch", f"n{nodes}", algorithm, 20, rep)
                for rep in range(18)
                for nodes in (15, 6, 12, 9)
                for algorithm in ("viterbi", "greedy")
            ),
            (("batch", "n6", "viterbi", 10, 50), ("batch", "n6", "greedy", 10, 50)),
            "n15",
        ),
    )
}

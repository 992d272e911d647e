#!/usr/bin/env python3
"""Write bench/golden.json: the CSV rows `satchain` emits for every instance the
benchmark checks at its default seed (each workload's list and canaries).

    python3 bench/golden.py

Rows come from the command line entry point itself, so the golden file holds
exactly what `satchain batch` / `satchain online` print.  Rewrite it only in a
change that says it changes behaviour.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import GOLDEN, import_satchain  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def cli_rows(instance) -> list:
    """Data rows `satchain` prints for the instance, header dropped."""
    from satchain.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(instance.cli_args())
    if status != 0:
        raise RuntimeError(f"{instance.label} exited with {status}")
    return out.getvalue().splitlines()[1:]


def main() -> int:
    import_satchain()
    golden = {}
    for workload in WORKLOADS.values():
        for instance in workload.canaries() + workload.instances(DEFAULT_SEED):
            if instance.label not in golden:
                print(instance.label, flush=True)
                golden[instance.label] = cli_rows(instance)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} instances to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

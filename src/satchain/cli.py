"""Command line entry points: batch, online, taguchi, check."""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import replace

from . import checks
from .harness import ALGORITHMS, SimulationConfig, check_sweep, emit_text, run_batch, run_online, run_taguchi


def _seed(text: str) -> int:
    """`--seed` value: seeded streams take only non-negative integers."""
    try:
        seed = int(text)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, not {text!r}")


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (flags override its values)")
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--out", help="output file; stdout when omitted")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--nodes", type=int, choices=(6, 9, 12, 15), help="total satellites (3 planes)")


def _add_run(parser):
    """Flags of one run; the sweep sets the algorithm, paths, beam and requests itself."""
    _add_common(parser)
    parser.add_argument("--algorithm", choices=ALGORITHMS, default="pgra")
    parser.add_argument("--d", type=int, help="candidate paths per request")
    parser.add_argument("--beam", type=int, help="beam width")
    parser.add_argument("--requests", type=int, help="requests per batch")


def _load_config(args) -> SimulationConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"--config: cannot read {args.config!r}: {exc.strerror}") from None
        config = SimulationConfig.from_json(text)
    else:
        config = SimulationConfig()
    if args.nodes is not None:
        config = config.with_nodes(args.nodes)
    flags = {
        "num_paths": getattr(args, "d", None),
        "beam_width": getattr(args, "beam", None),
        "requests": getattr(args, "requests", None),
        "slots": getattr(args, "slots", None),
    }
    # replace() re-runs the config's validation on the flag values
    return replace(config, **{name: value for name, value in flags.items() if value is not None})


def _levels(text: str, flag: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, not {text!r}") from None


def _open_out(path):
    """The `--out` file, opened before any run so that a bad path is a usage
    error; stdout, left open on exit, when the flag is absent."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"--out: cannot write {path!r}: {exc.strerror}") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="satchain",
        description="Service-chain placement experiments on satellite edge networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    batch = sub.add_parser("batch", help="one slot, one batch of requests")
    _add_run(batch)

    online = sub.add_parser("online", help="slotted simulation with arrivals and expiries")
    _add_run(online)
    online.add_argument("--slots", type=int, help="number of slots")

    # no abbreviations, or a batch flag such as --d would be read as --d-levels
    taguchi = sub.add_parser("taguchi", help="paths-by-beam orthogonal sweep", allow_abbrev=False)
    _add_common(taguchi)
    taguchi.add_argument("--repetitions", type=int, default=10)
    taguchi.add_argument("--d-levels", default="1,2,4,8", help="comma-separated path-count levels")
    taguchi.add_argument("--b-levels", default="1,2,4,8", help="comma-separated beam-width levels")
    taguchi.add_argument("--m-values", default="10,20,30", help="comma-separated request counts")

    check = sub.add_parser("check", help="run the built-in property suites")
    check.add_argument("--seed", type=_seed, default=0)

    args, unknown = parser.parse_known_args(argv)
    if unknown:  # reported with the subcommand's usage line, which lists the flags it takes
        sub.choices[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command == "check":
        failures = 0
        for name, ok, detail in checks.run_all(args.seed):
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
            failures += 0 if ok else 1
        return 1 if failures else 0
    try:
        config = _load_config(args)
        if args.command == "taguchi":
            sweep = {
                "d_levels": _levels(args.d_levels, "--d-levels"),
                "b_levels": _levels(args.b_levels, "--b-levels"),
                "m_values": _levels(args.m_values, "--m-values"),
                "repetitions": args.repetitions,
            }
            check_sweep(config, **sweep)
        out = _open_out(args.out)
    except ValueError as exc:  # a bad flag value, config file or --out path
        sub.choices[args.command].error(str(exc))

    with out as fh:
        if args.command == "batch":
            text = emit_text([run_batch(config, args.algorithm, args.seed)], args.format)
        elif args.command == "online":
            text = emit_text(run_online(config, args.algorithm, args.seed), args.format)
        else:
            result = run_taguchi(config, seed=args.seed, **sweep)
            text = result.to_csv_text() if args.format == "csv" else result.to_json_text()
        fh.write(text)
    if args.out:
        print(f"wrote {args.out}")
    return 0

if __name__ == "__main__":
    raise SystemExit(main())

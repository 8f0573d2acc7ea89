"""Command-line interface.

Subcommands:
    sweep        run the k-grid sweep and write records.csv, summary.txt and
                 the fig_*.plot scripts into --out
    verify       run the built-in oracle suite (exit 3 on any failure)
    show-config  print the resolved configuration

Exit codes: 0 success, 1 configuration error, 2 runtime failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from .config import _ENUMS, ConfigError, load_config, serialize

# config key -> (flag, add_argument options) of the per-run overrides
_OVERRIDE_FLAGS = {
    "k_points": ("--k-points", dict(type=int, help="override k_points")),
    "form": (
        "--form",
        dict(choices=_ENUMS["form"], help="which right-hand side to integrate"),
    ),
    "coupling_power": (
        "--coupling-power",
        dict(choices=_ENUMS["coupling_power"], help="closed-coupling convention"),
    ),
    "eval_point": (
        "--eval",
        dict(choices=_ENUMS["eval_point"], help="where each mode is evaluated"),
    ),
}


def _resolve(args: argparse.Namespace):
    config = load_config(args.config)
    overrides = {
        key: getattr(args, key)
        for key in _OVERRIDE_FLAGS
        if getattr(args, key, None) is not None
    }
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sqspec",
        description="squeezed-vacuum curvature power spectrum pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run the k-grid sweep and write outputs")
    p_verify = sub.add_parser("verify", help="run the built-in oracle suite")
    p_show = sub.add_parser("show-config", help="print the resolved configuration")
    for p in (p_sweep, p_verify, p_show):
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
    # verify reads only rtol and atol, so it takes no per-run overrides
    for p in (p_sweep, p_show):
        for key, (flag, options) in _OVERRIDE_FLAGS.items():
            p.add_argument(flag, dest=key, **options)
    p_sweep.add_argument(
        "--out", metavar="DIR", default="sqspec-out", help="output directory"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve(args)
        if args.command == "show-config":
            print(serialize(config), end="")
            return 0

        # the engine is loaded only by the commands that run it
        from .pipeline import fit_skipped, no_records, run_sweep, verify, write_outputs

        if args.command == "verify":
            code, lines = verify(config)
            for line in lines:
                print(line)
            return code

        # sweep
        t0 = time.perf_counter()
        report = run_sweep(config)
        files = write_outputs(report, args.out)
        dt = time.perf_counter() - t0
        s = report.summary
        print(f"swept {s.n_records} modes in {dt:.2f} s ({s.n_failures} failures)")
        print(f"max |gamma - 1| = {no_records(s) or format(s.max_abs_gamma_minus_one, '.3e')}")
        print(f"fitted tilt = {fit_skipped(s) or format(s.tilt_fit, '.6f')}")
        for path in files:
            print(f"wrote {path}")
        return 0 if s.n_failures == 0 else 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure surface for scripting
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

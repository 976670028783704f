"""Command-line entry point.

Exit codes: 0 success, 1 configuration or usage error, 2 validation failure,
3 runtime numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .config import ConfigError, apply_overrides, fig2_config, load_config
from .harness import (
    MAX_THREADS,
    dump_geometry_csv,
    records_to_csv,
    run_experiment,
    run_fig2,
    run_fig3,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _int_at_least(lo: int, hi: float = math.inf):
    """Argparse type for an integer option whose value must lie in [lo, hi]."""
    def parse(text: str) -> int:
        if not text.isdecimal() or not lo <= int(text) <= hi:
            raise argparse.ArgumentTypeError(
                "expected an integer in [%d, %s], got %r" % (lo, hi, text))
        return int(text)
    return parse


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override master_seed")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--threads", type=_int_at_least(1, MAX_THREADS), default=1,
                   help="worker processes for Monte Carlo trials, 1 to %d (this process "
                        "and, per geometry, children forked from it); the output is "
                        "byte-identical for every value" % MAX_THREADS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="Uplink cell-free massive MIMO OFDM phase-noise simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", help="flat key = value configuration file")
    _add_run_options(p_run)

    for fig in ("fig2", "fig3"):
        p_fig = sub.add_parser(fig, help="run the %s preset" % fig)
        p_fig.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                           help="configuration overrides")
        _add_run_options(p_fig)

    p_val = sub.add_parser("validate", help="run the model validation suite")
    # 5 is the smallest transform at which the domain check's layout (N_c = 2)
    # holds two whole coherence blocks and a partial one, so that the low end
    # checks both kinds of the synthesis' block sums; 256 is the largest size
    # the acceptance suite runs, and the kernel oracle check grows as N^2 per call
    p_val.add_argument("--n", type=_int_at_least(5, 256), default=64,
                       help="transform size for checks (5 to 256)")

    p_dump = sub.add_parser("dump-geometry", help="write node coordinates as CSV")
    p_dump.add_argument("config", help="configuration file")
    p_dump.add_argument("--seed", type=int, default=None, help="override master_seed")
    p_dump.add_argument("--out", default=None, help="output CSV path (default stdout)")

    return parser


def _check_out(out_path) -> None:
    """Reject an output path that cannot be written, before anything runs;
    an existing file is left as it is until the results replace it."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        raise ConfigError("--out %s is a directory" % out_path)
    if not os.path.isdir(os.path.dirname(out_path) or "."):
        raise ConfigError("--out %s: no such directory" % out_path)


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
        except OSError as exc:
            raise ConfigError("cannot write --out %s: %s" % (out_path, exc)) from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    # built per call, so a wrapper set on this module's names is the one called
    runners = {"run": run_experiment, "fig2": run_fig2, "fig3": run_fig3}
    try:
        _check_out(getattr(args, "out", None))
        if args.command == "validate":
            from .validate import run_validation

            ok, lines = run_validation(n=args.n)
            for line in lines:
                print(line)
            return EXIT_OK if ok else EXIT_VALIDATION

        if args.command in ("fig2", "fig3"):
            if args.command == "fig3" and any(
                    o.split("=", 1)[0].strip() == "n_ues" for o in args.overrides):
                raise ConfigError("fig3 sets n_ues itself")
            cfg = apply_overrides(replace(fig2_config(), name=args.command), args.overrides)
        else:
            cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, master_seed=args.seed)
        if args.command == "dump-geometry":
            text = dump_geometry_csv(cfg)
        else:
            records = runners[args.command](cfg, threads=args.threads, progress=True)
            text = records_to_csv(records)
        _emit(text, args.out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print("runtime error: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

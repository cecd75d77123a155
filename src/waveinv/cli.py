"""Command-line entry points for the benchmark harness.

Subcommands: gen-refs, optimize, surface, manifold, report.  Global flags
--config (flat key = value text), --seed, --out.  Exit codes: 0 on success,
2 on configuration errors, 3 on batch-level failures (no reference or run
survived, a malformed input file, a model-domain or disk error).  Any other
exception is a programming error and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .bench import (
    ConfigError,
    gen_refs,
    load_config,
    manifold_export,
    mean_reference,
    optimize_batch,
    read_refs,
    report,
    surface_scan,
    write_batch,
    write_manifold,
    write_refs,
    write_surface,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BATCH = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="waveinv",
        description="Material-parameter inversion benchmarks on a surrogate waveguide model.",
    )
    parser.add_argument("--config", type=Path, default=None, help="flat key = value configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override the configured seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("-v", "--verbose", action="store_true", help="log per-sample warnings")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-refs", help="draw ground truths and simulate reference signals")
    sub.add_parser("optimize", help="run the configured optimizer against stored references")
    sub.add_parser("surface", help="scan the objective over a parameter grid")
    sub.add_parser("manifold", help="export the PCA-projected model manifold")
    sub.add_parser("report", help="aggregate stored runs into histograms and summaries")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING, format="%(message)s")
    try:
        cfg = load_config(args.config, overrides={"seed": args.seed})
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "gen-refs":
            refs = gen_refs(cfg)
            if not refs:
                print("batch failure: no reference could be simulated", file=sys.stderr)
                return EXIT_BATCH
            write_refs(refs, cfg, args.out)
            print(f"wrote {len(refs)} references to {args.out / 'refs'}")

        elif args.command == "optimize":
            refs = read_refs(args.out)
            result = optimize_batch(cfg, refs)
            if not any(run.trace.records for run in result.runs):
                print("batch failure: no run produced a trace", file=sys.stderr)
                return EXIT_BATCH
            write_batch(result, args.out)
            wins = result.evals_to_success()
            median = f"{np.median(wins):g}" if wins else "-"
            print(
                f"{cfg.optimizer} on {cfg.material}/{cfg.objective}: "
                f"{sum(r.success for r in result.runs)}/{len(result.runs)} successful, "
                f"median evals {median}; traces in {args.out / 'runs' / cfg.optimizer}"
            )

        elif args.command == "surface":
            result = surface_scan(cfg, mean_reference(cfg))
            path = args.out / "surface" / f"surface_{cfg.objective}.csv"
            write_surface(result, cfg, path)
            print(f"{cfg.objective} surface: {result.minima_count} interior local minima; wrote {path}")

        elif args.command == "manifold":
            params, projected, explained, rank = manifold_export(cfg)
            path = args.out / "manifold" / f"manifold_{cfg.objective}.csv"
            write_manifold(params, projected, explained, cfg, path)
            print(f"manifold rank {rank}, explained variance {[round(float(v), 4) for v in explained]}; wrote {path}")

        else:  # report
            summary = report(args.out, cfg)
            print(f"report written to {args.out / 'report'}")
            for key, value in summary.items():
                print(f"  {key}: {value}")

    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, np.linalg.LinAlgError, OSError) as exc:
        # malformed files, model-domain failures and disk errors; anything
        # else is a programming error and keeps its traceback
        print(f"batch failure: {exc}", file=sys.stderr)
        return EXIT_BATCH
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

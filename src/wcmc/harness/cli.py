"""Command-line entry point.

Subcommands:
  gen-data   write a synthetic probit data set as CSV
  run        run the configured experiment and append rows to the result CSV
  sweep      repeat the experiment along one axis (snr, t, k, zeta)
  report     print per-scheme summary statistics from a result CSV
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import NoReturn

from .config import ConfigError, load_config
from .data import export_csv, gen_probit_data
from .results import check_target, format_summary, load_rows, summarize, write_manifest, write_rows
from .runner import SWEEP_AXES, run_experiment, substream, sweep


def _add_common(parser: argparse.ArgumentParser, runs: bool = True) -> None:
    """Options of every config-driven command: the config, the output path
    (required: no config names one) and a seed override; ``runs`` adds
    --parallel."""
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", required=True, help="output path")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    if runs:
        parser.add_argument("--parallel", type=_count, default=1, help="trial worker processes")


def _count(text: str) -> int:
    """A process count of at least 1; anything else is a usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _numbers(text: str) -> list[float]:
    """Comma-separated numbers; a token that is not one is a usage error naming it."""
    values = []
    for token in filter(None, (t.strip() for t in text.split(","))):
        try:
            values.append(float(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{token!r} is not a number") from None
    if not values:
        raise argparse.ArgumentTypeError("must list at least one number")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wcmc", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic probit CSV")
    _add_common(p, runs=False)

    p = sub.add_parser("run", help="run the configured experiment")
    _add_common(p)

    p = sub.add_parser("sweep", help="run the experiment along one axis")
    _add_common(p)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--values", required=True, type=_numbers, help="comma-separated axis values")

    p = sub.add_parser("report", help="summarize a result CSV")
    p.add_argument("--out", required=True, help="result CSV to summarize")
    return parser


def _fail(message: str) -> NoReturn:
    """End the command with one error line and exit status 2, as a usage error does."""
    print(f"wcmc: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _command(args)
    except ConfigError as exc:
        _fail(str(exc))


def _command(args) -> int:
    if args.command == "report":
        try:
            rows = load_rows(args.out)
        except OSError as exc:
            _fail(f"cannot read results {args.out}: {exc.strerror or exc}")
        except ValueError as exc:  # not a result file, or a cell that is not a number
            _fail(f"cannot read results {args.out}: {exc}")
        print(format_summary(summarize(rows)))
        return 0

    config, out = load_config(args.config), args.out
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    if args.command == "gen-data":
        config.data.check_dim(config.dim)
        rng = substream(config.seed, 0, "data")
        dataset = gen_probit_data(config.data.n, config.dim, config.data.theta_star, rng)
        try:
            export_csv(dataset, out)
        except OSError as exc:  # a directory, or a missing one
            _fail(f"cannot write data {out}: {exc.strerror or exc}")
        print(f"wrote {dataset.size} rows x {dataset.dim} covariates to {out}")
        return 0

    check_target(out)  # a CSV or manifest that cannot take this run's rows stops it here
    extra = {}
    if args.command == "run":
        rows = run_experiment(config, parallel=args.parallel)
    else:
        rows = sweep(config, args.axis, args.values, parallel=args.parallel)
        extra["sweep"] = {"axis": args.axis, "values": args.values}

    write_rows(out, rows)
    write_manifest(out, config, extra={"rows_written": len(rows), **extra})
    print(f"appended {len(rows)} rows to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line experiment runner.

Subcommands map to experiment kinds; a flat key = value config file supplies
parameters and the flags --seed/--out/--tol override it.  Output is the
deterministic CSV table (optionally mirrored to JSON with --json).  The exit
code is 0 when every asserted row passes and 1 when one fails; a malformed
config, a --config that cannot be read and an output that cannot be written
print one 'config error:' line and exit 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError
from .experiments import (
    CSV_HEADER,
    KIND_BY_COMMAND,
    parse_config,
    rows_to_csv,
    rows_to_json,
    run_experiment,
)

_SCHEMA = f"""config grammar (one 'key = value' per line, '#' comments):
  kind       = bound_suite | d2c_heat | resolvent_convergence | tlp_table
               | stacking_audit | p0_audit        (set by the subcommand)
  sizes      = comma-separated increasing integers       (default 8,16,32,64)
  horizon    = finite nonnegative time horizon           (default 0.25)
  time_grid  = number of time samples                    (default 6)
  p          = finite transport exponent >= 1            (default 2)
  tolerance  = finite positive slack tolerance           (default 1e-6)
  seed       = 64-bit integer                            (default 0)
  output     = output path                               (default stdout)
  q          = integrability exponent > 2, inf allowed   (default 4)
  sampling   = equispaced | uniform                      (default equispaced)
  profile    = cos | sin  (initial heat profile)         (default cos)
  point_a    = path to a function/measure pair record    (tlp only)
  point_b    = path to a function/measure pair record    (tlp only)

function/measure pair record (JSON): {{"dim": d, "atoms": [[...]],
  "weights": [...], "values": [...]}}

CSV schema: header '{CSV_HEADER}', rows sorted by
(experiment, n, t, metric), floats with 12 significant digits, '\\n' line
endings, byte-identical for identical config and seed."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gfstack",
        description="Flow, transport, and convergence experiments at empirical-measure scale.",
        epilog=_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, kind in KIND_BY_COMMAND.items():
        p = sub.add_parser(command, help=f"run the {kind} experiment",
                           epilog=_SCHEMA,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", type=Path, default=None, help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", type=Path, default=None, help="override the output path")
        p.add_argument("--tol", type=float, default=None, help="override the slack tolerance")
        p.add_argument("--json", action="store_true", help="also write a JSON mirror next to the CSV")
    return parser


def _config_error(exc) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    text = ""
    if args.config is not None:
        try:
            text = args.config.read_text()
        except (OSError, UnicodeDecodeError) as exc:
            return _config_error(f"cannot read {args.config}: {getattr(exc, 'strerror', None) or exc}")
    try:
        cfg = parse_config(
            text,
            kind=KIND_BY_COMMAND[args.command],
            seed=args.seed,
            tolerance=args.tol,
            output=str(args.out) if args.out else None,
        )
        rows = run_experiment(cfg)
    except ConfigError as exc:
        return _config_error(exc)
    csv_text = rows_to_csv(rows)
    if cfg.output:
        try:
            Path(cfg.output).write_text(csv_text)
            if args.json:
                Path(cfg.output).with_suffix(".json").write_text(rows_to_json(rows))
        except OSError as exc:
            return _config_error(f"cannot write {exc.filename}: {exc.strerror or exc}")
    else:
        sys.stdout.write(csv_text)
        if args.json:
            sys.stdout.write(rows_to_json(rows))

    failing = [r for r in rows if not r.passed]
    if failing:
        first = failing[0]
        print(
            f"{len(failing)} failing rows; first: {first.experiment},{first.n},"
            f"{first.t:g},{first.metric}",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

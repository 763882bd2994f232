"""Run one runner config over a range of seeds and summarise its rows as JSON.

    python3 tools/sweep.py <config> --seeds 0-11

<config> is a file in the flat ``key = value`` grammar that ``gfstack
--config`` reads (``parse_config``), and it must set ``kind``.  ``--seeds``
takes a comma-separated list of seeds and inclusive ranges (``0-11``,
``0,3,5-7``); each seed replaces the config's own.  The config's ``output``
is ignored: the tool writes no table.  gfstack is imported from the ``src/``
next to this tool.

The tool prints one JSON object.  Its ``groups`` hold one entry per
(experiment, metric, n), sorted by (experiment, n, metric).  An entry gives
``count``, its rows over all seeds and times; the min, median and max of
lhs, rhs and slack; ``false``, the number of asserted rows that read
false; and ``sign_disagrees``, the number of asserted rows whose pass flag
disagrees with the sign of their slack (pass exactly when slack >= 0),
reported, not failed on.  An evidence row (rhs = inf) is not asserted.  A
non-finite number is written as the CSV writes it ("inf", "-inf", "nan"), so
the output is strict JSON.  ``false`` and ``sign_disagrees`` at the top sum
the groups.

Identical config and seeds give identical output.  The exit code is 0, or 2
for a config or seed list that cannot be read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gfstack.errors import ConfigError  # noqa: E402
from gfstack.experiments import parse_config, run_experiment  # noqa: E402


def parse_seeds(text: str) -> list:
    """'0-11' or '0,3,5-7' -> the seeds in the order given; a range is inclusive."""
    seeds = []
    for part in text.split(","):
        lo, sep, hi = part.strip().partition("-")
        if not lo.isdigit() or (sep and (not hi.isdigit() or int(hi) < int(lo))):
            raise ValueError(f"bad seed list {text!r}: expected e.g. 0-11 or 0,3,5-7")
        seeds += range(int(lo), int(hi if sep else lo) + 1)
    return seeds


def _number(x: float):
    return float(x) if math.isfinite(x) else f"{x:.12g}"


def _spread(values) -> dict:
    a = np.asarray(values, dtype=float)
    return {k: _number(f(a)) for k, f in (("min", np.min), ("median", np.median), ("max", np.max))}


def sweep(text: str, seeds) -> dict:
    """The summary object of the config text's runner over the seeds."""
    groups = {}
    kind = None
    for seed in seeds:
        cfg = parse_config(text, seed=seed)
        kind = cfg.kind
        for r in run_experiment(cfg):
            groups.setdefault((r.experiment, r.n, r.metric), []).append(r)
    out = []
    for (experiment, n, metric), rows in sorted(groups.items()):
        asserted = [r for r in rows if r.rhs != math.inf]
        entry = {"experiment": experiment, "metric": metric, "n": n, "count": len(rows),
                 "lhs": _spread([r.lhs for r in rows]), "rhs": _spread([r.rhs for r in rows]),
                 "slack": _spread([r.slack for r in rows]),
                 "false": sum(not r.passed for r in asserted),
                 "sign_disagrees": sum(r.passed != (r.slack >= 0) for r in asserted)}
        out.append(entry)
    return {"kind": kind, "seeds": list(seeds), "groups": out,
            "false": sum(g["false"] for g in out),
            "sign_disagrees": sum(g["sign_disagrees"] for g in out)}


def _error(exc) -> int:
    print(f"sweep error: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("config", type=Path, help="flat key = value runner config")
    parser.add_argument("--seeds", required=True, help="e.g. 0-11 or 0,3,5-7")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
        text = args.config.read_text()
    except (OSError, UnicodeDecodeError, ValueError) as exc:
        return _error(exc)
    try:
        summary = sweep(text, seeds)
    except ConfigError as exc:
        return _error(exc)
    print(json.dumps(summary, indent=1, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

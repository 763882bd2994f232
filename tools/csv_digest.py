"""One sha256 per runner config of a gfstack checkout, for its CSV and its JSON mirror.

    python3 tools/csv_digest.py <checkout>

Imports gfstack from ``<checkout>/src`` and prints, for each config of the
sweep below, two lines: ``<config> csv <sha256>`` over ``rows_to_csv`` and
``<config> json <sha256>`` over ``rows_to_json``.  Each mirror is parsed
back strictly, with no ``NaN`` or ``Infinity`` token allowed.  A runner that
raises, or a mirror that json cannot write or that is not strict JSON, prints
``error <exception type>`` in place of the digest and its traceback on
stderr.  Run it on two checkouts
and diff the outputs: an empty diff means every table of the sweep is
byte-identical.

The sweep:
- the heat-1d calls (d2c equispaced and uniform, resolvents, stacking
  audit, at sizes 16-128), seeds 0-11
- every kind at its defaults
- bound_suite at seeds 0-24
- p0_audit at seeds 0-11
- stacking_audit at sizes 4-32, seeds 0-11
- stacking_audit and tlp_table at p = 1 and p = 3, the TL^p paths off p = 2
- tlp_table with a point pair (point_a, point_b) at p = 1, 2 and 3: two
  fixed records on 2-D atoms, written to a temporary directory from a fixed
  seed; their rows are the only ones that read tlp_distance's plan and
  stagnation cost
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

HEAT_SIZES = (16, 32, 64, 128)
POINT_SEED = 2016


def _point_records(directory: Path):
    """Write the two point-pair records (7 and 9 atoms in R^2) and return their paths."""
    rng = np.random.default_rng(POINT_SEED)
    paths = []
    for name, n in (("point_a", 7), ("point_b", 9)):
        w = rng.random(n) + 0.2
        record = {"dim": 2, "atoms": rng.uniform(-1.0, 1.0, size=(n, 2)).tolist(),
                  "weights": (w / w.sum()).tolist(), "values": rng.normal(size=n).tolist()}
        path = directory / f"{name}.json"
        path.write_text(json.dumps(record))
        paths.append(str(path))
    return paths


def sweep():
    """(label, config fields) for every runner call of the sweep, in print order."""
    for seed in range(12):
        yield f"heat:d2c_equispaced:seed={seed}", dict(
            kind="d2c_heat", seed=seed, sizes=HEAT_SIZES, sampling="equispaced")
        yield f"heat:d2c_uniform:seed={seed}", dict(
            kind="d2c_heat", seed=seed, sizes=HEAT_SIZES, sampling="uniform")
        yield f"heat:resolvents:seed={seed}", dict(
            kind="resolvent_convergence", seed=seed, sizes=HEAT_SIZES)
        yield f"heat:stacking_audit:seed={seed}", dict(
            kind="stacking_audit", seed=seed, sizes=HEAT_SIZES)
    for kind in ("bound_suite", "d2c_heat", "resolvent_convergence", "tlp_table",
                 "stacking_audit", "p0_audit"):
        yield f"default:{kind}", dict(kind=kind)
    for seed in range(25):
        yield f"bound_suite:seed={seed}", dict(kind="bound_suite", seed=seed)
    for seed in range(12):
        yield f"p0_audit:seed={seed}", dict(kind="p0_audit", seed=seed)
    for seed in range(12):
        yield f"stacking_audit:sizes=4-32:seed={seed}", dict(
            kind="stacking_audit", seed=seed, sizes=(4, 8, 16, 32))
    for kind in ("stacking_audit", "tlp_table"):
        for p in (1.0, 3.0):
            yield f"{kind}:p={p:g}", dict(kind=kind, p=p)
    with tempfile.TemporaryDirectory(prefix="csv-digest-") as tmp:
        point_a, point_b = _point_records(Path(tmp))
        for p in (1.0, 2.0, 3.0):
            yield f"tlp_table:point_pair:p={p:g}", dict(
                kind="tlp_table", p=p, point_a=point_a, point_b=point_b)


def _reject_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def _digest(render, rows) -> str:
    try:
        text = render(rows)
    except (TypeError, ValueError) as exc:  # json rejects a value or a token: a result of the sweep
        traceback.print_exc()
        return f"error {type(exc).__name__}"
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/csv_digest.py <checkout>", file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve() / "src"
    if not (src / "gfstack" / "__init__.py").is_file():
        print(f"no gfstack sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import gfstack
    from gfstack.experiments import ExperimentConfig, rows_to_csv, rows_to_json, run_experiment

    if Path(gfstack.__file__).resolve().parent != src / "gfstack":
        print(f"imported gfstack from {gfstack.__file__}, not {src}", file=sys.stderr)
        return 2

    def strict_json(rows):
        text = rows_to_json(rows)
        json.loads(text, parse_constant=_reject_constant)
        return text

    for label, fields in sweep():
        try:
            rows = run_experiment(ExperimentConfig(**fields))
        except Exception as exc:  # the sweep goes on: a failing config is one line of its output
            traceback.print_exc()
            print(f"{label} run error {type(exc).__name__}", flush=True)
            continue
        print(f"{label} csv {_digest(rows_to_csv, rows)}")
        print(f"{label} json {_digest(strict_json, rows)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

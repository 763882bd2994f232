"""Record the reference outputs the benchmark checks every operation against.

    python3 bench/record.py [workload ...]

Run from the root of a checkout of the commit whose outputs become the
reference.  It runs every round of each workload's pool once and writes
``bench/reference/<workload>.json.gz``.
"""

from __future__ import annotations

import gzip
import json
import sys

import workloads as wl
from run import BENCH, import_gfstack


def record(gfstack, workload: str):
    outputs = {}
    for ops in wl.all_rounds(gfstack, workload):
        for op in ops:
            outputs[op.key] = op.call()
        print(f"{workload}: {len(outputs)} outputs", file=sys.stderr, flush=True)
    payload = {"workload": workload, "outputs": outputs}
    path = BENCH / "reference" / f"{workload}.json.gz"
    path.parent.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=0, sort_keys=True) + "\n"
    with open(path, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
        gz.write(text.encode())


def main(argv):
    gfstack = import_gfstack()
    for workload in argv or wl.WORKLOADS:
        record(gfstack, workload)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

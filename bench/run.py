"""Benchmark gfstack end to end on one workload, or trace it layer by layer.

    python3 bench/run.py --workload heat-1d --seed 0 --seconds 45 --trace 0

Run from the root of a gfstack checkout; the library is imported from its
``src/``.  ``--trace 0`` times a closed loop of operations with the library
untouched and reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the seed's first round and reports the
per-layer metrics (see ``bench/README.md``).  Every operation's output is
checked against the reference in ``bench/reference/``.  The last line of
standard output is the JSON result; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads as wl
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11  # fresh interpreters per untraced run, one after each round
IMPORTTIME_REPEATS = 3
MIN_CYCLES = 2  # repeats of the batch in an untraced run
MIN_TRACED_PASSES = 2
TAIL_BEYOND = 10  # samples a reported tail percentile must leave above it

_clock = time.perf_counter


def import_gfstack():
    """Import gfstack from this checkout's sources, never from elsewhere."""
    package = SRC / "gfstack"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no gfstack sources at {package}")
    sys.path.insert(0, str(SRC))
    import gfstack

    if Path(gfstack.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported gfstack from {gfstack.__file__}, not {package}")
    return gfstack


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def load_reference(workload: str) -> dict:
    path = BENCH / "reference" / f"{workload}.json.gz"
    with gzip.open(path, "rt") as fh:
        return json.load(fh)["outputs"]


# ---------------------------------------------------------------------------
# set-up and import time, each in a fresh interpreter


def time_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh interpreter importing gfstack and building the inputs."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    start = _clock()
    subprocess.run(cmd, check=True, env=child_env(), stdout=subprocess.DEVNULL)
    return _clock() - start


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(text: str):
    """(gfstack cumulative s, scipy s) from `python -X importtime` output.

    scipy's share is the cumulative time of every outermost scipy module in
    the import tree, wherever in the tree gfstack first reached it.
    """
    entries = []
    for line in text.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    gfstack_us = scipy_us = 0
    stack = []  # (level, inside scipy) of the ancestors; reversed order visits parents first
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cumulative
        if name == "gfstack":
            gfstack_us = cumulative
        stack.append((level, inside or is_scipy))
    return gfstack_us / 1e6, scipy_us / 1e6


def measure_import():
    cmd = [sys.executable, "-X", "importtime", "-c", "import gfstack"]
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(cmd, check=True, env=child_env(), capture_output=True, text=True)
        samples.append(parse_importtime(proc.stderr))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


# ---------------------------------------------------------------------------
# running operations


class Checker:
    """Checks each output against the reference and counts failures."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def run(self, op: wl.Op):
        """Run one operation; returns (seconds, output or None when it raised)."""
        self.attempted += 1
        start = _clock()
        try:
            out = op.call()
        except Exception:  # the loop must go on; the failure is counted and shown
            elapsed = _clock() - start
            self.failed += 1
            print(f"bench: {op.key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return elapsed, None
        return _clock() - start, out

    def check(self, op: wl.Op, out):
        """Count an output that disagrees with the reference (None has failed already)."""
        if out is not None and not wl.output_matches(out, self.reference[op.key]):
            self.failed += 1
            print(f"bench: {op.key} disagrees with the reference", file=sys.stderr)


def run_round(checker: Checker, ops):
    """Run a round back to back; check the outputs after the round's clock stops."""
    start = _clock()
    results = [checker.run(op) for op in ops]
    elapsed = _clock() - start
    for op, (_, out) in zip(ops, results):
        checker.check(op, out)
    return elapsed, results


def tail(times):
    """(percentile, value) of the highest percentile leaving TAIL_BEYOND samples above it."""
    n = len(times)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def end_to_end(gfstack, workload: str, seed: int, seconds: float):
    """Repeat the seed's batch back to back; summarize each operation by its median.

    On a 2-vCPU virtual machine shared with other guests, the speed of the
    machine swings by up to 1.8x from one second to the next, so an
    operation's time is the median of its repeats and throughput is the
    batch's size over the sum of those medians.  For the same reason the
    set-up samples are spread through the run, one after each of the first
    rounds, and ``setup_s`` is their median.  Set-up time counts towards
    ``seconds``.  The latency reported is that of a round, not of an
    operation: heat-1d's operations take either about 0.3 s or about 1 s,
    two of each per round, so their median falls in the gap between the two
    and reads whichever edge is nearer.
    """
    batch = wl.build_batch(gfstack, workload, seed)
    ops = [op for rnd in batch for op in rnd]
    checker = Checker(load_reference(workload))
    samples = {op.key: [] for op in ops}
    round_times, setups = [], []
    rows_false, cycles = 0, 0
    start = _clock()
    while cycles < MIN_CYCLES or _clock() - start < seconds:
        for rnd in batch:
            elapsed, results = run_round(checker, rnd)
            round_times.append(elapsed)
            for op, (t, out) in zip(rnd, results):
                samples[op.key].append(t)
                if cycles == 0 and out is not None:
                    rows_false += wl.rows_false(out)
            if len(setups) < SETUP_REPEATS:
                setups.append(time_setup(workload, seed))
        cycles += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup(workload, seed))
    elapsed = _clock() - start
    medians = [statistics.median(samples[op.key]) for op in ops]
    all_times = [t for op in ops for t in samples[op.key]]

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload} seed={seed}: batch of {len(ops)} ops run {cycles} times and "
          f"{len(setups)} set-ups, {elapsed:.3f} s")
    t = tail(all_times)
    if t is None:
        print(f"op_tail_ms: not reported, {len(all_times)} samples < {2 * TAIL_BEYOND}")
    else:
        print(f"op_tail_ms: p{t[0]:.1f} over {len(all_times)} samples = {1e3 * t[1]:.3f} ms")
    print(f"op_p50_ms: {1e3 * statistics.median(all_times):.3f} ms over {len(all_times)} samples")
    print(f"rows_false: {rows_false} asserted rows of the batch read false (as in the reference)")
    print(f"fail_frac: {checker.failed}/{checker.attempted}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / sum(medians), "1/s"),
        "round_p50_ms": (1e3 * statistics.median(round_times), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return checker, metrics, True


# ---------------------------------------------------------------------------
# traced run

# metric -> the tracer sum it reports, in seconds per traced pass
SECONDS_METRICS = {
    "experiments.runner_self_s": "experiments.runner.self_s",
    "experiments.build_heat_instances_s": "experiments.build_heat_instances.total_s",
    "experiments.rows_to_csv_s": "experiments.rows_to_csv.total_s",
    "convex.prox.self_s": "convex.prox.self_s",
    "semigroup.crandall_liggett.self_s": "semigroup.crandall_liggett.self_s",
    "flow.gradient_flow.self_s": "flow.gradient_flow.self_s",
    "flow.checks.self_s": "flow.checks.self_s",
    "energies.graph_prox.self_s": "energies.graph_prox.self_s",
    "energies.to_functional.self_s": "energies.to_functional.self_s",
    "energies.p0_checks.self_s": "energies.p0_checks.self_s",
    "transport.solve_transport.self_s": "transport.solve_transport.self_s",
    "transport.wrapper_self_s": "transport.wrapper.self_s",
    "stacking.probes.self_s": "stacking.probes.self_s",
}
COUNT_METRICS = [
    "convex.prox.calls",
    "convex.prox.generic_calls",
    "convex.evaluate.calls",
    "convex.moreau_envelope.calls",
    "semigroup.crandall_liggett.calls",
    "semigroup.resolvent_applications",
    "flow.gradient_flow.calls",
    "energies.graph_prox.calls",
    "transport.solve_transport.calls",
    "transport.cells",
    "transport.plan_support",
]


def per_layer(gfstack, workload: str, seed: int, seconds: float):
    import_s, import_scipy_s = measure_import()
    start = _clock()
    batch = wl.build_batch(gfstack, workload, seed)
    checker = Checker(load_reference(workload))
    # warm-up over the batch: the rows it asserts, and the untraced outputs
    batch_out = [out for rnd in batch for _, out in run_round(checker, rnd)[1]]
    first = batch[0]
    plain_out = batch_out[:len(first)]

    tracer = Tracer()
    untraced_s, traced_s, passes = [], [], []
    identical, deterministic = True, True
    while len(passes) < MIN_TRACED_PASSES or _clock() - start < seconds:
        elapsed, results = run_round(checker, first)
        untraced_s.append(elapsed)
        identical &= [out for _, out in results] == plain_out
        tracer.install()
        try:
            elapsed, results = run_round(checker, first)
        finally:
            tracer.uninstall()
        traced_s.append(elapsed)
        identical &= [out for _, out in results] == plain_out
        sums, maxes = tracer.collect()
        counts = {k: v for k, v in sums.items() if not k.endswith("_s")}
        if passes and counts != passes[0][0]:
            deterministic = False
        passes.append((counts, sums, maxes))

    if not identical:
        print("bench: traced outputs differ from untraced outputs", file=sys.stderr)
    if not deterministic:
        print("bench: counts differ between traced passes", file=sys.stderr)

    k = len(passes)
    counts = passes[0][0]

    n_rows = sum(wl.rows(out) for out in batch_out if out is not None)
    n_false = sum(wl.rows_false(out) for out in batch_out if out is not None)
    cl_calls = counts.get("semigroup.crandall_liggett.calls", 0)
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_s": (import_scipy_s, "s"),
        "experiments.rows": (n_rows, "count"),
        "experiments.rows_false": (n_false, "count"),
        "semigroup.certified_frac": (
            counts.get("semigroup.certified", 0) / cl_calls if cl_calls else 0.0, "frac"),
        # a float: the a-priori n of closed-form iterates can exceed 2**63
        "semigroup.resolvent_steps": (float(counts.get("semigroup.resolvent_steps", 0)), "count"),
        "transport.max_marginal_err": (
            max(p[2].get("transport.max_marginal_err", 0.0) for p in passes), "mass"),
        "trace.overhead_frac": (
            statistics.median(traced_s) / statistics.median(untraced_s) - 1.0, "frac"),
    }
    for name, key in SECONDS_METRICS.items():
        metrics[name] = (sum(p[1].get(key, 0.0) for p in passes) / k, "s")
    for name in COUNT_METRICS:
        metrics[name] = (int(counts.get(name, 0)), "count")

    print(f"{workload} seed={seed}: {k} traced and {k} untraced passes over the first "
          f"round ({len(first)} ops); per-layer figures are per pass, "
          f"experiments.rows and .rows_false are over the batch ({len(batch_out)} ops)")
    print(f"traced outputs identical to untraced: {identical}; counts repeat: {deterministic}")
    return checker, metrics, identical and deterministic


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import gfstack, build the inputs and exit (times set-up)")
    args = parser.parse_args(argv)
    os.environ.pop("GFSTACK_THREADS", None)  # the library's default, as a user runs it

    gfstack = import_gfstack()
    if args.setup_only:
        wl.build_batch(gfstack, args.workload, args.seed)
        return 0

    measure = per_layer if args.trace else end_to_end
    checker, metrics, consistent = measure(gfstack, args.workload, args.seed, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value!r} {unit}")
    result = {
        "correct": checker.failed == 0 and consistent,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""The benchmark's workloads and the checks on their outputs.

An operation is one public-API call a user would wait for: a runner call
rendered to its CSV table (what ``gfstack <command>`` prints).  A *round* is
the set of operations made from one runner seed of the pool, and a run's
*batch* is one round per stratum of the pool, drawn and ordered by the
benchmark seed.  The same seed gives the same operations in the same order.
Pool entries have recorded reference outputs (``bench/record.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List

# Runner seeds with recorded reference outputs, in strata; a batch takes one
# seed from each stratum.  One bound_suite seed can cost 2.3x another (seed 17
# takes 3.0 s where seed 1 takes 1.3 s), so its strata group seeds of similar
# cost, as timed on the commit that added the benchmark, and batches of
# different seeds cost the same within a few per cent.  heat-1d rounds cost
# 2.7-3.1 s whatever the seed, so its strata are plain ranges.
# bound_suite raises SolverDiagnosticError at seed 12 (the generic prox stops
# at residual 1.0e-8); seeds 0-47 were swept and 12 is the only one.  A
# benchmark operation must not fail, so the pool skips it; bench/README.md
# records it.
STRATA = {
    "bounds-zoo": ((1, 3, 18, 24), (0, 4, 8, 15), (2, 9, 11, 21), (7, 13, 16, 19),
                   (5, 6, 10, 20), (14, 17, 22, 23)),
    "heat-1d": ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)),
}
WORKLOADS = tuple(STRATA)
HEAT_SIZES = (16, 32, 64, 128)

# Runner outputs agree with the reference when row keys and pass flags are
# identical and every lhs/rhs satisfies |a - b| <= ATOL + RTOL * max(|a|, |b|).
# RTOL leaves room for a solver that converges to the same answer by another
# path; a wrong answer moves a row by far more or flips its pass flag.
RUNNER_RTOL = 1e-6
RUNNER_ATOL = 1e-9


@dataclass(frozen=True)
class Op:
    key: str  # names the input; the reference is stored under it
    call: Callable[[], str]  # returns the output, a CSV table


def _runner_op(gfstack, kind: str, seed: int, **fields) -> Op:
    cfg = gfstack.ExperimentConfig(kind=kind, seed=seed, **fields)
    tag = ":".join([kind] + [f"{k}={v}" for k, v in sorted(fields.items()) if k != "sizes"])
    key = f"{tag}:seed={seed}"

    def call():
        return gfstack.rows_to_csv(gfstack.run_experiment(cfg))

    return Op(key, call)


def _round(gfstack, workload: str, r: int) -> List[Op]:
    if workload == "bounds-zoo":
        return [_runner_op(gfstack, "bound_suite", r)]
    if workload == "heat-1d":
        return [
            _runner_op(gfstack, "d2c_heat", r, sizes=HEAT_SIZES, sampling="equispaced"),
            _runner_op(gfstack, "d2c_heat", r, sizes=HEAT_SIZES, sampling="uniform"),
            _runner_op(gfstack, "resolvent_convergence", r, sizes=HEAT_SIZES),
            _runner_op(gfstack, "stacking_audit", r, sizes=HEAT_SIZES),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build_batch(gfstack, workload: str, seed: int) -> List[List[Op]]:
    """The run's rounds: one runner seed per stratum, in an order, all drawn from the seed."""
    rng = random.Random(seed)
    picks = [rng.choice(stratum) for stratum in STRATA[workload]]
    rng.shuffle(picks)
    return [_round(gfstack, workload, r) for r in picks]


def all_rounds(gfstack, workload: str) -> List[List[Op]]:
    """Every round of the pool (for recording references)."""
    return [_round(gfstack, workload, r) for stratum in STRATA[workload] for r in stratum]


# ---------------------------------------------------------------------------
# output checks


def _parse_csv(text: str):
    lines = text.split("\n")
    rows = []
    for line in lines[1:]:
        if not line:
            continue
        experiment, n, t, metric, lhs, rhs, _slack, passed = line.split(",")
        rows.append(((experiment, n, t, metric), float(lhs), float(rhs), passed))
    return lines[0], rows


def _close(a: float, b: float) -> bool:
    if a == b:  # also equal infinities
        return True
    return abs(a - b) <= RUNNER_ATOL + RUNNER_RTOL * max(abs(a), abs(b))


def output_matches(text: str, ref: str) -> bool:
    """True when a runner table agrees with its recorded reference."""
    head, rows = _parse_csv(text)
    ref_head, ref_rows = _parse_csv(ref)
    if head != ref_head or len(rows) != len(ref_rows):
        return False
    for (key, lhs, rhs, passed), (rkey, rlhs, rrhs, rpassed) in zip(rows, ref_rows):
        if key != rkey or passed != rpassed:
            return False
        if not (_close(lhs, rlhs) and _close(rhs, rrhs)):
            return False
    return True


def rows_false(output: str) -> int:
    """Asserted rows of a runner table that read false."""
    return sum(1 for line in output.split("\n") if line.endswith(",false"))


def rows(output: str) -> int:
    return max(output.count("\n") - 1, 0)

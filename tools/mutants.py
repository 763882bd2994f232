"""Re-run the recorded mutation checks on a gfstack checkout.

    python3 tools/mutants.py [--checkout DIR] [NAME ...]

Each entry of MUTANTS is a file of the checkout, an exact old string that
must occur there once, its replacement, and the pytest ids that must fail
with it applied.  The tool copies the checkout's src/, tests/, demos/ and
pyproject.toml to a temporary directory, runs the listed tests of the chosen
entries (all by default) once on that clean copy, where every one must pass,
and then, for each entry, applies the mutant to a fresh copy and runs only
its tests there.  A mutant is killed when every one of its tests fails.
Hypothesis runs derandomized (tests/conftest.py) and with a fixed seed, so a
result repeats.

It prints one line per entry and exits 1 when a mutant survives or times
out, its old string no longer occurs exactly once, or one of its tests is
missing or fails on the clean copy.  It is tooling, not a test: the tier-1
suite does not run it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

COPIED = ("src", "tests", "demos", "pyproject.toml")
TIMEOUT_S = 900

# A pytest plugin that keeps only the ids listed in MUTANTS_IDS, so an id that
# no longer exists is reported missing and the others still run, and writes
# {nodeid: "failed" | "passed" | "skipped"} to the file named by MUTANTS_REPORT;
# a test fails if any of its phases fails.
_PLUGIN = '''
import json, os

_outcomes = {}

def pytest_collection_modifyitems(config, items):
    keep = set(json.loads(os.environ["MUTANTS_IDS"]))
    items[:] = [item for item in items if item.nodeid in keep]

def pytest_runtest_logreport(report):
    if report.failed:
        _outcomes[report.nodeid] = "failed"
    elif report.when == "call" or report.skipped:
        _outcomes.setdefault(report.nodeid, report.outcome)

def pytest_sessionfinish(session):
    with open(os.environ["MUTANTS_REPORT"], "w") as fh:
        json.dump(_outcomes, fh)
'''


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


ENERGIES, CONVEX = "src/gfstack/energies.py", "src/gfstack/convex.py"
FLOW, SEMIGROUP = "src/gfstack/flow.py", "src/gfstack/semigroup.py"
T_FLOW, T_SEMIGROUP = "tests/test_flow.py", "tests/test_semigroup.py"
TRANSPORT, STACKING = "src/gfstack/transport.py", "src/gfstack/stacking.py"
T_ENERGIES, T_CONVEX = "tests/test_energies.py", "tests/test_convex.py"
T_TRANSPORT, T_STACKING = "tests/test_transport.py", "tests/test_stacking.py"
EXPERIMENTS, T_EXPERIMENTS = "src/gfstack/experiments.py", "tests/test_experiments.py"
T_ACCEPTANCE = "tests/test_acceptance.py"

MUTANTS = [
    # the path-size rule, as_point, the counterexample's value and the sizes check
    Mutant("dct-size-rule-flipped", ENERGIES,
           "if n >= DCT_MIN_NODES else None", "if n < DCT_MIN_NODES else None",
           (f"{T_ENERGIES}::TestClosedFormPathFactors::test_short_path_makes_one_eigh_call[2]",
            f"{T_ENERGIES}::TestClosedFormPathFactors::test_fine_grid_makes_no_eigh_call[64]")),
    Mutant("as-point-no-size-check", CONVEX,
           '    if arr.size != dim:\n'
           '        raise ValueError(f"expected a point of dimension {dim}, got shape {arr.shape}")\n',
           "",
           (f"{T_CONVEX}::TestSumForms::test_bitwise_the_np_sum_forms",)),
    Mutant("as-point-fast-path-any-dtype", CONVEX,
           "x.ndim == 1 and x.dtype == np.float64", "x.ndim == 1",
           (f"{T_CONVEX}::TestSumForms::test_bitwise_the_np_sum_forms",)),
    Mutant("counterexample-coefficient", ENERGIES,
           "(lam + 1.0) * sq(u0 + u1, 2.0)", "(lam + 1.5) * sq(u0 + u1, 2.0)",
           (f"{T_ENERGIES}::TestCounterexample::test_value_bitwise_the_numpy_scalar_formula[1.0]",
            f"{T_ENERGIES}::TestCounterexample::test_slack_at_four")),
    Mutant("empty-sizes-accepted", EXPERIMENTS,
           "if not self.sizes or list(self.sizes)", "if list(self.sizes)",
           (f"{T_EXPERIMENTS}::TestCli::test_nonfinite_or_out_of_range_number_is_config_error"
            "[d2c-sizes =]",)),
    # array evaluation of the lambda-convexity samples, one flow pair for all L^r rows
    Mutant("counterexample-quarter-lam", ENERGIES,
           "+ 0.5 * lam * (sq(u0", "+ 0.25 * lam * (sq(u0",
           (f"{T_ENERGIES}::TestCounterexample::test_value_bitwise_the_numpy_scalar_formula[4.0]",
            f"{T_ENERGIES}::TestCounterexample::test_slack_at_four")),
    Mutant("counterexample-squares-multiplied", ENERGIES,
           "sq = np.float_power", "sq = np.power",
           (f"{T_ENERGIES}::TestCounterexample::test_value_bitwise_the_numpy_scalar_formula[4.0]",)),
    Mutant("value-rows-ndarray-squares", ENERGIES,
           "value_rows=lambda U: val(U[:, 0], U[:, 1]),",
           "value_rows=lambda U: (lam + 1.0) * (U[:, 0] + U[:, 1]) ** 2"
           " + 0.5 * lam * (U[:, 0] ** 2 + U[:, 1] ** 2),",
           (f"{T_ENERGIES}::TestCounterexample::test_value_bitwise_the_numpy_scalar_formula[0.0]",
            f"{T_ENERGIES}::TestCounterexample::test_value_bitwise_the_numpy_scalar_formula[4.0]",
            f"{T_ENERGIES}::TestCounterexample::test_value_rows_bitwise_the_per_row_value")),
    Mutant("value-rows-one-column", ENERGIES,
           "val(U[:, 0], U[:, 1])", "val(U[:, 0], U[:, 0])",
           (f"{T_ENERGIES}::TestCounterexample::test_value_rows_bitwise_the_per_row_value",
            f"{T_CONVEX}::TestValueRows::test_array_path_matches_per_row_path_and_oracle"
            "[0-True-4.0]")),
    Mutant("value-rows-no-shape-check", CONVEX,
           "            if v.shape != (len(points),):\n"
           "                raise ConstructionError(\n"
           '                    f"value_rows returned shape {v.shape} for {len(points)} points")\n',
           "",
           (f"{T_CONVEX}::TestValueRows::test_bad_value_rows_raise[short]",
            f"{T_CONVEX}::TestValueRows::test_bad_value_rows_raise[column]")),
    Mutant("value-rows-never-used", CONVEX,
           "if phi.value_rows is None:", "if True:",
           (f"{T_EXPERIMENTS}::TestExperimentBehaviour::test_bound_suite_samples_and_flows_once",)),
    Mutant("lr-lhs-ux-for-uy", ENERGIES,
           "lhs = weighted_lr_norm(ux - uy,", "lhs = weighted_lr_norm(ux - ux,",
           (f"{T_ENERGIES}::TestLrContraction::test_lhs_is_the_distance_of_the_two_flows",)),
    Mutant("lr-negative-time-accepted", ENERGIES,
           "if not (np.isfinite(t) and t >= 0.0):", "if not np.isfinite(t):",
           (f"{T_ENERGIES}::TestLrContraction::test_bad_time_rejected[-3.0]",
            f"{T_ENERGIES}::TestLrContraction::test_bad_time_rejected[-1e-300]")),
    Mutant("lr-exponent-below-one-accepted", ENERGIES,
           "if not 1.0 <= r <= np.inf:", "if not r <= np.inf:",
           (f"{T_ENERGIES}::TestLrContraction::test_bad_exponent_rejected[0.0]",
            f"{T_ENERGIES}::TestLrContraction::test_bad_exponent_rejected[0.5]")),
    # one flow per (functional, x0) in bound_suite, read by every check; the lean gradient prox
    Mutant("decay-row-previous-energy", FLOW,
           "lhs = float(flow.energies[k]) - fx", "lhs = float(flow.energies[k - 1]) - fx",
           (f"{T_FLOW}::TestChecksReadTheFlow::test_reports_equal_one_off_recomputation[quadratic]",
            f"{T_FLOW}::TestChecksReadTheFlow::test_reports_equal_one_off_recomputation[abs]")),
    Mutant("contraction-one-flow-for-both-points", SEMIGROUP,
           "fx.trajectory.states[k] - fy.trajectory.states[k]",
           "fx.trajectory.states[k] - fx.trajectory.states[k]",
           (f"{T_FLOW}::TestChecksReadTheFlow::test_reports_equal_one_off_recomputation[graph16]",
            f"{T_SEMIGROUP}::TestSemigroupStructure::test_contraction_quadratic_tight")),
    Mutant("contraction-rows-flow-again", EXPERIMENTS,
           "semigroup_contraction_check(R, flows[0], flows[1])",
           "semigroup_contraction_check(R, *(gradient_flow(phi, f.x0, times, tol) for f in flows))",
           (f"{T_EXPERIMENTS}::TestExperimentBehaviour::test_bound_suite_flows_each_sample_once",)),
    Mutant("prox-curvature-ws-times-s", CONVEX,
           "float(add(ws * r))", "float(add(ws * s))",
           (f"{T_CONVEX}::TestGradientProx::test_nested_graph_envelope_points_are_certified",
            f"{T_CONVEX}::TestGradientProx::test_nested_prox_bitwise_the_reference_loop",
            f"{T_EXPERIMENTS}::TestDeterminism::test_bound_suite_seed_12_completes")),
    # the 2024 adaptive step rule of the gradient prox and its finite theta_0
    Mutant("prox-growth-sqrt-one-plus-theta", CONVEX,
           "math.sqrt(2.0 / 3.0 + theta) * step", "math.sqrt(1.0 + theta) * step",
           (f"{T_CONVEX}::TestGradientProx::test_nested_prox_bitwise_the_reference_loop",)),
    Mutant("prox-bracket-guard-dropped", CONVEX,
           "step / math.sqrt(bracket) if bracket > 0.0 else math.inf", "step / math.sqrt(bracket)",
           (f"{T_CONVEX}::TestGradientProx::test_nested_prox_bitwise_the_reference_loop",
            f"{T_CONVEX}::TestGradientProx::test_overstated_modulus_takes_only_finite_steps[ratios1]")),
    Mutant("prox-cap-doubled", CONVEX,
           "cap = step / math.sqrt(bracket)", "cap = 2.0 * step / math.sqrt(bracket)",
           (f"{T_CONVEX}::TestGradientProx::test_nested_prox_bitwise_the_reference_loop",)),
    Mutant("prox-theta0-infinite", CONVEX,
           "step, theta = 1.0 / mu, 1.0 / 3.0", "step, theta = 1.0 / mu, math.inf",
           (f"{T_CONVEX}::TestGradientProx::test_overstated_modulus_takes_only_finite_steps[ratios0]",
            f"{T_CONVEX}::TestGradientProx::test_overstated_modulus_takes_only_finite_steps[ratios1]",
            f"{T_CONVEX}::TestGradientProx::test_overstated_modulus_takes_only_finite_steps[ratios2]",
            f"{T_CONVEX}::TestGradientProx::test_overstated_modulus_takes_only_finite_steps[ratios3]")),
    Mutant("cl-non-finite-t-accepted", SEMIGROUP,
           "if not 0.0 < t < np.inf:", "if t < 0:",
           (f"{T_SEMIGROUP}::TestCrandallLiggett::test_non_finite_time_is_interval_error[nan]",
            f"{T_SEMIGROUP}::TestCrandallLiggett::test_non_finite_time_is_interval_error[inf]",
            f"{T_FLOW}::TestNonFiniteTime::test_gradient_flow[inf]")),
    Mutant("cl-non-finite-tol-accepted", SEMIGROUP,
           "if not 0.0 < tol < np.inf:", "if tol <= 0:",
           (f"{T_SEMIGROUP}::TestCrandallLiggett::test_tol_not_finite_positive_is_precondition_error"
            "[nan]",
            f"{T_SEMIGROUP}::TestCrandallLiggett::test_tol_not_finite_positive_is_precondition_error"
            "[inf]",
            f"{T_FLOW}::TestNonFiniteTime::test_gradient_flow_tol[nan]")),
    Mutant("flow-checks-accept-non-finite-time", FLOW,
           "if not np.all(np.isfinite(times) & (times >= 0.0)):", "if False:",
           (f"{T_FLOW}::TestNonFiniteTime::test_energy_bound_check[nan]",
            f"{T_FLOW}::TestNonFiniteTime::test_decay_rate_check[inf]")),
    # transport (exact-marginal simplex, staircase start, plan checks)
    Mutant("ratio-test-eps-first", TRANSPORT,
           "if s < 0 and tree.flows[(i, j)] < theta:",
           "if s < 0 and tree.flows[(i, j)][::-1] < theta[::-1]:",
           (f"{T_TRANSPORT}::TestDegenerateInstances::test_tied_marginals_match_linprog",
            f"{T_TRANSPORT}::TestWasserstein::test_plan_invariants")),
    Mutant("staircase-sources-before-sinks", TRANSPORT,
           "order = np.lexsort((eps, pos))", "order = np.lexsort((-eps, pos))",
           (f"{T_TRANSPORT}::TestStaircaseStart::test_staircase_is_a_nondegenerate_basis",)),
    Mutant("check-without-cost-test", TRANSPORT,
           "        self.check_marginals(tol)\n        self.check_cost(tol)\n",
           "        self.check_marginals(tol)\n",
           (f"{T_TRANSPORT}::TestPlanCheck::test_stored_cost_off_by_1e6_raises",)),
    Mutant("check-without-row-test", TRANSPORT,
           "if row > tol or col > tol:", "if col > tol:",
           (f"{T_TRANSPORT}::TestPlanCheck::test_row_marginal_off_by_1e8_raises",)),
    Mutant("stagnation-over-full-cost", TRANSPORT,
           "np.multiply(plan.pi, spatial, out=spatial)",
           "np.multiply(plan.pi, plan.cost_matrix, out=spatial)",
           (f"{T_TRANSPORT}::TestPlanCheck::test_cell_sums_match_dense_sums",
            f"{T_TRANSPORT}::TestTlpDistance::test_zero_dimensional_atoms")),
    # TL^2 rows certified by the product form of their reduced costs; the scaled tolerance
    Mutant("tl2-margin-dropped", TRANSPORT,
           "floor = self.kappa_u * (S + _RC_TOL) - _RC_TOL", "floor = -_RC_TOL",
           (f"{T_TRANSPORT}::TestTl2Certificate::test_certified_rows_have_no_reduced_cost_below_tol",)),
    Mutant("tl2-fallback-never-taken", TRANSPORT,
           "if not self._certified(f, g, c, fsq + self.xsq, gsq + self.ysq):", "if False:",
           (f"{T_TRANSPORT}::TestTlpDistances::test_bitwise_equal_to_per_row_distances",
            f"{T_TRANSPORT}::TestTl2Certificate::test_certified_rows_have_no_reduced_cost_below_tol")),
    Mutant("tl2-cross-term-sign", TRANSPORT,
           "b - v, -2.0 * g, -2.0 * self.nu.atoms.T]", "b - v, 2.0 * g, -2.0 * self.nu.atoms.T]",
           (f"{T_TRANSPORT}::TestTl2Certificate::test_heat_rows_are_certified",
            f"{T_TRANSPORT}::TestTlpDistances::test_bitwise_equal_to_per_row_distances")),
    Mutant("tl2-dense-check-removed", TRANSPORT,
           "        _check_cost(self.r @ fsq + self.s @ gsq - 2.0 * (f @ Pg) + self.dense_spatial, cost)\n",
           "",
           (f"{T_TRANSPORT}::TestTlpDistances::test_corrupted_row_cost_trips_the_cost_check",)),
    Mutant("rc-tol-absolute", TRANSPORT,
           "return float(tol) if _RC_TOL < tol < np.inf else _RC_TOL", "return _RC_TOL",
           (f"{T_TRANSPORT}::test_reduced_costs_tested_at_the_rounding_of_the_costs[100.0]",
            f"{T_TRANSPORT}::test_reduced_costs_tested_at_the_rounding_of_the_costs[1000.0]",
            f"{T_TRANSPORT}::test_rc_tol_floor_and_scale")),
    # the Monge certificate of rows with similarly ordered values on similarly ordered 1-D atoms
    Mutant("monge-never-taken", TRANSPORT,
           "ordered = mu.dim == 1 and _similarly_ordered(", "ordered = False and _similarly_ordered(",
           (f"{T_TRANSPORT}::TestMongeCertificate::test_certified_rows_match_linprog",
            f"{T_TRANSPORT}::TestMongeCertificate::test_heat_round_product_tests")),
    Mutant("monge-value-order-dropped", TRANSPORT,
           "return lambda f, g: ordered and _similarly_ordered(f, g)",
           "return lambda f, g: ordered and _similarly_ordered(f, f)",
           (f"{T_TRANSPORT}::TestMongeCertificate::test_other_rows_take_the_earlier_paths[opposite]",)),
    Mutant("monge-opposite-orders-accepted", TRANSPORT,
           "((a[1:] <= a[:-1]).all() and (b[1:] <= b[:-1]).all())",
           "((a[1:] <= a[:-1]).all() or (b[1:] <= b[:-1]).all())",
           (f"{T_TRANSPORT}::TestMongeCertificate::test_other_rows_take_the_earlier_paths[opposite]",)),
    Mutant("monge-atom-order-dropped", TRANSPORT,
           "ordered = mu.dim == 1 and _similarly_ordered(mu.atoms[:, 0], nu.atoms[:, 0])",
           "ordered = mu.dim == 1",
           (f"{T_TRANSPORT}::TestMongeCertificate::test_other_rows_take_the_earlier_paths[unsorted]",)),
    Mutant("monge-2d-allowed", TRANSPORT,
           "ordered = mu.dim == 1 and", "ordered = mu.dim >= 1 and",
           (f"{T_TRANSPORT}::TestMongeCertificate::test_other_rows_take_the_earlier_paths[2-D]",)),
    Mutant("monge-finite-guard-dropped", TRANSPORT,
           "return bool(np.isfinite(4.0 * (np.max(a) + np.max(b))))", "return True",
           (f"{T_TRANSPORT}::TestMongeCertificate::test_other_rows_take_the_earlier_paths[overflow]",)),
    Mutant("monge-plans-finite-guard-dropped", TRANSPORT,
           "if monge and np.isfinite(cost):", "if monge:",
           (f"{T_TRANSPORT}::TestMongeCertificate::test_other_rows_take_the_earlier_paths[overflow]",)),
    # the W_2 recoveries read off the certified staircase; the relative cost tolerance.  The
    # margin and the fallback are the TL^2 certificate's own, here reached through a recovery
    Mutant("recovery-margin-dropped", TRANSPORT,
           "floor = self.kappa_u * (S + _RC_TOL) - _RC_TOL", "floor = -_RC_TOL",
           (f"{T_TRANSPORT}::TestSpatialRecovery::test_certified_recoveries_have_no_reduced_cost"
            "_below_tol",)),
    Mutant("recovery-fallback-never-taken", TRANSPORT,
           "if not self._certified(f, g, c, fsq + self.xsq, gsq + self.ysq):", "if False:",
           (f"{T_TRANSPORT}::TestSpatialRecovery::test_bitwise_equal_to_the_plan_path",
            f"{T_TRANSPORT}::TestSpatialRecovery::test_atoms_at_scale_20_fall_back")),
    Mutant("recovery-stagnation-over-cells", TRANSPORT,
           "return max(cost, 0.0) ** 0.5, point, float(P.sum())",
           "return max(cost, 0.0) ** 0.5, point, float(np.sum(P[self.i, self.j]))",
           (f"{T_TRANSPORT}::TestSpatialRecovery::test_bitwise_at_heat_sizes",)),
    Mutant("recovery-rows-from-weights", TRANSPORT,
           "point = _conditional_averages(P, P.sum(axis=1), target_values)",
           "point = _conditional_averages(P, self.mu.weights, target_values)",
           (f"{T_TRANSPORT}::TestSpatialRecovery::test_bitwise_equal_to_the_plan_path",
            f"{T_TRANSPORT}::TestSpatialRecovery::test_bitwise_at_heat_sizes")),
    # one O(m + n) staircase per measure pair, shared by the distances and recoveries on it
    Mutant("recovery-writes-shared-cells", TRANSPORT,
           "P[self.i, self.j] *= self.spatial",
           "P[self.i, self.j] = np.multiply(self.flow, self.spatial, out=self.flow)",
           (f"{T_TRANSPORT}::TestSharedStaircase::test_shared_is_bitwise_fresh",)),
    Mutant("cell-marginal-check-dropped", TRANSPORT,
           "    _check_marginals(*_marginal_errors(r, s, mu, nu))\n", "",
           (f"{T_TRANSPORT}::TestSharedStaircase::test_perturbed_flow_trips_the_marginal_check",)),
    Mutant("stacking-pair-rebuilt-per-call", STACKING,
           "pair = self._pairs[key] = _TLpPair(mu, nu, self.p)",
           "pair = _TLpPair(mu, nu, self.p)",
           (f"{T_TRANSPORT}::TestSharedStaircase::test_one_build_per_measure_pair_per_runner_call",)),
    Mutant("heat-pair-rebuilt-per-call", EXPERIMENTS,
           "dists = inst.pair.distances(",
           "dists = _TLpPair(inst.measure, fine.measure).distances(",
           (f"{T_TRANSPORT}::TestSharedStaircase::test_one_build_per_measure_pair_per_runner_call",)),
    Mutant("stacking-pair-key-without-target", STACKING,
           "key = (self.p, self._measure_key(mu), self._measure_key(nu))",
           "key = (self.p, self._measure_key(mu))",
           (f"{T_TRANSPORT}::TestSharedStaircase::test_one_build_per_measure_pair_per_runner_call",
            f"{T_STACKING}::TestTLpMemo::test_stacking_audit_solves_each_problem_once")),
    # one measure-pair object at every p; a cost that is not finite raises
    Mutant("stacking-pair-key-without-p", STACKING,
           "key = (self.p, self._measure_key(mu), self._measure_key(nu))",
           "key = (self._measure_key(mu), self._measure_key(nu))",
           (f"{T_STACKING}::TestTLpMemo::test_changed_p_or_measure_solves_afresh",)),
    Mutant("pair-p3-rows-take-the-tl2-path", TRANSPORT,
           "        if self.p != 2:\n            plans = _tlp_plans(",
           "        if False:\n            plans = _tlp_plans(",
           (f"{T_TRANSPORT}::TestMongeCertificate::test_certified_rows_match_linprog",
            f"{T_STACKING}::TestTLpMemo::test_changed_p_or_measure_solves_afresh")),
    Mutant("pair-p3-recovery-reads-w2", TRANSPORT,
           "d, plan = wasserstein(self.mu, self.nu, self.p)", "d, plan = wasserstein(self.mu, self.nu, 2.0)",
           (f"{T_TRANSPORT}::TestSpatialRecovery::test_bitwise_equal_to_the_plan_path",)),
    Mutant("pair-p3-builds-the-staircase", TRANSPORT,
           "        if p != 2:  # the dense path alone, which needs nothing below\n            return\n", "",
           (f"{T_TRANSPORT}::test_tlp_allocates_three_cost_sized_arrays",)),
    Mutant("cost-check-nan-passes", TRANSPORT,
           "if not abs(recomputed - cost) <= _cost_tol(recomputed, cost, tol):",
           "if abs(recomputed - cost) > _cost_tol(recomputed, cost, tol):",
           (f"{T_TRANSPORT}::TestPlanCheck::test_non_finite_cost_or_recomputation_is_a_solver_diagnostic",
            f"{T_TRANSPORT}::TestMongeCertificate::test_overflowing_rows_raise[False-2.0]",
            f"{T_TRANSPORT}::TestMongeCertificate::test_overflowing_rows_raise[True-3.0]",
            f"{T_TRANSPORT}::TestMongeCertificate::test_other_rows_take_the_earlier_paths[overflow]")),
    Mutant("cost-tol-factor-1e6", TRANSPORT,
           "scaled = 16.0 * _EPS * max(", "scaled = 1e6 * _EPS * max(",
           (f"{T_TRANSPORT}::TestPlanCheck::test_stored_cost_off_by_1e12_relative_raises_at_large_costs",
            f"{T_TRANSPORT}::test_cost_tol_floor_and_scale")),
    # graph energies
    Mutant("dct-basis-no-constant-column", "tests/oracles.py",
           "    Q[:, 0] = np.sqrt(1.0 / n)\n", "",
           (f"{T_ENERGIES}::TestClosedFormPathFactors::test_factors_match_eigh",
            f"{T_ENERGIES}::TestClosedFormPathFactors::test_path_keeps_no_basis")),
    Mutant("from-edges-keeps-zero-coefficients", ENERGIES,
           "        order = order[c[order] > 0]\n", "",
           (f"{T_ENERGIES}::TestEdgeBuiltEnergy::test_edges_of_any_adjacency",)),
    Mutant("from-edges-unsorted", ENERGIES,
           "order = np.lexsort((ju, iu))", "order = np.arange(c.size)",
           (f"{T_ENERGIES}::TestEdgeBuiltEnergy::test_edges_of_any_adjacency",)),
    Mutant("from-edges-no-i-below-j-test", ENERGIES,
           "np.any(iu < 0) or np.any(iu >= ju) or np.any(ju >= n)",
           "np.any(iu < 0) or np.any(ju >= n)",
           (f"{T_ENERGIES}::TestEdgeBuiltEnergy::test_from_edges_validation[iu3-ju3-c3-w3]",)),
    Mutant("formed-adjacency-writable", ENERGIES,
           "        A[iu, ju] = c\n        A.flags.writeable = False\n", "        A[iu, ju] = c\n",
           (f"{T_ENERGIES}::TestEdgeBuiltEnergy::test_adjacency_formed_on_read",)),
    Mutant("fine-grid-half-coefficient", EXPERIMENTS,
           "2.0 * coef, measure.weights", "coef, measure.weights",
           (f"{T_ENERGIES}::TestEdgeBuiltEnergy::test_fine_grid_equals_dense_build[64]",
            f"{T_ACCEPTANCE}::test_criterion_12_discrete_to_continuum")),
    # certified or refused: the absolute loss has no prox, and no step or time is non-finite
    Mutant("absolute-prox-returns-h", ENERGIES,
           '    if ge.loss_kind != "squared":\n        raise PreconditionError(',
           '    if ge.loss_kind != "squared":\n        return as_point(h, ge.n_nodes)\n'
           '        raise PreconditionError(',
           (f"{T_ENERGIES}::TestGraphEnergy::test_absolute_loss_has_no_prox",
            f"{T_ENERGIES}::TestGraphEnergy::test_zero_adjacency_identity",
            f"{T_ENERGIES}::TestGraphEnergy::test_constant_vector_fixed_point")),
    Mutant("non-finite-step-admitted", CONVEX,
           "if not 0.0 < step < math.inf:", "if step <= 0.0:",
           (f"{T_CONVEX}::TestProx::test_non_finite_gamma_is_interval_error[quadratic_functional-nan]",
            f"{T_CONVEX}::TestProx::test_non_finite_gamma_is_interval_error[abs_functional-inf]",
            f"{T_SEMIGROUP}::TestResolventIterate::test_non_finite_step_is_interval_error[nan]",
            f"{T_SEMIGROUP}::TestCheckAccretive::test_non_finite_lambda_is_interval_error[nan-0.0]")),
    Mutant("trajectory-non-finite-time-accepted", SEMIGROUP,
           "if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):",
           "if not np.all(np.diff(self.times) > 0):",
           (f"{T_SEMIGROUP}::TestTrajectory::test_non_finite_times_rejected[inf-end]",
            f"{T_SEMIGROUP}::TestTrajectory::test_non_finite_times_rejected[minus-inf-start]")),
    Mutant("partition-non-finite-accepted", SEMIGROUP,
           "times[0] == 0.0 and np.all(np.isfinite(times)) and ", "times[0] == 0.0 and ",
           (f"{T_SEMIGROUP}::TestEpsApproximateSolution::test_non_finite_partition_is_precondition_error"
            "[inf-end]",)),
    # the P0 family's ramp table
    Mutant("smoothstep-integral-quartic", ENERGIES,
           "S[k] * (0.5 * t4 - t3 + t)", "S[k] * (0.25 * t4 - t3 + t)",
           (f"{T_ENERGIES}::TestP0Family::test_cached_matches_exact_quadrature",)),
    Mutant("ramp-table-cell-term", ENERGIES,
           "(hd[:-1] - hd[1:]) / 12.0", "(hd[:-1] - hd[1:]) / 6.0",
           (f"{T_ENERGIES}::TestP0Family::test_cached_matches_exact_quadrature",)),
    Mutant("hermite-half-end-slope", ENERGIES,
           "hd[k + 1] * (t3 - t2))", "0.5 * hd[k + 1] * (t3 - t2))",
           (f"{T_ENERGIES}::TestP0Family::test_smoothstep_matches_bump_quadrature",)),
    Mutant("ramp-table-built-in-p0-family", ENERGIES,
           "    return P0TestFunction(a=a, rise_width=w,",
           "    _ramp_table()\n    return P0TestFunction(a=a, rise_width=w,",
           (f"{T_ENERGIES}::TestP0Family::test_ramp_table_built_on_first_evaluator_use",)),
    # CLI error handling
    Mutant("cli-read-not-caught", "src/gfstack/cli.py",
           "except (OSError, UnicodeDecodeError) as exc:", "except () as exc:",
           (f"{T_EXPERIMENTS}::TestCli::test_unreadable_config_is_config_error[missing]",)),
    Mutant("cli-write-not-caught", "src/gfstack/cli.py",
           "except OSError as exc:", "except () as exc:",
           (f"{T_EXPERIMENTS}::TestCli::test_unwritable_out_is_config_error",)),
    # the TL^p stacking memo
    Mutant("memo-point-not-copied", STACKING,
           "return hit[0].copy(), hit[1]", "return hit[0], hit[1]",
           (f"{T_STACKING}::TestTLpMemo::test_mutating_a_returned_point_changes_no_later_result",)),
    Mutant("memo-distance-key-without-p", STACKING,
           "key = (self.p, self._measure_key(e1.measure),", "key = (self._measure_key(e1.measure),",
           (f"{T_STACKING}::TestTLpMemo::test_changed_p_or_measure_solves_afresh",)),
    Mutant("memo-recovery-key-without-p", STACKING,
           "key = (self.p, mk, nk, x_limit.tobytes())", "key = (mk, nk, x_limit.tobytes())",
           (f"{T_STACKING}::TestTLpMemo::test_changed_p_or_measure_solves_afresh",)),
    Mutant("memo-no-zero-function-store", STACKING,
           "            self._distances[zero] = d", "            pass",
           (f"{T_STACKING}::TestTLpMemo::test_zero_gap_reads_the_spatial_solve",)),
    Mutant("memo-keeps-plan", STACKING,
           "hit = self._recoveries[key] = (point, stagnation)",
           "hit = self._recoveries[key] = (point, stagnation, np.zeros((mu.n_atoms, nu.n_atoms)))",
           (f"{T_STACKING}::TestTLpMemo::test_memo_holds_no_dense_plan",)),
    Mutant("memo-index-key", STACKING,
           "mk, nk = self._measure_key(mu), self._measure_key(nu)", "mk, nk = idx, limit_idx",
           (f"{T_STACKING}::TestTLpMemo::test_changed_p_or_measure_solves_afresh",
            f"{T_STACKING}::TestTLpMemo::test_stacking_audit_solves_each_problem_once")),
]


def _copy(checkout: Path, dest: Path) -> None:
    for name in COPIED:
        src = checkout / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        elif src.is_file():
            shutil.copy2(src, dest / name)
    (dest / "_mutants_report.py").write_text(_PLUGIN)


def _apply(root: Path, m: Mutant) -> bool:
    """Apply m in root; False when its old string does not occur exactly once."""
    path = root / m.path
    text = path.read_text() if path.is_file() else ""
    if text.count(m.old) != 1:
        return False
    path.write_text(text.replace(m.old, m.new))
    return True


def _run(root: Path, ids):
    """Run pytest on ids in root: nodeid -> outcome, or None when the run outlasts TIMEOUT_S."""
    report = root / "_outcomes.json"
    report.unlink(missing_ok=True)
    env = dict(os.environ, MUTANTS_REPORT=str(report), MUTANTS_IDS=json.dumps(list(ids)),
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    files = sorted({t.split("::")[0] for t in ids})
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "_mutants_report",
           "--hypothesis-seed=0", *files]
    try:
        subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return json.loads(report.read_text()) if report.is_file() else {}


def _fresh(checkout: Path, tmp: Path, label: str) -> Path:
    root = tmp / label
    root.mkdir()
    _copy(checkout, root)
    return root


def check(checkout: Path, mutants) -> int:
    """Run each mutant's tests on the clean copy, then on the mutant; 0 when all are killed."""
    bad = 0
    with tempfile.TemporaryDirectory(prefix="gfstack-mutants-") as tmp:
        tmp = Path(tmp)
        ids = sorted({t for m in mutants for t in m.tests})
        clean = _run(_fresh(checkout, tmp, "clean"), ids) or {}
        not_passing = {t for t in ids if clean.get(t) != "passed"}
        for t in sorted(not_passing):
            print(f"CLEAN {clean.get(t, 'missing')}: {t}")
        for k, m in enumerate(mutants):
            root = _fresh(checkout, tmp, f"m{k}")
            if not _apply(root, m):
                print(f"STALE {m.name}: the old string does not occur once in {m.path}")
                bad += 1
                continue
            if not_passing & set(m.tests):
                print(f"UNCHECKED {m.name}: a test of it does not pass on the clean copy")
                bad += 1
                continue
            out = _run(root, m.tests)
            if out is None:
                print(f"TIMEOUT {m.name}: its tests ran longer than {TIMEOUT_S} s")
                bad += 1
                continue
            alive = [t for t in m.tests if out.get(t) != "failed"]
            if alive:
                print(f"SURVIVED {m.name}: {', '.join(alive)}")
                bad += 1
            else:
                print(f"killed {m.name} ({len(m.tests)} tests)")
    print(f"{len(mutants) - bad} of {len(mutants)} mutants killed")
    return 1 if bad else 0


def main(argv) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    return check(args.checkout.resolve(), [by_name[n] for n in args.names] or MUTANTS)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

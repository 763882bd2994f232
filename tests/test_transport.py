"""Exact transport distances, plans, and the function/measure-pair metric."""

import json
import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfstack import transport
from gfstack.errors import ConstructionError, PreconditionError, SolverDiagnosticError
from gfstack.stacking import TLpStacking
from gfstack.transport import (
    EmpiricalMeasure,
    TLpPoint,
    barycentric_map,
    dump_tlp_point,
    interpolation_bound_check,
    load_tlp_point,
    solve_transport,
    tlp_distance,
    tlp_distances,
    uniform_measure,
    wasserstein,
)

from oracles import northwest_corner_loop, permutation_transport_optimum


def _linprog_cost(a, b, C):
    """Optimal cost of the transportation LP by HiGHS, an independent oracle."""
    from scipy.optimize import linprog

    m, n = C.shape
    A_eq = []
    for i in range(m):
        row = np.zeros(m * n)
        row[i * n:(i + 1) * n] = 1.0
        A_eq.append(row)
    for j in range(n):
        row = np.zeros(m * n)
        row[j::n] = 1.0
        A_eq.append(row)
    res = linprog(C.reshape(-1), A_eq=np.asarray(A_eq),
                  b_eq=np.concatenate([a, b]), bounds=(0, None),
                  method="highs")
    assert res.success
    return res.fun


def _pt(atoms, values, weights=None):
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim == 1:
        atoms = atoms[:, None]
    if weights is None:
        m = uniform_measure(atoms)
    else:
        m = EmpiricalMeasure(atoms=atoms, weights=np.asarray(weights, dtype=float))
    return TLpPoint(m, np.asarray(values, dtype=float))


class TestWasserstein:
    def test_two_diracs(self):
        mu = uniform_measure([[0.0]])
        nu = uniform_measure([[1.0]])
        for p in (1.0, 2.0, 3.5):
            d, plan = wasserstein(mu, nu, p)
            assert abs(d - 1.0) < 1e-12
            assert np.allclose(plan.pi, [[1.0]])

    def test_identical_measures(self, rng):
        mu = uniform_measure(rng.normal(size=(5, 2)))
        d, plan = wasserstein(mu, mu, 2.0)
        assert d < 1e-9
        assert np.allclose(plan.pi, np.diag(mu.weights), atol=1e-12)

    def test_two_atom_shift(self):
        mu = uniform_measure([[0.0], [1.0]])
        nu = uniform_measure([[0.25], [0.75]])
        d, _ = wasserstein(mu, nu, 2.0)
        assert abs(d - 0.25) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            wasserstein(uniform_measure([[0.0]]), uniform_measure([[0.0, 0.0]]), 2.0)
        with pytest.raises(PreconditionError):
            wasserstein(uniform_measure([[0.0]]), uniform_measure([[1.0]]), 0.5)

    def test_plan_invariants(self, rng):
        for _ in range(20):
            mu = uniform_measure(rng.normal(size=(4, 2)))
            w = rng.random(6) + 0.1
            nu = EmpiricalMeasure(atoms=rng.normal(size=(6, 2)), weights=w / w.sum())
            _, plan = wasserstein(mu, nu, 2.0)
            plan.check()


class TestPlanCheck:
    """plan.check() recomputes sum(P * C) densely, independent of the solver's cell sum."""

    def _plan(self, rng):
        a = _pt(rng.random(5), rng.normal(size=5))
        w = rng.random(7) + 0.1
        b = _pt(rng.random(7), rng.normal(size=7), w / w.sum())
        _, plan = tlp_distance(a, b, 2.0)
        return plan

    def test_stored_cost_off_by_1e6_raises(self, rng):
        plan = self._plan(rng)
        replace(plan, cost=plan.cost + 1e-10).check()  # within MARGINAL_TOL
        with pytest.raises(PreconditionError, match="stored cost"):
            replace(plan, cost=plan.cost + 1e-6).check()

    def test_stored_cost_off_by_1e12_relative_raises_at_large_costs(self, rng):
        # near a cost of 1e8 the tolerance is 16 eps cost, about 4e-7: the
        # cost's own rounding passes, a relative error of 1e-12 does not
        a = _pt(rng.random(5), 1e4 * rng.normal(size=5))
        b = _pt(rng.random(7), 1e4 * rng.normal(size=7))
        _, plan = tlp_distance(a, b, 2.0)
        assert plan.cost > 1e7
        replace(plan, cost=plan.cost * (1.0 + 4 * np.finfo(float).eps)).check()
        with pytest.raises(PreconditionError, match="stored cost"):
            replace(plan, cost=plan.cost * (1.0 + 1e-12)).check()

    def test_non_finite_cost_or_recomputation_is_a_solver_diagnostic(self, rng):
        # an inf or NaN difference passes no comparison: a NaN cost, and a
        # NaN recomputation (0 * inf off the plan's support), raise as an inf cost does
        plan = self._plan(rng)
        C = plan.cost_matrix.copy()
        C[plan.pi == 0] = np.inf
        for bad in (replace(plan, cost=np.inf), replace(plan, cost=np.nan), replace(plan, cost_matrix=C)):
            with pytest.raises(SolverDiagnosticError, match="not finite"):
                bad.check()

    def test_row_marginal_off_by_1e8_raises(self, rng):
        plan = self._plan(rng)
        pi = plan.pi.copy()
        i1, j = np.unravel_index(np.argmax(pi), pi.shape)
        i0 = (i1 + 1) % pi.shape[0]
        pi[i0, j] += 1e-8  # rows i0 and i1 are off by 1e-8, the columns are not
        pi[i1, j] -= 1e-8
        row, col = replace(plan, pi=pi).marginal_errors()
        assert row >= 0.99e-8 and col <= 1e-15
        with pytest.raises(PreconditionError, match="marginals"):
            replace(plan, pi=pi).check()

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.sampled_from([1, 2]),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_cell_sums_match_dense_sums(self, m, n, d, p, uniform, seed):
        # cost, summed over the plan's basis cells, and stagnation_cost against
        # dense sums on cost matrices built independently (math.dist, Python powers)
        r = np.random.default_rng(seed)
        weights = [None, None] if uniform else [r.random(k) + 0.05 for k in (m, n)]
        a, b = (_pt(r.random((k, d)), r.normal(size=k), w if w is None else w / w.sum())
                for k, w in zip((m, n), weights))
        dist, plan = tlp_distance(a, b, p)
        x, y = a.measure.atoms, b.measure.atoms
        spatial = np.array([[math.dist(x[i], y[j]) ** p for j in range(n)] for i in range(m)])
        values = np.array([[abs(a.values[i] - b.values[j]) ** p for j in range(n)]
                           for i in range(m)])
        cost = float(np.sum(plan.pi * (spatial + values)))
        stagnation = float(np.sum(plan.pi * spatial))
        assert abs(plan.cost - cost) <= 1e-12 * cost
        assert abs(plan.stagnation_cost - stagnation) <= 1e-12 * stagnation
        assert dist == max(plan.cost, 0.0) ** (1.0 / p)
        assert max(plan.marginal_errors()) <= 1e-12


class TestTlpDistance:
    def test_identical_pairs(self, rng):
        a = _pt(rng.normal(size=4), rng.normal(size=4))
        d, _ = tlp_distance(a, a, 2.0)
        assert d < 1e-9

    def test_value_swap_costs_one(self):
        a = _pt([0.0, 1.0], [0.0, 1.0])
        b = _pt([0.0, 1.0], [1.0, 0.0])
        d, _ = tlp_distance(a, b, 1.0)
        assert abs(d - 1.0) < 1e-12

    def test_same_values_zero(self):
        a = _pt([0.0, 1.0], [0.0, 1.0])
        b = _pt([0.0, 1.0], [0.0, 1.0])
        d, _ = tlp_distance(a, b, 2.0)
        assert d < 1e-12

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_nonfinite_p_rejected(self, p):
        a = _pt([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(PreconditionError):
            tlp_distance(a, a, p)

    def test_zero_dimensional_atoms(self):
        # atoms in R^0 all coincide: no spatial cost, only the values are moved
        mu = EmpiricalMeasure(np.zeros((2, 0)), [0.5, 0.5])
        assert wasserstein(mu, mu)[0] == 0.0
        d, plan = tlp_distance(TLpPoint(mu, [0.0, 1.0]), TLpPoint(mu, [0.0, 3.0]), 1.0)
        assert d == 1.0 and plan.stagnation_cost == 0.0

    def test_matches_permutation_oracle(self, rng):
        for _ in range(60):
            k = int(rng.integers(2, 8))
            dim = int(rng.integers(1, 3))
            a = TLpPoint(uniform_measure(rng.normal(size=(k, dim))), rng.normal(size=k))
            b = TLpPoint(uniform_measure(rng.normal(size=(k, dim))), rng.normal(size=k))
            for p in (1.0, 2.0, 3.0):
                d, plan = tlp_distance(a, b, p)
                best = permutation_transport_optimum(plan.cost_matrix)
                assert abs(d - best ** (1.0 / p)) < 1e-9

    def test_diagonal_embedding_one_lipschitz(self, rng):
        mu = uniform_measure(rng.normal(size=(5, 1)))
        u, v = rng.normal(size=5), rng.normal(size=5)
        d, _ = tlp_distance(TLpPoint(mu, u), TLpPoint(mu, v), 2.0)
        lp = float(np.sum(mu.weights * np.abs(u - v) ** 2) ** 0.5)
        assert d <= lp + 1e-9

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_property(self, k, seed):
        r = np.random.default_rng(seed)
        a = TLpPoint(uniform_measure(r.normal(size=(k, 1))), r.normal(size=k))
        b = TLpPoint(uniform_measure(r.normal(size=(k, 1))), r.normal(size=k))
        dab, _ = tlp_distance(a, b, 2.0)
        dba, _ = tlp_distance(b, a, 2.0)
        assert abs(dab - dba) < 1e-9

    def test_triangle_inequality_sampled(self, rng):
        for _ in range(60):
            a = _pt(rng.normal(size=4), rng.normal(size=4))
            b = _pt(rng.normal(size=3), rng.normal(size=3))
            c = _pt(rng.normal(size=5), rng.normal(size=5))
            for p in (1.0, 2.0):
                dab, _ = tlp_distance(a, b, p)
                dbc, _ = tlp_distance(b, c, p)
                dac, _ = tlp_distance(a, c, p)
                assert dac <= dab + dbc + 1e-9

    def test_stronger_exponent_controls_weaker(self, rng):
        # the q-optimal plan's p-cost dominates the p-distance (Hoelder route)
        for _ in range(20):
            a = _pt(rng.normal(size=4), rng.normal(size=4))
            b = _pt(rng.normal(size=4), rng.normal(size=4))
            p, q = 1.0, 2.0
            dq, plan_q = tlp_distance(a, b, q)
            spatial = plan_q.stagnation_cost
            dp, _ = tlp_distance(a, b, p)
            # Hoelder on the q-plan: p-cost <= (q-cost)^{p/q}
            assert dp <= (dq**q) ** (p / q) * 2 ** (1 - p / q) + 1e-9


class TestBarycentricMap:
    def test_diagonal_plan_identity(self, rng):
        mu = uniform_measure(rng.normal(size=(4, 1)))
        v = rng.normal(size=4)
        _, plan = wasserstein(mu, mu, 2.0)
        assert np.allclose(barycentric_map(plan, v), v)

    def test_product_coupling_averages(self):
        from gfstack.transport import TransportPlan

        mu = uniform_measure([[0.0], [1.0]])
        pi = np.full((2, 2), 0.25)
        plan = TransportPlan(pi=pi, source=mu, target=mu, cost=0.0,
                             stagnation_cost=0.0, cost_matrix=np.zeros((2, 2)))
        assert np.allclose(barycentric_map(plan, [0.0, 2.0]), [1.0, 1.0])

    def test_swap_plan_relabels(self):
        from gfstack.transport import TransportPlan

        mu = uniform_measure([[0.0], [1.0]])
        pi = np.array([[0.0, 0.5], [0.5, 0.0]])
        plan = TransportPlan(pi=pi, source=mu, target=mu, cost=0.0,
                             stagnation_cost=0.0, cost_matrix=np.zeros((2, 2)))
        assert np.allclose(barycentric_map(plan, [3.0, 7.0]), [7.0, 3.0])

    def test_recovery_cost_bounded_by_jensen(self, rng):
        # averaging under the plan cannot increase the plan's value-cost
        for _ in range(10):
            k, m = 4, 6
            mu = uniform_measure(np.sort(rng.normal(size=k))[:, None])
            nu = uniform_measure(np.sort(rng.normal(size=m))[:, None])
            v = rng.normal(size=m)
            _, plan = wasserstein(mu, nu, 2.0)
            u = barycentric_map(plan, v)
            direct = float(np.sum(plan.pi * (u[:, None] - v[None, :]) ** 2))
            spread = float(np.sum(plan.pi * (v[None, :] - (plan.pi @ v / plan.pi.sum(1))[:, None]) ** 2))
            assert direct <= spread + 1e-12


class TestInterpolationBound:
    def test_identical_points_trivial(self):
        a = _pt([0.0, 1.0], [0.5, -0.5])
        rep = interpolation_bound_check(a, a, p=1.0, q=4.0, r=2.0, C=1.0)
        assert rep.ok and rep.lhs < 1e-9

    def test_two_atom_instance(self):
        a = _pt([0.0, 1.0], [0.0, 1.0])
        b = _pt([0.0, 1.0], [1.0, 0.0])
        rep = interpolation_bound_check(a, b, p=1.0, q=4.0, r=2.0, C=1.0)
        assert rep.ok

    def test_r_equals_p_edge(self):
        a = _pt([0.0, 1.0], [0.0, 1.0])
        b = _pt([0.25, 0.75], [0.5, 0.2])
        rep = interpolation_bound_check(a, b, p=2.0, q=4.0, r=2.0, C=1.0)
        assert rep.ok and rep.theta == 1.0

    def test_infinite_q(self):
        a = _pt([0.0, 1.0], [0.9, -0.3])
        b = _pt([0.1, 0.8], [0.2, 0.7])
        rep = interpolation_bound_check(a, b, p=1.0, q=np.inf, r=2.0, C=1.0)
        assert rep.ok and rep.theta == 1.0

    def test_sampled_instances(self, rng):
        for _ in range(50):
            a = _pt(rng.uniform(-1, 1, size=4), rng.uniform(-1, 1, size=4))
            b = _pt(rng.uniform(-1, 1, size=5), rng.uniform(-1, 1, size=5))
            rep = interpolation_bound_check(a, b, p=1.0, q=4.0, r=2.0, C=1.0)
            assert rep.ok

    def test_norm_precondition_enforced(self):
        a = _pt([0.0, 1.0], [3.0, 0.0])
        with pytest.raises(PreconditionError):
            interpolation_bound_check(a, a, p=1.0, q=4.0, r=2.0, C=1.0)
        with pytest.raises(PreconditionError):
            interpolation_bound_check(a, a, p=2.0, q=2.0, r=2.0, C=10.0)


class TestValidationAndSerialization:
    def test_weights_validated(self):
        with pytest.raises(ConstructionError):
            EmpiricalMeasure(atoms=np.zeros((2, 1)), weights=[0.5, 0.6])
        with pytest.raises(ConstructionError):
            EmpiricalMeasure(atoms=np.zeros((2, 1)), weights=[1.0, 0.0])

    def test_value_count_validated(self):
        mu = uniform_measure([[0.0], [1.0]])
        with pytest.raises(ConstructionError):
            TLpPoint(mu, [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_values_rejected(self, bad):
        mu = uniform_measure([[0.0], [1.0]])
        with pytest.raises(ConstructionError):
            TLpPoint(mu, [0.0, bad])
        # json writes NaN / Infinity and reads them back as floats
        text = json.dumps({"dim": 1, "atoms": [[0.0], [1.0]], "weights": [0.5, 0.5],
                           "values": [0.0, bad]})
        with pytest.raises(ConstructionError):
            load_tlp_point(text)

    def test_roundtrip(self, rng):
        pt = _pt(rng.normal(size=(4, 2)), rng.normal(size=4))
        text = dump_tlp_point(pt)
        back = load_tlp_point(text)
        assert np.allclose(back.measure.atoms, pt.measure.atoms)
        assert np.allclose(back.measure.weights, pt.measure.weights)
        assert np.allclose(back.values, pt.values)
        assert '"dim"' in text and '"atoms"' in text and '"weights"' in text and '"values"' in text

    def test_duplicate_atoms_permitted(self):
        m = EmpiricalMeasure(atoms=np.zeros((3, 1)), weights=np.full(3, 1 / 3))
        d, _ = wasserstein(m, uniform_measure([[0.0]]), 2.0)
        assert d < 1e-12


class TestSolverCore:
    def test_rectangular_marginals(self, rng):
        for _ in range(25):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            a = rng.random(m) + 0.05
            a /= a.sum()
            b = rng.random(n) + 0.05
            b /= b.sum()
            C = rng.random((m, n))
            P, cost = solve_transport(a, b, C)
            assert np.all(P >= 0)
            assert np.abs(P.sum(axis=1) - a).max() < 1e-9
            assert np.abs(P.sum(axis=0) - b).max() < 1e-9
            # the optimum costs no more than the independent coupling a b^T
            assert cost <= float(np.sum(np.outer(a, b) * C)) + 1e-12

    def test_mass_mismatch_rejected(self):
        with pytest.raises(PreconditionError):
            solve_transport([0.5, 0.4], [0.5, 0.5], np.zeros((2, 2)))

    def test_large_power_log_space(self):
        a = _pt([0.0], [100.0])
        b = _pt([0.0], [0.0])
        d, _ = tlp_distance(a, b, 12.0)
        assert abs(d - 100.0) < 1e-6


class TestAgainstLinearProgramming:
    def test_rectangular_optimum_matches_linprog(self, rng):
        for _ in range(30):
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            a = rng.random(m) + 0.05
            a /= a.sum()
            b = rng.random(n) + 0.05
            b /= b.sum()
            C = rng.random((m, n))
            _, cost = solve_transport(a, b, C)
            assert abs(_linprog_cost(a, b, C) - cost) < 1e-9

    def test_2d_clouds_at_64_match_linprog(self):
        # random 2-D clouds with random weights need hundreds of pivots from
        # the staircase; Dantzig's rule takes them in well under a second
        for seed in range(3):
            r = np.random.default_rng(6400 + seed)
            x, y = r.random((64, 2)), r.random((64, 2))
            a, b = r.random(64) + 0.05, r.random(64) + 0.05
            a, b = a / a.sum(), b / b.sum()
            C = np.sum((x[:, None] - y[None]) ** 2, axis=2)
            P, cost = solve_transport(a, b, C)
            assert abs(_linprog_cost(a, b, C) - cost) < 1e-12
            assert P.min() >= 0.0
            assert np.abs(P.sum(axis=1) - a).max() <= 1e-12
            assert np.abs(P.sum(axis=0) - b).max() <= 1e-12


def _tied_weights(r, k, kind):
    """Weights with exact ties: uniform 1/k, or dyadic counts / 2^6 summing to 1."""
    if kind == "uniform":
        return np.full(k, 1.0 / k)
    cuts = np.sort(r.choice(np.arange(1, 64), size=k - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [64]])) / 64.0


class TestDegenerateInstances:
    """Exactly tied marginals and costs, the case the symbolic perturbation handles."""

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["uniform", "dyadic"]),
        st.sampled_from(["integer", "monge"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_tied_marginals_match_linprog(self, m, n, weights, costs, seed):
        r = np.random.default_rng(seed)
        a, b = _tied_weights(r, m, weights), _tied_weights(r, n, weights)
        if costs == "integer":
            C = r.integers(0, 4, size=(m, n)).astype(float)
        else:  # |x_i - y_j|^p on sorted integer atoms: a Monge cost with ties
            x = np.sort(r.integers(0, 5, size=m)).astype(float)
            y = np.sort(r.integers(0, 5, size=n)).astype(float)
            C = np.abs(x[:, None] - y[None, :]) ** float(r.integers(1, 3))
        P, cost = solve_transport(a, b, C)
        assert abs(_linprog_cost(a, b, C) - cost) < 1e-9
        assert P.min() >= 0.0
        assert np.abs(P.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(P.sum(axis=0) - b).max() <= 1e-12


def test_pivot_cap_raises_in_bounded_time(monkeypatch):
    # this 2-D cloud of 16 atoms takes 51 pivots (156 under Bland's rule);
    # capped at 5 the solver must give up with a diagnostic rather than
    # return a non-optimal plan
    monkeypatch.setattr(transport, "_MAX_PIVOTS", 5)
    r = np.random.default_rng(16000)
    x, y = r.random((16, 2)), r.random((16, 2))
    C = np.sum((x[:, None] - y[None]) ** 2, axis=2)
    w = np.full(16, 1.0 / 16)
    t0 = time.perf_counter()
    with pytest.raises(SolverDiagnosticError, match="exceeded 5 pivots"):
        solve_transport(w, w, C)
    assert time.perf_counter() - t0 < 2.0


@pytest.mark.parametrize("scale", [100.0, 1000.0])
def test_reduced_costs_tested_at_the_rounding_of_the_costs(scale):
    # with an absolute 1e-12 the simplex pivoted on reduced costs below the
    # rounding of these costs (up to about 1e5 and 1e7) and gave up after
    # 200,000 pivots
    r = np.random.default_rng(0)
    x, y = r.random(10), r.random(11)
    f, g = scale * r.normal(size=10), scale * r.normal(size=11)
    t0 = time.perf_counter()
    d, plan = tlp_distance(_pt(x, f), _pt(y, g))
    assert time.perf_counter() - t0 < 1.0
    C = np.subtract.outer(f, g) ** 2 + np.subtract.outer(x, y) ** 2
    ref = _linprog_cost(plan.source.weights, plan.target.weights, C)
    assert abs(d**2 - ref) <= 1e-13 * ref


def test_rc_tol_floor_and_scale():
    assert transport._rc_tol(0.0) == transport._rc_tol(1125.0) == transport._RC_TOL
    assert transport._rc_tol(1e6) == 4 * np.finfo(float).eps * 1e6
    for scale in (np.inf, np.nan):
        assert transport._rc_tol(scale) == transport._RC_TOL


@pytest.mark.parametrize("scale", [1e3, 1e4, 1e5, 1e6])
def test_large_costs_pass_the_cost_check(scale):
    # correct plans whose two cost sums differ by rounding, at most a few
    # eps cost: an absolute MARGINAL_TOL raised on about half of these
    # problems from scale 1e4, where the cost is near 1e8
    for seed in range(50):
        r = np.random.default_rng(seed)
        x, y = r.random(10), r.random(11)
        f, g = scale * r.normal(size=10), scale * r.normal(size=11)
        d, plan = tlp_distance(_pt(x, f), _pt(y, g))
        C = np.subtract.outer(f, g) ** 2 + np.subtract.outer(x, y) ** 2
        ref = _linprog_cost(plan.source.weights, plan.target.weights, C)
        assert abs(d**2 - ref) <= 1e-13 * ref


def test_cost_tol_floor_and_scale():
    eps, tol = np.finfo(float).eps, transport.MARGINAL_TOL
    assert transport._cost_tol(0.0, 0.0) == transport._cost_tol(2.5e5, -2.5e5) == tol
    assert transport._cost_tol(1e6, -1e7) == 16 * eps * 1e7
    assert transport._cost_tol(1e6, 1e6, 1e-3) == 1e-3
    for scale in (np.inf, np.nan):
        assert transport._cost_tol(scale, 1.0) == tol


class _NoTree:
    def __init__(self, *args):
        raise AssertionError("an optimal staircase needs no spanning tree")


class TestStaircaseStart:
    """Sorted 1-D problems with a convex cost: the staircase itself is optimal."""

    @given(
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=24),
        st.sampled_from(["uniform", "dyadic", "random"]),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_sorted_problems_match_linprog(self, m, n, weights, p, seed):
        r = np.random.default_rng(seed)
        if weights == "random":
            a, b = r.random(m) + 0.05, r.random(n) + 0.05
            a, b = a / a.sum(), b / b.sum()
        else:
            a, b = _tied_weights(r, m, weights), _tied_weights(r, n, weights)
        x, y = np.sort(r.random(m)), np.sort(r.random(n))
        C = np.abs(x[:, None] - y[None, :]) ** p
        P, cost = solve_transport(a, b, C)
        assert abs(_linprog_cost(a, b, C) - cost) < 1e-9
        assert P.min() >= 0.0
        assert np.abs(P.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(P.sum(axis=0) - b).max() <= 1e-12

    def test_16_against_1024_uniform_atoms(self, monkeypatch):
        # every 64th fine breakpoint ties a coarse one exactly
        monkeypatch.setattr(transport, "_SpanningTree", _NoTree)
        x, y = (np.arange(16) + 0.5) / 16, (np.arange(1024) + 0.5) / 1024
        a, b = np.full(16, 1.0 / 16), np.full(1024, 1.0 / 1024)
        C = (x[:, None] - y[None, :]) ** 2
        P, cost = solve_transport(a, b, C)
        assert abs(_linprog_cost(a, b, C) - cost) < 1e-12
        assert np.count_nonzero(P) == 1024
        assert np.array_equal(P.sum(axis=1), a) and np.array_equal(P.sum(axis=0), b)

    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["uniform", "dyadic", "random"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_staircase_is_a_nondegenerate_basis(self, m, n, weights, seed):
        r = np.random.default_rng(seed)
        if weights == "random":
            a, b = r.random(m) + 0.05, r.random(n) + 0.05
            a, b = a / a.sum(), b / b.sum()
        else:
            a, b = _tied_weights(r, m, weights), _tied_weights(r, n, weights)
        i, j, flow, flow_eps = transport._northwest_corner(a, b)
        # dyadic weights sum exactly, so the cumulative sums see the exact
        # ties the sequential rule sees and every flow is bit for bit its
        # flow; random weights have no ties, and the flows differ only by the
        # rounding of the sums.  Uniform weights 1/k with k not a power of
        # two have ties that rounding can break either way in either method.
        dyadic = weights == "dyadic" or (weights == "uniform" and m & (m - 1) == 0 and n & (n - 1) == 0)
        if dyadic or weights == "random":
            loop = northwest_corner_loop(a, b)
            assert [(c[0], c[1]) for c in loop] == list(zip(i.tolist(), j.tolist()))
            ref, ref_eps = np.transpose([c[2] for c in loop])
            assert np.abs(flow - ref).max() <= (0.0 if dyadic else 8 * np.finfo(float).eps)
            assert np.abs(flow_eps - ref_eps).max() <= 1e-12
        # every flow is positive in the perturbed (exact, eps) order
        assert all((f, e) > (0.0, 0.0) for f, e in zip(flow, flow_eps))
        # m + n - 1 cells, each step moving to the next source or the next sink
        assert len(i) == m + n - 1 and i[-1] == m - 1 and j[-1] == n - 1
        assert np.all(np.diff(i) + np.diff(j) == 1)
        P = np.zeros((m, n))
        P[i, j] = flow
        assert np.abs(P.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(P.sum(axis=0) - b).max() <= 1e-12


class TestBlockedReducedCostTest:
    """The row-blocked reduced-cost test agrees with the dense one cell for cell."""

    @staticmethod
    def _optimal(m, n, seed):
        # C_ij = u_i + v_j + a nonnegative slack, so no reduced cost is negative
        r = np.random.default_rng(seed)
        u, v = r.normal(size=m), r.normal(size=n)
        C = u[:, None] + v + r.random((m, n))
        return C, u, v

    @staticmethod
    def _agree(C, u, v):
        dense = bool(np.any(C - u[:, None] - v < -transport._RC_TOL))
        scratch = transport._rc_scratch(*C.shape)
        assert transport._any_reduced_cost_below(C, u, v, scratch, transport._RC_TOL) == dense
        return dense

    @pytest.mark.parametrize("m, n", [(1, 1), (37, 1000), (16, 1024), (300, 7), (3, (1 << 14) + 3)])
    def test_single_planted_negative(self, m, n):
        rows = transport._rc_scratch(m, n).shape[0]
        assert rows * n <= 1 << 14 or rows == 1
        C, u, v = self._optimal(m, n, seed=m * n)
        assert not self._agree(C, u, v)
        # first cell, last cell, the first cell of the (partial) last block
        last_block = (m - 1) // rows * rows
        for i, j in {(0, 0), (m - 1, n - 1), (last_block, 0), (last_block, n - 1)}:
            planted = C.copy()
            planted[i, j] = u[i] + v[j] - 1e-9
            assert self._agree(planted, u, v)
            # zero potentials keep the reduced costs exact: -_RC_TOL itself
            # is not below -_RC_TOL, the next double down is
            zero = np.zeros((m, n))
            zero[i, j] = -transport._RC_TOL
            assert not self._agree(zero, np.zeros(m), np.zeros(n))
            zero[i, j] = np.nextafter(-transport._RC_TOL, -1.0)
            assert self._agree(zero, np.zeros(m), np.zeros(n))

    @pytest.mark.parametrize("m, n", [(37, 1000), (3, (1 << 14) + 3)])
    def test_nan_next_to_a_negative(self, m, n):
        C, u, v = self._optimal(m, n, seed=7)
        C[m - 1, n - 2] = np.nan
        assert not self._agree(C, u, v)  # a NaN alone is not below -_RC_TOL
        C[m - 1, n - 1] = u[m - 1] + v[n - 1] - 1e-9
        assert self._agree(C, u, v)
        C[m - 1, n - 1] = np.nan
        C[0, 0] = u[0] + v[0] - 1e-9
        assert self._agree(C, u, v)


def _no_fallback(*args):
    raise AssertionError("a certified TL^2 row needs no one-row solve")


def _outcome(fn):
    try:
        return "value", fn()
    except (PreconditionError, SolverDiagnosticError) as exc:
        return "raises", type(exc)


def _value_rows(r, k, n, sort):
    rows = r.normal(size=(k, n))
    return np.sort(rows, axis=1) if sort else rows


class TestTlpDistances:
    """TL^p distances along two trajectories on one pair of measures."""

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([1, 2]),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.booleans(),
        st.sampled_from([1e-3, 1.0, 1e3]),
        st.sampled_from([0.0, 3.0]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_per_row_distances(self, m, n, k, d, p, sort, scale, shift, seed):
        # sorted 1-D atoms with sorted values keep the staircase optimal; in
        # 2-D, or with unsorted values, rows take the pivoting fallback.  At
        # p = 2 rows at scale 1e3 cannot be certified and are solved one by
        # one; a shift gives the values one sign, where a wrong cross term
        # in the certificate would pass non-optimal rows.  A batch raises
        # what its first raising row raises alone
        r = np.random.default_rng(seed)
        x, y = np.sort(r.random((m, d)), axis=0), np.sort(r.random((n, d)), axis=0)
        a, b = r.random(m) + 0.05, r.random(n) + 0.05
        mu = EmpiricalMeasure(atoms=x, weights=a / a.sum())
        nu = EmpiricalMeasure(atoms=y, weights=b / b.sum())
        U = scale * (_value_rows(r, k, m, sort) + shift)
        V = scale * (_value_rows(r, k, n, sort) + shift)
        batch = _outcome(lambda: tlp_distances(mu, nu, U, V, p).tolist())
        single = _outcome(lambda: [tlp_distance(TLpPoint(mu, u), TLpPoint(nu, v), p)[0]
                                   for u, v in zip(U, V)])
        assert batch == single
        assert batch[0] == "raises" or len(batch[1]) == k

    def test_staircase_and_pivoted_rows_in_one_batch(self, monkeypatch):
        # a pivoted row gets a fresh plan: the shared staircase plan stays
        # intact for the optimal rows after it
        built = []
        tree = transport._SpanningTree

        def counting_tree(*args):
            built.append(args)
            return tree(*args)

        monkeypatch.setattr(transport, "_SpanningTree", counting_tree)
        x = (np.arange(16) + 0.5) / 16
        y = (np.arange(64) + 0.5) / 64
        mu, nu = uniform_measure(x), uniform_measure(y)
        rising = np.vstack([x, x**2, np.zeros(16)]), np.vstack([y, y**2, np.zeros(64)])
        U = np.vstack([rising[0][:1], -3 * x, rising[0][1:]])  # the middle row pivots
        V = np.vstack([rising[1][:1], y, rising[1][1:]])
        batch = tlp_distances(mu, nu, U, V, 2.0)
        assert len(built) == 1
        single = [tlp_distance(TLpPoint(mu, u), TLpPoint(nu, v), 2.0)[0] for u, v in zip(U, V)]
        assert batch.tolist() == single
        for u, v, dist in zip(U, V, batch):
            C = np.subtract.outer(u, v) ** 2 + np.subtract.outer(x, y) ** 2
            assert abs(_linprog_cost(mu.weights, nu.weights, C) - dist**2) < 1e-12

    def test_shapes_and_values_validated(self):
        mu, nu = uniform_measure(np.arange(3.0)), uniform_measure(np.arange(4.0))
        U, V = np.zeros((2, 3)), np.zeros((2, 4))
        assert tlp_distances(mu, nu, U, V).tolist() == [wasserstein(mu, nu)[0]] * 2
        assert tlp_distances(mu, nu, U[:0], V[:0]).shape == (0,)
        for bad_u, bad_v in [(U[:1], V), (U.T, V), (U[0], V[0]), (U[:, :2], V), (U, V[:, :3])]:
            with pytest.raises(PreconditionError):
                tlp_distances(mu, nu, bad_u, bad_v)
        for bad in (np.nan, np.inf):
            V_bad = V.copy()
            V_bad[1, 2] = bad
            with pytest.raises(ConstructionError, match="finite"):
                tlp_distances(mu, nu, U, V_bad)
        with pytest.raises(PreconditionError):
            tlp_distances(mu, uniform_measure([[0.0, 0.0]] * 4), U, V)
        with pytest.raises(PreconditionError):
            tlp_distances(mu, nu, U, V, 0.5)

    def test_corrupted_row_cost_trips_the_cost_check(self, monkeypatch):
        # the third row's cell costs are raised by 1e-6 once its certificate
        # has passed, so only its cost, summed over the cells, is off: by
        # 1e-6 at unit mass.  Rising rows pass the Monge test, sin(pi x)
        # rows, which rise and fall, the product test
        certified = transport._TLpPair._certified
        calls = []

        def corrupt_third_row(staircase, f, g, c, a, b):
            ok = certified(staircase, f, g, c, a, b)
            calls.append(ok)
            if len(calls) == 3:
                c += 1e-6
            return ok

        monkeypatch.setattr(transport._TLpPair, "_certified", corrupt_third_row)
        monkeypatch.setattr(transport, "_tlp_plans", _no_fallback)
        products = _Spy(monkeypatch, "_products_at_least")
        x = (np.arange(8) + 0.5) / 8
        mu = uniform_measure(x)
        for profile, product_tests in [(x, 0), (np.sin(np.pi * x), 3)]:
            calls.clear()
            products.calls = 0
            U = np.vstack([profile * s for s in (0.25, 0.5, 0.75, 1.0)])
            with pytest.raises(PreconditionError, match="stored cost"):
                tlp_distances(mu, mu, U, 1.25 * U)
            assert calls == [True] * 3  # the check stops the batch at the corrupted row
            assert products.calls == product_tests


class _Spy:
    """Counts the calls of a transport function it stands in for."""

    def __init__(self, monkeypatch, name):
        self.calls = 0
        self.fn = getattr(transport, name)
        monkeypatch.setattr(transport, name, self)

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


class TestTl2Certificate:
    """p = 2 rows certified by the product form of their reduced costs, or solved one by one."""

    @staticmethod
    def _near_tie(r, offset, sign):
        # two atoms at one point each side: the value costs alone decide,
        # and the cell off the staircase has reduced cost 2 df dg, here of
        # size 2e-12 .. 1e-11 and the given sign, with values near offset
        mu = EmpiricalMeasure(atoms=np.zeros((2, 1)), weights=np.array([0.375, 0.625]))
        nu = EmpiricalMeasure(atoms=np.zeros((2, 1)), weights=np.array([0.5, 0.5]))
        f = offset + np.array([0.0, 1e-5])
        g = offset + np.array([0.0, sign * (1e-7 + 4e-7 * r.random())])
        return mu, nu, f, g

    def test_certified_rows_have_no_reduced_cost_below_tol(self, monkeypatch):
        # at offsets 300-600 the product form may round by up to about 1e-9
        # and hide a reduced cost of -1e-11 that the direct test sees; the
        # margin keeps such rows from being certified
        fallbacks = _Spy(monkeypatch, "_tlp_plans")
        trees = _Spy(monkeypatch, "_SpanningTree")
        certified = pivoted = 0
        for seed in range(120):
            r = np.random.default_rng(seed)
            offset = (1.0 if seed % 3 == 0 else 300.0) * (1.0 + r.random())
            mu, nu, f, g = self._near_tie(r, offset, 1.0 if seed % 2 else -1.0)
            fallbacks.calls = 0
            d = tlp_distances(mu, nu, f[None], g[None])[0]
            row_certified = fallbacks.calls == 0
            trees.calls = 0
            assert d == tlp_distance(TLpPoint(mu, f), TLpPoint(nu, g))[0]
            # the one-row solve builds a tree exactly when its blocked
            # direct test finds a reduced cost below -tol
            assert not (row_certified and trees.calls)
            certified += row_certified
            pivoted += trees.calls > 0
        assert certified >= 10 and pivoted >= 50

    def test_heat_rows_are_certified(self, monkeypatch):
        # sorted atoms, equispaced or uniform, and the stacking audit's
        # sin(pi x) profiles, which rise and fall, so the Monge test passes
        # none of them: the product test certifies every row, with no
        # one-row solve.  Shifted to take both signs, where a wrong cross
        # term in the product would fail the rows
        r = np.random.default_rng(3)
        for x, y in [((np.arange(16) + 0.5) / 16, (np.arange(1024) + 0.5) / 1024),
                     (np.sort(r.random(32)), np.sort(r.random(128)))]:
            mu, nu = uniform_measure(x), uniform_measure(y)
            U = np.vstack([(np.sin(np.pi * x) - 0.5) * np.exp(-t) for t in (0.0, 0.5, 2.0)])
            V = np.vstack([(np.sin(np.pi * y) - 0.5) * np.exp(-t) for t in (0.0, 0.5, 2.0)])
            single = [tlp_distance(TLpPoint(mu, u), TLpPoint(nu, v))[0] for u, v in zip(U, V)]
            with monkeypatch.context() as mp:
                mp.setattr(transport, "_tlp_plans", _no_fallback)
                products = _Spy(mp, "_products_at_least")
                assert tlp_distances(mu, nu, U, V).tolist() == single
                assert products.calls == 3


def _bits(fn):
    """_outcome of fn, a distance array read as its bytes, so NaN and inf rows compare."""
    kind, value = _outcome(fn)
    return kind, value.tobytes() if kind == "value" else value


class TestMongeCertificate:
    """Similarly ordered values on similarly ordered 1-D atoms: a Monge cost, no reduced costs."""

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.sampled_from(["rising", "falling", "constant", "zero"]),
        st.sampled_from(["ascending", "descending"]),
        st.booleans(),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150, deadline=None)
    def test_certified_rows_match_linprog(self, m, n, values, order, ties, p, seed):
        # ties: atoms and values drawn from a few integers, so equal
        # neighbours and zero differences are common
        r = np.random.default_rng(seed)
        draw = (lambda k: r.integers(0, 4, size=k).astype(float)) if ties else (lambda k: r.normal(size=k))
        x, y = np.sort(draw(m)), np.sort(draw(n))
        f, g = np.sort(draw(m)), np.sort(draw(n))
        if order == "descending":
            x, y = x[::-1], y[::-1]
        if values == "falling":
            f, g = f[::-1], g[::-1]
        elif values == "constant":
            f, g = np.full(m, r.normal()), np.full(n, r.normal())
        elif values == "zero":
            f, g = np.zeros(m), np.zeros(n)
        a, b = r.random(m) + 0.05, r.random(n) + 0.05
        mu = EmpiricalMeasure(atoms=x[:, None], weights=a / a.sum())
        nu = EmpiricalMeasure(atoms=y[:, None], weights=b / b.sum())
        with pytest.MonkeyPatch.context() as mp:
            spies = [_Spy(mp, name) for name in
                     ("_products_at_least", "_SpanningTree", "_any_reduced_cost_below")]
            fallbacks = _Spy(mp, "_tlp_plans")
            batch = tlp_distances(mu, nu, f[None], g[None], p)[0]
            assert fallbacks.calls == (0 if p == 2 else 1)
            single, plan = tlp_distance(TLpPoint(mu, f), TLpPoint(nu, g), p)
            assert [spy.calls for spy in spies] == [0, 0, 0]
        assert batch == single
        C = np.abs(np.subtract.outer(f, g)) ** p + np.abs(np.subtract.outer(x, y)) ** p
        ref = _linprog_cost(mu.weights, nu.weights, C)
        assert abs(plan.cost - ref) <= 1e-12 * ref
        assert plan.pi[plan.pi > 0].size <= m + n - 1

    @pytest.mark.parametrize("case", ["opposite", "unsorted", "2-D", "overflow"])
    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
    def test_other_rows_take_the_earlier_paths(self, case, monkeypatch):
        # rows the Monge certificate must not take: values in opposite
        # orders, unsorted atoms, 2-D atoms sorted by their first coordinate
        # only, and sorted values near 1e160, whose squares and cell costs
        # overflow.  Each takes the product test or the one-row solve's
        # reduced-cost test, with the outcome it has with no Monge test: for
        # the overflow, SolverDiagnosticError from the cost check
        r = np.random.default_rng(11)
        x, y = np.sort(r.random((9, 1)), axis=0), np.sort(r.random((7, 1)), axis=0)
        f, g = np.sort(r.normal(size=9)), np.sort(r.normal(size=7))
        if case == "opposite":
            g = g[::-1]
        elif case == "unsorted":  # small values, so the atoms' order decides the plan
            x, f, g = r.permutation(x), 0.1 * f, 0.1 * g
        elif case == "2-D":
            x, y = np.hstack([x, r.random((9, 1))]), np.hstack([y, r.random((7, 1))])
        else:
            f, g = 1e160 * f, 1e160 * g
        a, b = r.random(9) + 0.05, r.random(7) + 0.05
        mu = EmpiricalMeasure(atoms=x, weights=a / a.sum())
        nu = EmpiricalMeasure(atoms=y, weights=b / b.sum())
        tested = [_Spy(monkeypatch, name) for name in ("_products_at_least", "_tlp_plans")]
        direct = _Spy(monkeypatch, "_any_reduced_cost_below")
        trees = _Spy(monkeypatch, "_SpanningTree")
        batch = lambda: _bits(lambda: tlp_distances(mu, nu, f[None], g[None]))
        single = lambda: _bits(lambda: np.array(tlp_distance(TLpPoint(mu, f), TLpPoint(nu, g))[0]))
        got = batch()
        assert sum(spy.calls for spy in tested) >= 1
        direct.calls = 0
        got = got, single()
        assert direct.calls == 1
        assert (got == (("raises", SolverDiagnosticError),) * 2) == (case == "overflow")
        trees.calls = 0
        monkeypatch.setattr(transport, "_monge_rows", lambda mu, nu: lambda f, g: False)
        assert got == (batch(), single())
        # the staircase of the first three is not optimal: a wrongly passed
        # row would keep it, and its outcome would differ
        assert (trees.calls > 0) == (case != "overflow")

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("opposite", [False, True])
    @pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
    def test_overflowing_rows_raise(self, p, opposite):
        # sorted values near 1e160, in the same order (a Monge row) or in
        # opposite orders: their cell costs overflow, and no path returns inf
        x = (np.arange(6) + 0.5) / 6
        mu = uniform_measure(x)
        f = 1e160 * np.linspace(-1.0, 1.0, 6)
        g = -f if opposite else f + 1e159
        for solve in (lambda: tlp_distances(mu, mu, f[None], g[None], p),
                      lambda: tlp_distance(TLpPoint(mu, f), TLpPoint(mu, g), p),
                      lambda: TLpStacking({0: mu, 1: mu}, p).distance(TLpPoint(mu, f), TLpPoint(mu, g))):
            with pytest.raises(SolverDiagnosticError, match="not finite"):
                solve()

    def test_heat_round_product_tests(self, monkeypatch):
        # every d2c and resolvent row and every W_2 recovery of a heat-1d
        # round passes the Monge test; only the stacking audit's sin(pi x)
        # rows take the product test, 26 of the round's 110 rows
        products = _Spy(monkeypatch, "_products_at_least")
        for seed in (0, 7):
            per_call = []
            for kind, fields in _HEAT_CALLS:
                products.calls = 0
                _heat_call(kind, seed, fields)
                per_call.append(products.calls)
            assert per_call == [0, 0, 0, 26]


_HEAT_CALLS = [("d2c_heat", {"sampling": "equispaced"}), ("d2c_heat", {"sampling": "uniform"}),
               ("resolvent_convergence", {}), ("stacking_audit", {})]


def _heat_call(kind, seed, fields):
    """One runner call of a heat-1d round, at sizes 16-128."""
    from gfstack import experiments

    cfg = experiments.ExperimentConfig(kind=kind, seed=seed, sizes=(16, 32, 64, 128), **fields)
    return experiments.run_experiment(cfg)


def _direct_recovery(mu, nu, v, p=2.0):
    d, plan = wasserstein(mu, nu, p)
    return d, barycentric_map(plan, v), plan.stagnation_cost


def _pair_recovery(mu, nu, v, p):
    """W_p, barycentric point and stagnation cost from a fresh measure pair."""
    return transport._TLpPair(mu, nu, p).recovery(v)


def _recovery_bits(recover, *args):
    d, point, stagnation = recover(*args)
    return d, point.tobytes(), stagnation


class TestSpatialRecovery:
    """W_p distance, barycentric point and stagnation cost read off one certified staircase."""

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.sampled_from([1, 2]),
        st.sampled_from([1.0, 2.0, 3.0]),
        st.booleans(),
        st.booleans(),
        st.sampled_from([1.0, 20.0, 1e3]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_the_plan_path(self, m, n, d, p, sort, uniform, scale, seed):
        # sorted atoms keep the staircase optimal; at scale 20 and above it
        # cannot be certified, and unsorted 2-D atoms need pivots: both
        # fall back to wasserstein, as does every p other than 2
        r = np.random.default_rng(seed)
        x, y = scale * r.random((m, d)), scale * r.random((n, d))
        if sort:
            x, y = np.sort(x, axis=0), np.sort(y, axis=0)
        a, b = (np.ones(m), np.ones(n)) if uniform else (r.random(m) + 0.05, r.random(n) + 0.05)
        mu = EmpiricalMeasure(atoms=x, weights=a / a.sum())
        nu = EmpiricalMeasure(atoms=y, weights=b / b.sum())
        v = r.normal(size=n)
        recovery = _outcome(lambda: _recovery_bits(_pair_recovery, mu, nu, v, p))
        assert recovery == _outcome(lambda: _recovery_bits(_direct_recovery, mu, nu, v, p))

    def test_bitwise_at_heat_sizes(self, monkeypatch):
        # uniformly sampled atoms against the 1024-atom fine grid: the sums
        # of the plan's rows and of its stagnation array round differently
        # from those of the weights and of the cells alone
        fallbacks = _Spy(monkeypatch, "wasserstein")
        y = (np.arange(1024) + 0.5) / 1024
        nu, v = uniform_measure(y), np.cos(np.pi * y)
        for seed in range(6):
            r = np.random.default_rng(seed)
            for m in (16, 128):
                w = r.random(m) + 0.5 if seed % 2 else np.ones(m)
                mu = EmpiricalMeasure(atoms=np.sort(r.random(m))[:, None], weights=w / w.sum())
                recovery = _recovery_bits(_pair_recovery, mu, nu, v, 2.0)
                assert fallbacks.calls == 0
                assert recovery == _recovery_bits(_direct_recovery, mu, nu, v)

    def test_atoms_at_scale_20_fall_back(self, monkeypatch):
        # sorted atoms with the zero functions pass the Monge test at any
        # scale, so the recovery at scale 20 is certified too.  A sin(pi x)
        # row, which rises and falls, takes the product test, whose absolute
        # margin certifies no row with S >= 311: at scale 20 it falls back
        fallbacks = _Spy(monkeypatch, "wasserstein")
        solves = _Spy(monkeypatch, "_tlp_plans")
        x, y = (np.arange(16) + 0.5) / 16, (np.arange(1024) + 0.5) / 1024
        for scale, expected in [(1.0, 0), (20.0, 1)]:
            mu, nu = uniform_measure(scale * x), uniform_measure(scale * y)
            v = np.cos(np.pi * y)
            fallbacks.calls = solves.calls = 0
            recovery = _recovery_bits(_pair_recovery, mu, nu, v, 2.0)
            assert fallbacks.calls == 0
            assert recovery == _recovery_bits(_direct_recovery, mu, nu, v)
            f, g = np.sin(np.pi * x), np.sin(np.pi * y)
            solves.calls = 0
            dist = tlp_distances(mu, nu, f[None], g[None])[0]
            assert solves.calls == expected
            assert dist == tlp_distance(TLpPoint(mu, f), TLpPoint(nu, g))[0]

    def test_certified_recoveries_have_no_reduced_cost_below_tol(self, monkeypatch):
        # TestTl2Certificate's near ties with the values as the atoms: at
        # offsets 300-600 the product form may hide a reduced cost of -1e-11
        # that the direct test sees, and the margin keeps such a staircase
        # from being certified
        fallbacks = _Spy(monkeypatch, "wasserstein")
        trees = _Spy(monkeypatch, "_SpanningTree")
        certified = pivoted = 0
        for seed in range(120):
            r = np.random.default_rng(seed)
            offset = (1.0 if seed % 3 == 0 else 300.0) * (1.0 + r.random())
            tie, _, f, g = TestTl2Certificate._near_tie(r, offset, 1.0 if seed % 2 else -1.0)
            mu = EmpiricalMeasure(atoms=f[:, None], weights=tie.weights)
            nu = uniform_measure(g)
            v = np.array([1.0, -2.0])
            fallbacks.calls = 0
            recovery = _recovery_bits(_pair_recovery, mu, nu, v, 2.0)
            was_certified = fallbacks.calls == 0
            trees.calls = 0
            assert recovery == _recovery_bits(_direct_recovery, mu, nu, v)
            assert not (was_certified and trees.calls)
            certified += was_certified
            pivoted += trees.calls > 0
        assert certified >= 10 and pivoted >= 50

    def test_heat_round_recoveries_are_certified(self, monkeypatch):
        # a heat-1d round recovers 15 initial and approximating points, all
        # on sorted 1-D atoms in [0, 1], each through a kept staircase's
        # recovery: none needs wasserstein
        recover, recovered = transport._TLpPair.recovery, []

        def counted(*args):
            recovered.append(args)
            return recover(*args)

        monkeypatch.setattr(transport, "wasserstein", _no_fallback)
        monkeypatch.setattr(transport._TLpPair, "recovery", counted)
        for seed in (0, 7):
            recovered.clear()
            for kind, fields in _HEAT_CALLS:
                _heat_call(kind, seed, fields)
            assert len(recovered) == 15


class TestSharedStaircase:
    """One O(m + n) staircase per measure pair, shared by every distance and recovery on it."""

    def test_one_build_per_measure_pair_per_runner_call(self, monkeypatch):
        # d2c keeps one staircase per size, for its recovery and its rows;
        # resolvent_convergence one for each of its 3 sizes; the stacking
        # audit one per (source, target) measure pair it compares: 14
        build, built = transport._TLpPair.__init__, []

        def counted(pair, mu, nu, p=2.0):
            built.append(tuple(a.tobytes() for a in (mu.atoms, mu.weights, nu.atoms, nu.weights)))
            build(pair, mu, nu, p)

        monkeypatch.setattr(transport._TLpPair, "__init__", counted)
        for seed in (0, 7):
            per_call = []
            for kind, fields in _HEAT_CALLS:
                built.clear()
                _heat_call(kind, seed, fields)
                assert len(set(built)) == len(built)
                per_call.append(len(built))
            assert per_call == [4, 4, 3, 14]

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.sampled_from([1, 2]),
        st.booleans(),
        st.sampled_from([1.0, 20.0]),
        st.lists(st.sampled_from(["recovery", "sorted rows", "rows"]), min_size=2, max_size=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_shared_is_bitwise_fresh(self, m, n, d, sort, scale, calls, seed):
        # at scale 20 the recovery and the rows fall back to the dense path,
        # unsorted 2-D atoms and unsorted values need pivots; whatever a call
        # does, the shared staircase answers the next as a fresh one does
        r = np.random.default_rng(seed)
        x, y = scale * r.random((m, d)), scale * r.random((n, d))
        if sort:
            x, y = np.sort(x, axis=0), np.sort(y, axis=0)
        a, b = r.random(m) + 0.05, r.random(n) + 0.05
        mu = EmpiricalMeasure(atoms=x, weights=a / a.sum())
        nu = EmpiricalMeasure(atoms=y, weights=b / b.sum())
        shared = transport._TLpPair(mu, nu)
        for call in calls:
            if call == "recovery":
                v = r.normal(size=n)
                fresh = transport._TLpPair(mu, nu)
                got = _outcome(lambda: _recovery_bits(shared.recovery, v))
                assert got == _outcome(lambda: _recovery_bits(fresh.recovery, v))
            else:
                U, V = _value_rows(r, 2, m, call == "sorted rows"), _value_rows(r, 2, n, True)
                fresh = transport._TLpPair(mu, nu)
                got = _outcome(lambda: shared.distances(U, V).tolist())
                assert got == _outcome(lambda: fresh.distances(U, V).tolist())

    def test_kept_staircase_holds_no_m_by_n_array(self):
        # its cells, flows and spatial costs, the plan's row and column sums
        # and the atoms' squared norms: below a quarter of one 128 x 1024
        # float64 array, after a distance and a recovery
        x, y = (np.arange(128) + 0.5) / 128, (np.arange(1024) + 0.5) / 1024
        mu, nu = uniform_measure(x), uniform_measure(y)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            staircase = transport._TLpPair(mu, nu)
            staircase.distances(np.cos(np.pi * x)[None], np.cos(np.pi * y)[None])
            staircase.recovery(np.cos(np.pi * y))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 128 * 1024 * 8 / 4

    def test_perturbed_flow_trips_the_marginal_check(self, monkeypatch):
        corner = transport._northwest_corner

        def perturbed(a, b):
            i, j, flow, flow_eps = corner(a, b)
            flow[len(flow) // 2] += 1e-8
            return i, j, flow, flow_eps

        monkeypatch.setattr(transport, "_northwest_corner", perturbed)
        x = (np.arange(16) + 0.5) / 16
        mu, nu = uniform_measure(x), uniform_measure(np.sort(np.random.default_rng(0).random(24)))
        f, g = np.cos(np.pi * x), np.zeros(24)
        for solve in (lambda: transport._TLpPair(mu, nu),
                      lambda: tlp_distances(mu, nu, f[None], g[None], 2.0),
                      lambda: tlp_distance(TLpPoint(mu, f), TLpPoint(nu, g), 3.0)):
            with pytest.raises(PreconditionError, match="plan marginals off by"):
                solve()


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_tlp_allocates_three_cost_sized_arrays():
    # 128 x 1024 cells of float64 are 1 MiB: the spatial part, the cost and
    # the plan make 3 MiB, and the blocked reduced-cost test adds 1/8 MiB.
    # At p = 2 the batch forms no m x n array: a block of reduced costs and
    # the staircase's O(m + n) vectors, about 1/4 MiB
    x, y = (np.arange(128) + 0.5) / 128, (np.arange(1024) + 0.5) / 1024
    a = TLpPoint(uniform_measure(x), np.cos(np.pi * x))
    b = TLpPoint(uniform_measure(y), np.cos(np.pi * y))
    tlp_distance(a, b, 2.0)
    assert _peak_mib(lambda: tlp_distance(a, b, 2.0)) < 3.25
    for p, bound in [(3.0, 3.25), (2.0, 0.3)]:
        rows = []
        for k in (1, 6):
            U, V = np.tile(a.values, (k, 1)), np.tile(b.values, (k, 1))
            rows.append(_peak_mib(lambda: tlp_distances(a.measure, b.measure, U, V, p)))
        assert rows[0] < bound
        assert rows[1] - rows[0] < 0.01  # the row buffers are reused, never stacked


def test_certified_recovery_forms_only_the_plan(monkeypatch):
    # the staircase plan is 1 MiB at 128 x 1024; the product test's block
    # adds 1/8 MiB and the cells' vectors a few KiB, below a second m x n
    # array.  The plan path forms the spatial part and the cost as well
    monkeypatch.setattr(transport, "wasserstein", _no_fallback)
    x, y = (np.arange(128) + 0.5) / 128, (np.arange(1024) + 0.5) / 1024
    mu, nu = uniform_measure(x), uniform_measure(y)
    v = np.cos(np.pi * y)
    _pair_recovery(mu, nu, v, 2.0)
    assert _peak_mib(lambda: _pair_recovery(mu, nu, v, 2.0)) < 1.5

"""Stacking instances, axiom probes, and convergence/compactness evidence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gfstack
from gfstack.convex import quadratic_functional
from gfstack.errors import ConstructionError, PreconditionError
from gfstack.stacking import (
    LIMIT,
    CircleStacking,
    EnergySequence,
    IndexedSequence,
    MatrixHilbertStacking,
    SubspaceStacking,
    TLpStacking,
    check_stacking_axioms,
    circle_minimizer_fixture,
    equicoercivity_probe,
    escaping_sequence_fixture,
    gamma_liminf_check,
    recovery_sequence,
    stacking_distance,
)
from gfstack.transport import barycentric_map, tlp_distance, uniform_measure, wasserstein

SIZES = [4, 8, 16, 32, 64]


def matrix_stack(sizes=SIZES):
    mats = {n: (1.0 + 1.0 / n) * np.eye(2) for n in sizes}
    mats[LIMIT] = np.eye(2)
    return MatrixHilbertStacking(mats)


def grid_tlp_stack(sizes, fine_mult=4, p=2.0):
    meas = {n: uniform_measure(((np.arange(n) + 0.5) / n)[:, None]) for n in sizes}
    fine = fine_mult * max(sizes)
    meas[LIMIT] = uniform_measure(((np.arange(fine) + 0.5) / fine)[:, None])
    return TLpStacking(meas, p=p)


class TestStackingDistance:
    def test_identity_matrix_is_euclidean(self):
        s = matrix_stack()
        assert stacking_distance(s, LIMIT, [3.0, 4.0], LIMIT, [0.0, 0.0]) == pytest.approx(5.0)

    def test_matrix_root_scaling(self):
        s = MatrixHilbertStacking({1: np.diag([4.0, 1.0]), LIMIT: np.eye(2)})
        assert stacking_distance(s, 1, [1.0, 0.0], 1, [0.0, 0.0]) == pytest.approx(2.0)

    def test_tlp_instance_matches_direct_distance(self):
        mu = uniform_measure([[0.0], [1.0]])
        s = TLpStacking({2: mu, LIMIT: mu}, p=1.0)
        u, v = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        direct, _ = tlp_distance(s.embed(2, u), s.embed(2, v), 1.0)
        assert direct == pytest.approx(1.0)
        # the first call solves, the repeat reads the memo: both bitwise the direct value
        assert stacking_distance(s, 2, u, 2, v) == direct
        assert stacking_distance(s, 2, u, 2, v) == direct

    @pytest.mark.parametrize("p", [0.5, np.inf, np.nan])
    def test_tlp_exponent_finite_and_at_least_one(self, p):
        with pytest.raises(ConstructionError):
            TLpStacking({LIMIT: uniform_measure([[0.0], [1.0]])}, p=p)

    def test_cross_index_triangle_inequality(self, rng):
        s = matrix_stack()
        for _ in range(20):
            na, nb, nc = rng.choice(SIZES, size=3)
            xa, xb, xc = rng.normal(size=(3, 2))
            dac = stacking_distance(s, na, xa, nc, xc)
            dab = stacking_distance(s, na, xa, nb, xb)
            dbc = stacking_distance(s, nb, xb, nc, xc)
            assert dac <= dab + dbc + 1e-12

    def test_embedding_one_lipschitz_sampled(self, rng):
        s = grid_tlp_stack([4, 8])
        for n in (4, 8):
            for _ in range(5):
                x, y = rng.normal(size=n), rng.normal(size=n)
                assert stacking_distance(s, n, x, n, y) <= s.norm(n, x - y) + 1e-9


class TestTLpMemo:
    """A TL^p stacking solves each distinct transport problem once."""

    @staticmethod
    def count_solves(monkeypatch):
        """Record each problem handed to _tlp_plans, to a _TL2Staircase's
        distances or recovery (p = 2) or to the recoveries' _spatial_recovery
        (other p), a recovery as the TL^p problem of the zero functions, the
        W_p problem it solves.

        A problem that one of them passes on to another is counted once.
        """
        import gfstack.stacking as stacking
        import gfstack.transport as transport

        calls, inside = [], []

        def rows(mu, nu, U, V, p=2.0):
            arrays = (mu.atoms, mu.weights, nu.atoms, nu.weights, np.asarray(U), np.asarray(V))
            return (p,) + tuple((a.shape, a.tobytes()) for a in arrays)

        def spatial(mu, nu, target_values, p):
            return rows(mu, nu, np.zeros((1, mu.n_atoms)), np.zeros((1, nu.n_atoms)), p)

        def counting(solve, problem):
            def counted(*args):
                if not inside:
                    calls.append(problem(*args))
                inside.append(solve)
                try:
                    return solve(*args)
                finally:
                    inside.pop()

            return counted

        monkeypatch.setattr(transport, "_tlp_plans", counting(transport._tlp_plans, rows))
        staircase = transport._TL2Staircase
        monkeypatch.setattr(staircase, "distances", counting(
            staircase.distances, lambda st, U, V: rows(st.mu, st.nu, U, V)))
        monkeypatch.setattr(staircase, "recovery", counting(
            staircase.recovery, lambda st, v: spatial(st.mu, st.nu, v, 2.0)))
        monkeypatch.setattr(stacking, "_spatial_recovery", counting(transport._spatial_recovery, spatial))
        return calls

    def test_recovery_points_match_direct_plans(self):
        sizes = [4, 8, 16]
        s = grid_tlp_stack(sizes)
        nu = s.measures[LIMIT]
        uinf = np.sin(np.pi * nu.atoms[:, 0])
        direct = {}
        for n in sizes:
            _, plan = wasserstein(s.measures[n], nu, s.p)
            direct[n] = barycentric_map(plan, uinf), plan.stagnation_cost
        for _ in range(2):  # a first call and a repeat
            for n in sizes:
                assert np.array_equal(s.approximating_point(n, LIMIT, uinf), direct[n][0])
        e = EnergySequence(functionals={n: (lambda u: 0.0) for n in sizes + [LIMIT]})
        for _ in range(2):
            rep = recovery_sequence(e, s, uinf, sizes)
            for n, x, cost in zip(sizes, rep.points, rep.stagnation_costs):
                assert np.array_equal(x, direct[n][0])
                assert cost == direct[n][1]

    def test_zero_gap_reads_the_spatial_solve(self, monkeypatch):
        s = grid_tlp_stack([4, 8])
        calls = self.count_solves(monkeypatch)
        s.approximating_point(8, LIMIT, np.ones(32))
        d = stacking_distance(s, 8, s.zero(8), LIMIT, s.zero(LIMIT))
        assert len(calls) == 1
        assert d == wasserstein(s.measures[8], s.measures[LIMIT], s.p)[0]

    def test_mutating_a_returned_point_changes_no_later_result(self):
        s = grid_tlp_stack([4, 8])
        uinf = np.linspace(-1.0, 1.0, 32)
        first = s.approximating_point(8, LIMIT, uinf)
        kept = first.copy()
        first[:] = 99.0
        assert np.array_equal(s.approximating_point(8, LIMIT, uinf), kept)
        e = EnergySequence(functionals={n: (lambda u: 0.0) for n in (4, 8, LIMIT)})
        rep = recovery_sequence(e, s, uinf, [8])
        rep.points[0][:] = -99.0
        assert np.array_equal(recovery_sequence(e, s, uinf, [8]).points[0], kept)

    def test_changed_p_or_measure_solves_afresh(self, monkeypatch):
        s = grid_tlp_stack([4, 8])
        u, v = np.linspace(0.0, 1.0, 8), np.cos(np.arange(32.0))
        calls = self.count_solves(monkeypatch)
        d2 = stacking_distance(s, 8, u, LIMIT, v)
        s.approximating_point(8, LIMIT, v)
        assert len(calls) == 2
        s.p = 1.0
        d1 = stacking_distance(s, 8, u, LIMIT, v)
        x1 = s.approximating_point(8, LIMIT, v)
        assert len(calls) == 4
        assert d1 == tlp_distance(s.embed(8, u), s.embed(LIMIT, v), 1.0)[0] != d2
        _, plan = wasserstein(s.measures[8], s.measures[LIMIT], 1.0)
        assert np.array_equal(x1, barycentric_map(plan, v))
        shifted = uniform_measure(s.measures[8].atoms + 0.25)
        s.measures[8] = shifted
        solved = len(calls)
        d = stacking_distance(s, 8, u, LIMIT, v)
        x = s.approximating_point(8, LIMIT, v)
        assert len(calls) == solved + 2
        assert d == tlp_distance(s.embed(8, u), s.embed(LIMIT, v), 1.0)[0] != d1
        _, plan = wasserstein(shifted, s.measures[LIMIT], 1.0)
        assert np.array_equal(x, barycentric_map(plan, v))

    def test_stacking_audit_solves_each_problem_once(self, monkeypatch):
        from gfstack.experiments import ExperimentConfig, run_stacking_audit

        calls = self.count_solves(monkeypatch)
        run_stacking_audit(ExperimentConfig(kind="stacking_audit", sizes=(16, 32, 64, 128), seed=0))
        assert len(calls) == len(set(calls)) == 30

    def test_memo_holds_no_dense_plan(self):
        import gc
        import tracemalloc

        s = grid_tlp_stack([128])  # a 512-atom limit measure
        x, y = s.measures[128].atoms[:, 0], s.measures[LIMIT].atoms[:, 0]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(1, 11):  # ten distinct problems of each kind, twenty calls
                s.approximating_point(128, LIMIT, np.sin(k * y))
                stacking_distance(s, 128, k * x, LIMIT, k * y)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 128 * 512 * 8


class TestAxiomChecks:
    def test_matrix_family_fixed_vector(self):
        s = matrix_stack()
        x = np.array([1.0, -2.0])
        seq = IndexedSequence(indices=SIZES, points=[x] * len(SIZES), limit_point=x)
        seq2 = IndexedSequence(indices=SIZES,
                               points=[0.5 * x + 1.0 / n for n in SIZES],
                               limit_point=0.5 * x)
        rep = check_stacking_axioms(s, [seq, seq2], decay_tol=0.2)
        assert rep.ok
        want = [abs(np.sqrt(1 + 1 / n) - 1.0) * np.linalg.norm(x) for n in SIZES]
        assert np.allclose(rep.norm_gaps[0], want, atol=1e-12)

    def test_constant_sequence_trivially_passes(self):
        s = SubspaceStacking(ambient_dim=3, dims={**{n: 3 for n in SIZES}, LIMIT: 3})
        x = np.array([1.0, 2.0, 3.0])
        seq = IndexedSequence(indices=SIZES, points=[x] * len(SIZES), limit_point=x)
        rep = check_stacking_axioms(s, [seq], decay_tol=1e-12)
        assert rep.ok

    def test_zero_convergence(self):
        s = grid_tlp_stack([4, 8, 16, 32])
        seq = IndexedSequence(indices=[4, 8, 16, 32],
                              points=[np.zeros(n) for n in (4, 8, 16, 32)],
                              limit_point=np.zeros(128))
        rep = check_stacking_axioms(s, [seq], decay_tol=0.1)
        assert np.all(np.diff(rep.zero_gaps) < 0)
        assert rep.zero_gaps[-1] < 0.02

    def test_tlp_barycentric_recovery_norms(self):
        sizes = [4, 8, 16, 32]
        s = grid_tlp_stack(sizes)
        uinf = s.measures[LIMIT].atoms[:, 0].copy()  # u(x) = x
        pts = [s.approximating_point(n, LIMIT, uinf) for n in sizes]
        seq = IndexedSequence(indices=sizes, points=pts, limit_point=uinf)
        rep = check_stacking_axioms(s, [seq, seq], decay_tol=2.0 / sizes[-1])
        assert rep.ok
        assert np.all(np.diff(rep.approx_gaps[0]) < 0)
        # gap scales like the grid spacing
        assert rep.approx_gaps[0][-1] <= 4.0 * rep.approx_gaps[0][0] / (sizes[-1] / sizes[0])

    def test_matrix_eigenvalue_floor(self):
        with pytest.raises(ConstructionError):
            MatrixHilbertStacking({1: np.diag([1.0, 0.0]), LIMIT: np.eye(2)})
        with pytest.raises(ConstructionError):
            MatrixHilbertStacking({1: np.array([[1.0, 0.5], [0.4, 1.0]]), LIMIT: np.eye(2)})


class TestGammaLiminf:
    def test_constant_family_by_continuity(self):
        s = matrix_stack()
        q = quadratic_functional(lam=1.0, dim=2)
        e = EnergySequence(functionals={**{n: q for n in SIZES}, LIMIT: q})
        x = np.array([1.0, -2.0])
        seq = IndexedSequence(indices=SIZES, points=[x + 1.0 / n**2 for n in SIZES],
                              limit_point=x)
        rep = gamma_liminf_check(e, s, seq, tol=1e-2)
        assert rep.ok

    def test_dirichlet_family_over_grids(self):
        from gfstack.experiments import (
            bandwidth,
            fine_grid_dirichlet,
            line_measure,
            neighborhood_graph_energy,
        )

        sizes = [8, 16, 32, 64]
        s = grid_tlp_stack(sizes)
        funcs = {n: neighborhood_graph_energy(line_measure(n), bandwidth(n)).to_functional()
                 for n in sizes}
        funcs[LIMIT] = fine_grid_dirichlet(s.measures[LIMIT]).to_functional()
        e = EnergySequence(functionals=funcs)
        uinf = np.cos(np.pi * s.measures[LIMIT].atoms[:, 0])
        pts = [s.approximating_point(n, LIMIT, uinf) for n in sizes]
        seq = IndexedSequence(indices=sizes, points=pts, limit_point=uinf)
        rep = gamma_liminf_check(e, s, seq, tol=0.15)
        assert rep.ok
        assert np.all(np.diff(rep.distances) < 0)

    def test_broken_scaling_negative_control(self):
        s = matrix_stack()
        q = quadratic_functional(lam=1.0, dim=2)
        bad = {n: (lambda n: (lambda u: q.evaluate(u) / n))(n) for n in SIZES}
        bad[LIMIT] = q
        e = EnergySequence(functionals=bad)
        x = np.array([1.0, -2.0])
        seq = IndexedSequence(indices=SIZES, points=[x + 1.0 / n**2 for n in SIZES],
                              limit_point=x)
        rep = gamma_liminf_check(e, s, seq, tol=1e-3)
        assert not rep.ok


class TestRecoverySequence:
    def test_constant_measure_diagonal_plans(self):
        s = TLpStacking({**{n: uniform_measure([[0.0], [1.0]]) for n in (1, 2, 3)},
                         LIMIT: uniform_measure([[0.0], [1.0]])}, p=2.0)
        q = quadratic_functional(lam=1.0, dim=2, weights=[0.5, 0.5])
        e = EnergySequence(functionals={**{n: q for n in (1, 2, 3)}, LIMIT: q})
        rep = recovery_sequence(e, s, [0.3, -0.4], [1, 2, 3])
        assert rep.ok
        for pt in rep.points:
            assert np.allclose(pt, [0.3, -0.4])
        assert rep.limsup_estimate == pytest.approx(rep.limit_value)

    def test_heat_grids_energy_limsup(self):
        from gfstack.experiments import fine_grid_dirichlet, line_measure

        sizes = [8, 16, 32, 64]
        s = grid_tlp_stack(sizes, fine_mult=8)
        fine_phi = fine_grid_dirichlet(s.measures[LIMIT]).to_functional()
        funcs = {n: fine_grid_dirichlet(s.measures[n]).to_functional() for n in sizes}
        funcs[LIMIT] = fine_phi
        e = EnergySequence(functionals=funcs)
        uinf = np.cos(np.pi * s.measures[LIMIT].atoms[:, 0])
        rep = recovery_sequence(e, s, uinf, sizes, tol=0.05)
        assert rep.ok
        assert np.all(np.diff(rep.stagnation_costs) < 0)
        assert np.all(np.diff(rep.distances) < 0)

    def test_infinite_limit_value_vacuous(self):
        s = grid_tlp_stack([2, 4])
        funcs = {2: lambda u: 1.0, 4: lambda u: 2.0, LIMIT: lambda u: np.inf}
        e = EnergySequence(functionals=funcs)
        rep = recovery_sequence(e, s, np.zeros(16), [2, 4])
        assert rep.ok

    def test_requires_transport_stacking(self):
        s = matrix_stack()
        e = EnergySequence(functionals={LIMIT: lambda u: 0.0})
        with pytest.raises(PreconditionError):
            recovery_sequence(e, s, np.zeros(2), [4])


class TestEquicoercivity:
    def test_constant_sequence_cauchy(self):
        s = matrix_stack()
        e = EnergySequence(functionals={**{n: (lambda u: 0.0) for n in SIZES},
                                        LIMIT: lambda u: 0.0})
        cands = [(n, np.array([0.3, 0.3])) for n in SIZES]
        rep = equicoercivity_probe(e, s, 1.0, cands, tol=0.05)
        assert rep.tail_cauchy

    def test_sublevel_bound_validated(self):
        s = matrix_stack()
        e = EnergySequence(functionals={**{n: (lambda u: 5.0) for n in SIZES},
                                        LIMIT: lambda u: 5.0})
        with pytest.raises(PreconditionError):
            equicoercivity_probe(e, s, 1.0, [(4, np.zeros(2))], tol=0.1)

    def test_escaping_negative_control(self):
        s, e, cands = escaping_sequence_fixture(SIZES)
        rep = equicoercivity_probe(e, s, 1.0, cands, tol=1.0)
        assert not rep.tail_cauchy
        # distances grow linearly along the escape
        d = rep.distance_matrix
        assert d[0, -1] == pytest.approx(abs(SIZES[-1] - SIZES[0]))

    def test_circle_fixture_minimizers_do_not_converge(self):
        s, e, mins = circle_minimizer_fixture([2, 4, 8, 16, 32, 64])
        rep = equicoercivity_probe(e, s, 0.0, mins, tol=0.05,
                                   limit_candidate=np.array([0.0]))
        # embedded minimizers bunch up (Cauchy) yet stay away from the
        # embedded limit minimizer: distances approach 1, not 0
        assert rep.tail_cauchy
        assert not rep.limit_attained
        assert rep.limit_distances[-1] > 0.9

    def test_bounded_heat_states_cluster(self):
        from gfstack.experiments import bandwidth, line_measure, neighborhood_graph_energy
        from gfstack.flow import gradient_flow

        sizes = [8, 16, 32]
        s = grid_tlp_stack(sizes)
        funcs, cands = {}, []
        for n in sizes:
            phi = neighborhood_graph_energy(line_measure(n), bandwidth(n)).to_functional()
            funcs[n] = phi
            u0 = s.approximating_point(n, LIMIT,
                                       np.cos(np.pi * s.measures[LIMIT].atoms[:, 0]))
            fl = gradient_flow(phi, u0, np.array([0.0, 0.25]), 1e-7)
            cands.append((n, fl.trajectory.states[-1]))
        funcs[LIMIT] = lambda u: 0.0
        e = EnergySequence(functionals=funcs)
        c = max(funcs[n].evaluate(x) for n, x in cands) + 1e-9
        rep = equicoercivity_probe(e, s, c, cands, tol=0.2)
        assert rep.tail_cauchy

    def test_stacking_audit_loads_no_scipy(self):
        # the library is numpy only at run time: a fresh interpreter that runs
        # every experiment kind and a graph prox must end scipy-free
        code = ("import sys\n"
                "import numpy as np\n"
                "from gfstack import ExperimentConfig, run_experiment\n"
                "from gfstack.energies import GraphEnergy, graph_prox\n"
                "from gfstack.experiments import KINDS\n"
                "for kind in KINDS:\n"
                "    run_experiment(ExperimentConfig(kind=kind, sizes=(8, 16)))\n"
                "A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])\n"
                "graph_prox(GraphEnergy(adjacency=A), 0.5, [1.0, -1.0, 0.5])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = str(Path(gfstack.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "[]"


class TestUniformLowerBoundAndMinimizers:
    def test_strongly_convex_family_minima_uniformly_bounded(self):
        # prox fixed points locate the minimizers; minima stay within a band
        from gfstack.convex import prox

        s = matrix_stack()
        minima = []
        for n in SIZES + [LIMIT]:
            shift = 0.0 if n == LIMIT else 1.0 / n
            q = quadratic_functional(lam=1.0, dim=2)
            phi = type(q)(dim=2, value=lambda u, s=shift: q.evaluate(u - s) + s,
                          lam=1.0, weights=q.weights, gradient=lambda u, s=shift: u - s)
            y = np.zeros(2)
            for _ in range(60):
                y = prox(phi, 5.0, y)
            minima.append(phi.evaluate(y))
        assert max(minima) - min(minima) <= 1.0
        assert min(minima) >= 0.0

    def test_minimizer_convergence_over_stacking(self):
        # equicoercive strongly convex family: argmins computed through prox
        # fixed points track the limit argmin, and the minima converge
        from gfstack.convex import ProperFunctional, prox

        s = matrix_stack()

        def shifted(n):
            c = np.array([1.0 + (0.0 if n == LIMIT else 1.0 / n), -1.0])
            val = lambda u: 0.5 * float(np.sum(0.5 * (u - c) ** 2)) + (0.0 if n == LIMIT else 1.0 / n)
            return ProperFunctional(dim=2, value=val, lam=1.0, weights=[0.5, 0.5],
                                    prox_closed_form=lambda g, x: (x + g * c) / (1.0 + g))

        def argmin(phi):
            y = np.zeros(2)
            for _ in range(200):
                y = prox(phi, 4.0, y)
            return y

        mins, dists = [], []
        lim_phi = shifted(LIMIT)
        lim_argmin = argmin(lim_phi)
        assert np.allclose(lim_argmin, [1.0, -1.0], atol=1e-10)
        for n in SIZES:
            phi = shifted(n)
            y = argmin(phi)
            dists.append(stacking_distance(s, n, y, LIMIT, lim_argmin))
            mins.append(phi.evaluate(y))
        assert np.all(np.diff(dists) < 0)
        assert dists[-1] < 0.05
        gaps = np.abs(np.asarray(mins) - lim_phi.evaluate(lim_argmin))
        assert np.all(np.diff(gaps) < 0) and gaps[-1] < 0.02


class TestCircleStacking:
    def test_angle_map_one_lipschitz(self, rng):
        s = CircleStacking()
        for _ in range(50):
            x, y = rng.normal(size=2) * 5
            assert s.distance(s.embed(0, [x]), s.embed(0, [y])) <= abs(x - y) + 1e-12

    def test_escaping_points_bunch_on_circle(self):
        s = CircleStacking()
        d = s.distance(s.embed(0, [1e6]), s.embed(0, [2e6]))
        assert d < 1e-6  # compactification squeezes far points together

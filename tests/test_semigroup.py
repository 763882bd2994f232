"""Resolvent iteration, exponential-formula certificates, accretivity checks."""

import time

import numpy as np
import pytest

from gfstack import semigroup
from gfstack.convex import abs_functional, check_admissible, quadratic_functional
from gfstack.errors import IntervalError, PreconditionError, SolverDiagnosticError
from gfstack.flow import gradient_flow
from gfstack.semigroup import (
    ResolventOperator,
    Trajectory,
    check_accretive,
    crandall_liggett,
    eps_approximate_solution,
    resolvent_from_functional,
    resolvent_iterate,
    semigroup_contraction_check,
)


@pytest.fixture
def quad_resolvent():
    return resolvent_from_functional(quadratic_functional(lam=1.0))


@pytest.fixture
def zero_resolvent():
    return ResolventOperator(dim=2, omega=0.0, resolve=lambda lam, x: x,
                             inf_norm_A=lambda x: 0.0, name="zero")


class TestResolventIterate:
    def test_quadratic_four_steps(self, quad_resolvent):
        got = resolvent_iterate(quad_resolvent, 1.0, 4, 1.0)
        assert abs(got[0] - 1.25**-4) < 1e-14
        assert abs(got[0] - 0.4096) < 1e-12

    def test_zero_operator_identity(self, zero_resolvent):
        assert np.allclose(resolvent_iterate(zero_resolvent, 3.0, 7, [1.0, -2.0]), [1.0, -2.0])

    def test_hundred_steps_near_flow(self, quad_resolvent):
        got = resolvent_iterate(quad_resolvent, 1.0, 100, 1.0)[0]
        assert abs(got - 1.01**-100) < 1e-12
        assert abs(got - np.exp(-1.0)) < 0.003664

    def test_step_interval_enforced(self):
        R = ResolventOperator(dim=1, omega=2.0, resolve=lambda lam, x: x / (1 - 2 * lam))
        with pytest.raises(IntervalError):
            resolvent_iterate(R, 10.0, 4, 1.0)  # step 2.5 >= 1/omega = 0.5
        resolvent_iterate(R, 1.0, 4, 1.0)  # step 0.25 admissible

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_step_is_interval_error(self, quad_resolvent, zero_resolvent, t):
        # at omega <= 0 the interval is (0, inf), which holds neither NaN nor inf
        for R in (quad_resolvent, zero_resolvent):
            with pytest.raises(IntervalError):
                check_admissible(t, R.omega)
            with pytest.raises(IntervalError):
                resolvent_iterate(R, t, 4, np.ones(R.dim))

    def test_closed_form_power_matches_explicit(self, quad_resolvent):
        q = quadratic_functional(lam=1.0)
        bare = resolvent_from_functional(
            type(q)(dim=1, value=q.value, lam=1.0, weights=q.weights,
                    prox_closed_form=q.prox_closed_form)
        )
        for n in (4, 16, 64, 256):
            a = resolvent_iterate(quad_resolvent, 0.7, n, 1.3)
            b = resolvent_iterate(bare, 0.7, n, 1.3)
            assert np.allclose(a, b, atol=1e-13)

    def test_soft_threshold_power_matches_explicit(self):
        a = abs_functional()
        full = resolvent_from_functional(a)
        bare = resolvent_from_functional(
            type(a)(dim=1, value=a.value, lam=0.0, weights=a.weights,
                    prox_closed_form=a.prox_closed_form)
        )
        for n in (3, 9, 31):
            u = resolvent_iterate(full, 1.5, n, 2.0)
            v = resolvent_iterate(bare, 1.5, n, 2.0)
            assert np.allclose(u, v, atol=1e-14)


class TestCrandallLiggett:
    def test_quadratic_certified(self, quad_resolvent):
        u, cert = crandall_liggett(quad_resolvent, 1.0, 1.0, 1e-3)
        assert abs(u[0] - np.exp(-1.0)) < 1e-3
        assert cert.certified and cert.value <= 1e-3

    def test_zero_operator_certificate_zero(self, zero_resolvent):
        u, cert = crandall_liggett(zero_resolvent, 5.0, [1.0, 2.0], 1e-9)
        assert np.allclose(u, [1.0, 2.0])
        assert cert.value == 0.0 and cert.certified

    def test_fixed_point(self, quad_resolvent):
        u, cert = crandall_liggett(quad_resolvent, 1.0, 0.0, 1e-9)
        assert u[0] == 0.0

    def test_doubling_path_uncertified(self):
        # no inf-norm evaluator: a-posteriori doubling with the tol estimate
        R = ResolventOperator(dim=1, omega=-1.0, resolve=lambda lam, x: x / (1 + lam))
        u, cert = crandall_liggett(R, 1.0, 1.0, 1e-5)
        assert not cert.certified
        assert abs(u[0] - np.exp(-1.0)) < 1e-5

    def test_doubling_estimate_decays(self):
        R = ResolventOperator(dim=1, omega=-1.0, resolve=lambda lam, x: x / (1 + lam))
        x = np.array([1.0])
        gaps = []
        n = 8
        prev = resolvent_iterate(R, 1.0, n, x)
        for _ in range(8):
            nxt = resolvent_iterate(R, 1.0, 2 * n, x)
            gaps.append(abs(nxt[0] - prev[0]))
            prev, n = nxt, 2 * n
        assert np.all(np.diff(gaps) < 0)

    def test_doubling_cap_reports_last_gap(self, monkeypatch):
        # tol = 1e-300 is out of reach, so doubling runs into the cap: 8 -> 16 -> 32 -> 64
        monkeypatch.setattr(semigroup, "DOUBLING_CAP", 64)
        R = ResolventOperator(dim=1, omega=-1.0, resolve=lambda lam, x: x / (1 + lam))
        x = np.array([1.0])
        start = time.perf_counter()
        with pytest.raises(SolverDiagnosticError) as info:
            crandall_liggett(R, 1.0, x, 1e-300)
        assert time.perf_counter() - start < 2.0
        y32, y64 = resolvent_iterate(R, 1.0, 32, x), resolvent_iterate(R, 1.0, 64, x)
        assert info.value.residual == R.norm(y64 - y32)
        assert 0.0 < info.value.residual < np.inf
        assert np.array_equal(info.value.last_iterate, y64)

    def test_doubling_cap_before_first_gap(self, monkeypatch):
        monkeypatch.setattr(semigroup, "DOUBLING_CAP", 8)
        R = ResolventOperator(dim=1, omega=-1.0, resolve=lambda lam, x: x / (1 + lam))
        with pytest.raises(SolverDiagnosticError) as info:
            crandall_liggett(R, 1.0, 1.0, 1e-300)
        assert info.value.residual == np.inf

    def test_apriori_cap_raises_before_iterating(self, monkeypatch):
        # M = 2, t = 1, omega = 1/4 and tol = 1e-2 ask for
        # n = ceil((2 t M e^{4 omega t} / tol)^2), about 1.2e6 > 64 applications;
        # with no closed-form iterate that is refused before any is made
        monkeypatch.setattr(semigroup, "DOUBLING_CAP", 64)
        t, M, omega = 1.0, 2.0, 0.25
        calls = []
        R = ResolventOperator(dim=1, omega=omega,  # A x = -omega x
                              resolve=lambda lam, x: calls.append(lam) or x / (1 - omega * lam),
                              inf_norm_A=lambda x: M * float(np.abs(x[0])))
        x = np.array([1.0])
        start = time.perf_counter()
        with pytest.raises(SolverDiagnosticError, match="a-priori certificate") as info:
            crandall_liggett(R, t, x, 1e-2)
        assert time.perf_counter() - start < 2.0
        assert calls == []
        assert info.value.residual == 2.0 * t * M * semigroup._cert_exponent(omega, t)
        assert np.array_equal(info.value.last_iterate, x)

    def test_time_zero(self, quad_resolvent):
        u, cert = crandall_liggett(quad_resolvent, 0.0, 0.7, 1e-9)
        assert u[0] == 0.7 and cert.value == 0.0

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_is_interval_error(self, quad_resolvent, zero_resolvent, t):
        # both the a-priori path and the doubling path refuse before any work
        bare = ResolventOperator(dim=1, omega=-1.0, resolve=lambda lam, x: x / (1 + lam))
        for R in (quad_resolvent, zero_resolvent, bare):
            with pytest.raises(IntervalError):
                crandall_liggett(R, t, np.zeros(R.dim), 1e-6)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-6])
    def test_tol_not_finite_positive_is_precondition_error(self, quad_resolvent, tol):
        with pytest.raises(PreconditionError):
            crandall_liggett(quad_resolvent, 1.0, 1.0, tol)


class TestCheckAccretive:
    def test_gradient_pairs_pass(self):
        pairs = [((np.array([x]), np.array([x])), (np.array([xh]), np.array([xh])))
                 for x, xh in [(1.0, 0.0), (2.0, -1.0), (0.3, 0.2)]]
        rep = check_accretive(pairs, omega=-1.0, lambdas=[0.25, 0.5])
        assert rep.ok and rep.n_checked == 6

    def test_empty_graph_vacuous(self):
        rep = check_accretive([], omega=0.0, lambdas=[1.0, 2.0])
        assert rep.ok and rep.n_checked == 0

    def test_negated_identity_violates(self):
        pairs = [((np.array([1.0]), np.array([-1.0])), (np.array([0.0]), np.array([0.0])))]
        rep = check_accretive(pairs, omega=0.0, lambdas=[1.0])
        assert not rep.ok
        # || (x - xh) - (x - xh) || = 0 < ||x - xh|| = 1
        assert abs(rep.violations[0][-1] - 1.0) < 1e-12

    def test_lambda_interval_validated(self):
        with pytest.raises(IntervalError):
            check_accretive([], omega=2.0, lambdas=[1.0])

    @pytest.mark.parametrize("omega", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("lam", [np.nan, np.inf])
    def test_non_finite_lambda_is_interval_error(self, omega, lam):
        with pytest.raises(IntervalError):
            check_accretive([], omega=omega, lambdas=[0.25, lam])


class TestEpsApproximateSolution:
    def test_quadratic_uniform_partition(self, quad_resolvent):
        traj = eps_approximate_solution(quad_resolvent, np.linspace(0, 1, 5), 1.0)
        assert np.allclose(traj.states[:, 0], [1.0, 0.8, 0.64, 0.512, 0.4096])

    def test_zero_operator_constant(self, zero_resolvent):
        traj = eps_approximate_solution(zero_resolvent, [0.0, 0.3, 0.9], [2.0, -1.0])
        assert np.allclose(traj.states, [[2.0, -1.0]] * 3)

    def test_first_order_accuracy(self, quad_resolvent):
        traj = eps_approximate_solution(quad_resolvent, np.linspace(0, 1, 1001), 1.0)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 2e-4

    def test_partition_must_start_at_zero(self, quad_resolvent):
        with pytest.raises(PreconditionError):
            eps_approximate_solution(quad_resolvent, [0.1, 0.4], 1.0)

    @pytest.mark.parametrize("partition", [[0.0, np.nan], [0.0, 0.5, np.inf], [0.0, np.inf],
                                           [0.0, np.nan, 1.0]],
                             ids=["nan-end", "inf-end", "inf-only", "nan-inside"])
    def test_non_finite_partition_is_precondition_error(self, partition):
        # refused before any resolvent step
        calls = []
        R = ResolventOperator(dim=1, omega=0.0, resolve=lambda lam, x: calls.append(lam) or x)
        with pytest.raises(PreconditionError, match="finite"):
            eps_approximate_solution(R, partition, 1.0)
        assert calls == []


class TestTrajectory:
    @pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, np.inf], [-np.inf, 0.0],
                                       [np.nan, np.nan]],
                             ids=["nan-end", "inf-end", "minus-inf-start", "all-nan"])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(PreconditionError, match="finite"):
            Trajectory(times=times, states=[[1.0], [1.0]])

    def test_times_must_increase(self):
        with pytest.raises(PreconditionError):
            Trajectory(times=[0.0, 0.0], states=[[1.0], [1.0]])
        Trajectory(times=[0.0, 0.5], states=[[1.0], [1.0]])


class TestSemigroupStructure:
    def test_contraction_quadratic_tight(self, quad_resolvent):
        q = quadratic_functional(lam=1.0)
        (rep,) = semigroup_contraction_check(quad_resolvent, *(gradient_flow(q, z, [1.0], 1e-8)
                                                               for z in (1.0, 0.0)))
        assert rep.ok
        # the linear flow contracts exactly at rate e^{-t}
        assert abs(rep.lhs - rep.rhs) < 1e-6
        assert abs(rep.rhs - np.exp(-1.0)) < 1e-14

    def test_contraction_trivial_pair(self, quad_resolvent):
        q = quadratic_functional(lam=1.0)
        flow = gradient_flow(q, 0.3, [0.5], 1e-8)
        (rep,) = semigroup_contraction_check(quad_resolvent, flow, flow)
        assert rep.ok and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_contraction_graph_energy(self, rng):
        from gfstack.energies import GraphEnergy

        A = rng.random((4, 4))
        A[np.diag_indices(4)] = 0.0
        phi = GraphEnergy(adjacency=A).to_functional()
        R = resolvent_from_functional(phi)
        x, y = rng.normal(size=4), rng.normal(size=4)
        flows = [gradient_flow(phi, z, [0.5], 1e-6) for z in (x, y)]
        (rep,) = semigroup_contraction_check(R, *flows)
        assert rep.ok
        assert rep.lhs <= R.norm(x - y) + 1e-6  # omega = 0: plain contraction

    def test_semigroup_law_within_certificates(self, quad_resolvent):
        x = np.array([1.0])
        for (t, s) in [(0.3, 0.5), (0.7, 0.2), (1.0, 1.0)]:
            u_ts, c1 = crandall_liggett(quad_resolvent, t + s, x, 1e-7)
            u_s, c2 = crandall_liggett(quad_resolvent, s, x, 1e-7)
            u_t_s, c3 = crandall_liggett(quad_resolvent, t, u_s, 1e-7)
            allowed = c1.value + c3.value + np.exp(quad_resolvent.omega * s) * c2.value
            assert abs(u_ts[0] - u_t_s[0]) <= allowed + 1e-12

    def test_modulus_of_continuity(self, quad_resolvent):
        # |S(t)x - S(tau)x| <= 2 |t - tau| inf||A(x)|| (e^{4 w+ t} + e^{2 w+ (t+tau)})
        x = np.array([1.0])
        for (t, tau) in [(0.2, 0.3), (0.5, 1.0), (1.0, 1.5)]:
            ut, _ = crandall_liggett(quad_resolvent, t, x, 1e-9)
            utau, _ = crandall_liggett(quad_resolvent, tau, x, 1e-9)
            lhs = abs(ut[0] - utau[0])
            rhs = 2.0 * abs(t - tau) * 1.0 * 2.0  # clamped exponents equal 1
            assert lhs <= rhs + 1e-9

    def test_resolvent_lipschitz_bound(self, rng):
        R = resolvent_from_functional(quadratic_functional(lam=1.0, dim=3))
        for _ in range(50):
            lam = float(rng.uniform(0.05, 2.0))
            x, y = rng.normal(size=3), rng.normal(size=3)
            lhs = R.norm(np.asarray(R.resolve(lam, x)) - np.asarray(R.resolve(lam, y)))
            assert lhs <= R.norm(x - y) / (1.0 - lam * R.omega) + 1e-12


class TestDefaultSlopeEstimate:
    def test_no_declared_slope_no_certificate(self):
        # without slope_norm there is no a-priori bound: no estimate stands in
        # for inf||A(x)||, so the run doubles and is not certified
        q = quadratic_functional(lam=1.0)
        bare = type(q)(dim=1, value=q.value, lam=1.0, weights=q.weights,
                       prox_closed_form=q.prox_closed_form)
        R = resolvent_from_functional(bare)
        assert R.inf_norm_A is None
        u, cert = crandall_liggett(R, 1.0, 1.0, 1e-3)
        assert not cert.certified and cert.value == 1e-3
        assert abs(u[0] - np.exp(-1.0)) < 1e-3

    def test_doubling_decay_on_shipped_operators(self, rng):
        # the a-posteriori gap shrinks (or hits exactness) while doubling
        from gfstack.energies import GraphEnergy

        A = rng.random((4, 4))
        A[np.diag_indices(4)] = 0.0
        graph_R = resolvent_from_functional(GraphEnergy(adjacency=A).to_functional())
        abs_R = resolvent_from_functional(abs_functional())
        x_graph = rng.normal(size=4)
        for R, x in ((graph_R, x_graph), (abs_R, np.array([2.0]))):
            n, prev = 8, resolvent_iterate(R, 1.0, 8, x)
            gaps = []
            for _ in range(6):
                nxt = resolvent_iterate(R, 1.0, 2 * n, x)
                gaps.append(R.norm(nxt - prev))
                prev, n = nxt, 2 * n
            assert np.all(np.diff(gaps) <= 1e-15)

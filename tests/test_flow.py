"""Gradient-flow trajectories, energy bounds, decay rates, EVI, speeds."""

import numpy as np
import pytest

from gfstack.convex import abs_functional, kappa, moreau_envelope, prox, quadratic_functional
from gfstack.energies import GraphEnergy, graph_prox
from gfstack.errors import IntervalError, PreconditionError
from gfstack.flow import (
    FlowResult,
    decay_rate_check,
    energy_bound_check,
    evi_residual,
    gradient_flow,
    metric_derivative,
)
from gfstack.semigroup import (
    Trajectory,
    crandall_liggett,
    resolvent_from_functional,
    semigroup_contraction_check,
)

from oracles import backward_euler_flow


def one_bound(phi, x0, t, tol=1e-6):
    """energy_bound_check's report on the flow of phi from x0 sampled at the one time t."""
    (rep,) = energy_bound_check(phi, gradient_flow(phi, x0, [t], tol), tol)
    return rep


def one_decay(phi, x0, x, t, tol=1e-6):
    """decay_rate_check's report on the flow of phi from x0 sampled at the one time t."""
    (rep,) = decay_rate_check(phi, gradient_flow(phi, x0, [t], tol), x, tol)
    return rep


class TestGradientFlow:
    def test_quadratic_anchor(self):
        q = quadratic_functional(lam=1.0)
        res = gradient_flow(q, 1.0, [1.0], tol=1e-7)
        assert abs(res.trajectory.states[-1, 0] - np.exp(-1.0)) < 1e-7
        assert abs(res.energies[-1] - 0.5 * np.exp(-2.0)) < 1e-7

    def test_time_zero_is_identity(self):
        q = quadratic_functional(lam=1.0)
        res = gradient_flow(q, 0.7, [0.0], tol=1e-9)
        assert res.trajectory.states[0, 0] == 0.7

    def test_abs_unit_speed_slide(self):
        a = abs_functional()
        res = gradient_flow(a, 2.0, [1.0], tol=1e-9)
        assert abs(res.trajectory.states[-1, 0] - 1.0) < 1e-9
        assert abs(res.energies[-1] - 1.0) < 1e-9
        # brute-force fine backward-Euler oracle agrees
        oracle = backward_euler_flow(lambda dt, y: np.sign(y) * np.maximum(np.abs(y) - dt, 0),
                                     [2.0], 1.0, 4000)
        assert abs(res.trajectory.states[-1, 0] - oracle[0]) < 1e-3

    def test_abs_flow_stops_at_zero(self):
        a = abs_functional()
        res = gradient_flow(a, 2.0, [1.0, 2.0, 3.0], tol=1e-9)
        assert np.allclose(res.trajectory.states[:, 0], [1.0, 0.0, 0.0], atol=1e-9)

    def test_energy_monotone_and_below_envelope(self, rng):
        A = rng.random((5, 5))
        A[np.diag_indices(5)] = 0.0
        phi = GraphEnergy(adjacency=A).to_functional()
        x0, times = rng.normal(size=5), np.linspace(0, 1, 11)
        res = gradient_flow(phi, x0, times, tol=1e-7)
        assert np.all(np.diff(res.energies) <= 1e-10)
        reports = energy_bound_check(phi, res, tol=1e-7)
        assert [rep.t for rep in reports] == times[1:].tolist()  # t = 0 has no bound
        for energy, rep in zip(res.energies[1:], reports):
            assert rep.flow_energy == energy  # read from the flow, not flowed again
            assert energy <= rep.envelope_value + 1e-7

    def test_flow_contraction(self, rng):
        for phi in (quadratic_functional(lam=2.0), abs_functional()):
            for _ in range(10):
                x, y = rng.normal(size=1) * 2, rng.normal(size=1) * 2
                fx = gradient_flow(phi, x, [0.5], tol=1e-8)
                fy = gradient_flow(phi, y, [0.5], tol=1e-8)
                lhs = phi.norm(fx.trajectory.states[-1] - fy.trajectory.states[-1])
                assert lhs <= np.exp(-phi.lam * 0.5) * phi.norm(x - y) + 1e-7

    def test_restart_matches_longer_horizon(self):
        q = quadratic_functional(lam=1.0)
        one = gradient_flow(q, 1.0, [0.3], tol=1e-9)
        two = gradient_flow(q, one.trajectory.states[-1], [0.5], tol=1e-9)
        direct = gradient_flow(q, 1.0, [0.8], tol=1e-9)
        gap = abs(two.trajectory.states[-1, 0] - direct.trajectory.states[-1, 0])
        certs = (one.certificates[-1].value + two.certificates[-1].value
                 + direct.certificates[-1].value)
        assert gap <= certs + 1e-12


class TestEnergyBound:
    def test_quadratic_gap_formula(self):
        q = quadratic_functional(lam=1.0)
        rep = one_bound(q, 1.0, 1.0)
        assert rep.ok
        assert abs(rep.flow_energy - 0.5 * np.exp(-2.0)) < 1e-6
        assert abs(rep.envelope_value - 1.0 / (1.0 + np.e**2)) < 1e-9
        want = (1.0 / (2.0 * np.e**2)) * (1 - np.exp(-2.0)) / (1 + np.exp(-2.0))
        assert abs(rep.slack - want) < 1e-6

    def test_slack_zero_at_minimizer(self):
        q = quadratic_functional(lam=1.0)
        rep = one_bound(q, 0.0, 0.7)
        assert rep.ok and abs(rep.slack) < 1e-12

    def test_two_node_graph_against_euler_oracle(self):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        phi = ge.to_functional()
        rep = one_bound(phi, [1.0, 0.0], 0.5, tol=1e-7)
        assert rep.ok and rep.slack >= 0
        oracle_state = backward_euler_flow(lambda dt, y: graph_prox(ge, dt, y),
                                           [1.0, 0.0], 0.5, 2000)
        assert abs(phi.evaluate(oracle_state) - rep.flow_energy) < 1e-3

    def test_gap_shrinks_as_time_vanishes(self):
        q = quadratic_functional(lam=1.0)
        reports = energy_bound_check(q, gradient_flow(q, 1.0, [0.01, 0.05, 0.1, 0.5]))
        slacks = [rep.slack for rep in reports]
        assert np.all(np.diff(slacks) > 0)
        assert slacks[0] < 1e-2
        # both envelope and flow energy approach the value at the start
        assert abs(reports[0].envelope_value - q.evaluate(1.0)) < 2e-2

    def test_observed_gap_recorded_one_sided_only(self):
        # sharpness of the bound is open: assert one-sidedness, record the gap
        q = quadratic_functional(lam=3.0)
        rep = one_bound(q, 2.0, 0.7)
        assert rep.ok and rep.slack > 0


class TestDecayRate:
    def test_quadratic_rate(self):
        q = quadratic_functional(lam=1.0)
        rep = one_decay(q, 1.0, 0.0, 1.0)
        assert rep.ok
        assert abs(rep.lhs - 0.5 * np.exp(-2.0)) < 1e-6
        assert abs(rep.rhs - 1.0 / (2.0 * kappa(1.0, 1.0))) < 1e-12

    def test_same_point_trivial(self):
        q = quadratic_functional(lam=1.0)
        rep = one_decay(q, 0.0, 0.0, 2.0)
        assert rep.ok and rep.lhs <= 0 and rep.rhs == 0.0

    def test_abs_flow_rate(self):
        a = abs_functional()
        rep = one_decay(a, 2.0, 0.0, 1.0)
        assert rep.ok
        assert abs(rep.lhs - 1.0) < 1e-8
        assert abs(rep.rhs - 2.0) < 1e-12

    def test_requires_nonnegative_modulus(self):
        from gfstack.convex import ProperFunctional

        soft = ProperFunctional(dim=1, value=lambda x: -0.1 * x[0] ** 2, lam=-0.2,
                                weights=[1.0], prox_closed_form=lambda g, x: x / (1.0 - 0.2 * g))
        with pytest.raises(PreconditionError):
            decay_rate_check(soft, gradient_flow(soft, 1.0, [1.0]), 0.0)


class TestEviResidual:
    def test_quadratic_flow_no_violation(self):
        q = quadratic_functional(lam=1.0)
        flow = gradient_flow(q, 1.0, np.linspace(0, 1, 101), tol=1e-9)
        rep = evi_residual(flow, q, 0.0)
        assert rep.ok
        assert rep.violation <= 1e-8
        # the analytic residual vanishes; discretization pushes it negative
        assert rep.max_residual <= 0.0

    def test_constant_flow_zero(self):
        from gfstack.convex import constant_functional

        c = constant_functional(0.0, dim=2)
        flow = gradient_flow(c, [1.0, 2.0], np.linspace(0, 1, 5), tol=1e-9)
        rep = evi_residual(flow, c, [0.0, 0.0])
        assert rep.ok and abs(rep.max_residual) < 1e-12

    def test_graph_tv_flow_fine_grid(self):
        # a nonsmooth flow via a fine implicit-Euler trajectory: the weighted L1
        # norm, whose prox is certified soft thresholding (graph total variation
        # has no certified prox, so it stands in for the graph-TV flow)
        phi = abs_functional(dim=3)
        times = np.linspace(0.0, 0.5, 26)
        states = [np.array([1.0, 0.0, -1.0])]
        for dt in np.diff(times):
            states.append(prox(phi, float(dt), states[-1]))
        # the outer nodes slide to 0 at unit speed; the middle one stays put
        assert np.allclose(states[-1], [0.5, 0.0, -0.5], atol=1e-12)
        traj = Trajectory(times=times, states=np.asarray(states),
                          error_bounds=np.full(len(times), 1e-9))
        flow = FlowResult(x0=states[0], trajectory=traj,
                          energies=np.asarray([phi.evaluate(s) for s in states]))
        rep = evi_residual(flow, phi, np.zeros(3))
        assert rep.ok

    def test_needs_three_times(self):
        q = quadratic_functional(lam=1.0)
        flow = gradient_flow(q, 1.0, [0.0, 1.0], tol=1e-7)
        with pytest.raises(PreconditionError):
            evi_residual(flow, q, 0.0)


class TestMetricDerivative:
    def test_constant_trajectory(self):
        traj = Trajectory(times=[0.0, 1.0, 2.0], states=[[1.0], [1.0], [1.0]])
        rep = metric_derivative(traj)
        assert np.allclose(rep.speeds, 0.0) and rep.integral_square == 0.0

    def test_exponential_curve_integral(self):
        ts = np.arange(0.0, 1.0 + 1e-12, 0.01)
        traj = Trajectory(times=ts, states=np.exp(-ts)[:, None])
        rep = metric_derivative(traj)
        assert abs(rep.integral_square - (1.0 - np.exp(-2.0)) / 2.0) < 1e-3

    def test_straight_line_constant_speed(self, rng):
        w = rng.normal(size=3)
        ts = np.linspace(0.0, 2.0, 9)
        traj = Trajectory(times=ts, states=np.outer(ts, w) + 1.0)
        rep = metric_derivative(traj)
        assert np.allclose(rep.speeds, np.linalg.norm(w), atol=1e-12)

    def test_dissipation_identity(self):
        # integral of speed^2 equals the energy drop along a gradient flow
        q = quadratic_functional(lam=1.0)
        flow = gradient_flow(q, 1.0, np.linspace(0, 1, 201), tol=1e-9)
        rep = metric_derivative(flow.trajectory, weights=q.weights)
        drop = flow.energies[0] - flow.energies[-1]
        assert abs(rep.integral_square - drop) < 1e-3

    def test_speed_liminf_along_refining_flows(self):
        # coarser graph flows cannot dissipate more than their own energies,
        # but the refined ones approach the fine flow's speed integral
        from gfstack.experiments import (
            ExperimentConfig,
            build_heat_instances,
        )

        cfg = ExperimentConfig(kind="d2c_heat", sizes=(8, 16, 32), time_grid=9)
        instances, fine = build_heat_instances(cfg, np.random.default_rng(0))
        times = np.linspace(0.0, 0.25, 9)
        fine_flow = gradient_flow(fine.functional, fine.initial, times, 1e-7)
        target = metric_derivative(fine_flow.trajectory, weights=fine.measure.weights)
        vals = []
        for inst in instances:
            fl = gradient_flow(inst.functional, inst.initial, times, 1e-7)
            vals.append(metric_derivative(fl.trajectory, weights=inst.measure.weights).integral_square)
        assert min(vals[len(vals) // 2:]) >= target.integral_square * 0.95


class TestConstrainedFunctional:
    def test_box_indicator_flow_is_projection_then_rest(self):
        # indicator of [-1, 1]: the prox projects, the flow stays put
        from gfstack.convex import ProperFunctional

        box = ProperFunctional(
            dim=1,
            value=lambda x: 0.0 if abs(x[0]) <= 1.0 else np.inf,
            weights=[1.0],
            prox_closed_form=lambda g, x: np.clip(x, -1, 1),
        )
        res = gradient_flow(box, 1.0, [0.5, 1.0], tol=1e-6)
        assert np.allclose(res.trajectory.states[:, 0], 1.0, atol=1e-6)
        assert np.all(res.energies == 0.0)
        # envelope bound degenerates to equality inside the domain
        rep = one_bound(box, 0.5, 1.0, tol=1e-6)
        assert rep.ok and abs(rep.slack) < 1e-6


class TestCheckerSensitivity:
    def test_evi_flags_a_non_flow(self):
        # a curve running up the energy landscape must violate the inequality
        q = quadratic_functional(lam=1.0)
        ts = np.linspace(0.0, 1.0, 21)
        states = np.exp(+ts)[:, None]  # expanding, not contracting
        traj = Trajectory(times=ts, states=states, error_bounds=np.zeros(len(ts)))
        fake = FlowResult(x0=states[0], trajectory=traj,
                          energies=np.asarray([q.evaluate(s) for s in states]))
        rep = evi_residual(fake, q, 0.0)
        assert not rep.ok and rep.violation > 1.0

    def test_evi_flags_wrong_speed(self):
        # right direction, wrong clock: u(t) = e^{-t/4} is too slow
        q = quadratic_functional(lam=1.0)
        ts = np.linspace(0.0, 1.0, 21)
        states = np.exp(-ts / 4.0)[:, None]
        traj = Trajectory(times=ts, states=states, error_bounds=np.zeros(len(ts)))
        fake = FlowResult(x0=states[0], trajectory=traj,
                          energies=np.asarray([q.evaluate(s) for s in states]))
        rep = evi_residual(fake, q, 0.0)
        assert not rep.ok


def _graph16():
    A = np.random.default_rng(16).random((16, 16))
    A[np.diag_indices(16)] = 0.0
    return GraphEnergy(adjacency=A, name="graph16").to_functional()


class TestChecksReadTheFlow:
    """The checks read one computed flow; their reports are bitwise the one-off recomputation."""

    @pytest.mark.parametrize("make, x0s", [
        (lambda: quadratic_functional(lam=0.5), ([1.0], [-2.0])),
        (abs_functional, ([2.0], [-1.5])),
        (_graph16, tuple(np.random.default_rng(3).normal(size=(2, 16)))),
    ], ids=["quadratic", "abs", "graph16"])
    def test_reports_equal_one_off_recomputation(self, make, x0s):
        phi, tol, times = make(), 1e-6, [0.0, 0.1, 0.25, 0.5, 1.0]
        R = resolvent_from_functional(phi)
        x0s = [np.asarray(x0, dtype=float) for x0 in x0s]
        flows = [gradient_flow(phi, x0, times, tol) for x0 in x0s]
        minimizer = np.zeros(phi.dim)
        for x0, flow in zip(x0s, flows):
            bounds = energy_bound_check(phi, flow, tol)
            decays = decay_rate_check(phi, flow, minimizer, tol)
            assert [r.t for r in bounds] == [r.t for r in decays] == times[1:]
            for rep, dec in zip(bounds, decays):
                u, cert = crandall_liggett(R, rep.t, x0, tol)
                energy = phi.evaluate(u)
                envelope = moreau_envelope(phi, kappa(rep.t, phi.lam), x0)
                assert (rep.flow_energy, rep.envelope_value) == (energy, envelope)
                assert (rep.slack, rep.ok, rep.certificate) == (envelope - energy,
                                                                envelope - energy >= -tol, cert)
                lhs = energy - phi.evaluate(minimizer)
                d = phi.norm(x0 - minimizer)
                rhs = d * d / (2.0 * kappa(rep.t, phi.lam))
                assert (dec.lhs, dec.rhs, dec.ok) == (lhs, rhs, lhs <= rhs + tol)
        reports = semigroup_contraction_check(R, *flows)
        assert [r.t for r in reports] == times
        for rep in reports:
            (ux, cx), (uy, cy) = (crandall_liggett(R, rep.t, x0, tol) for x0 in x0s)
            lhs = R.norm(ux - uy)
            rhs = float(np.exp(R.omega * rep.t)) * R.norm(x0s[0] - x0s[1])
            assert (rep.lhs, rep.rhs, rep.certificates) == (lhs, rhs, (cx, cy))
            assert rep.ok == (lhs <= rhs + cx.value + cy.value + 1e-12)

    def test_contraction_needs_one_grid(self):
        q = quadratic_functional(lam=1.0)
        R = resolvent_from_functional(q)
        with pytest.raises(PreconditionError):
            semigroup_contraction_check(R, gradient_flow(q, 1.0, [0.5]),
                                        gradient_flow(q, 0.0, [1.0]))


class TestNonFiniteTime:
    """A non-finite time raises IntervalError and a non-finite tol PreconditionError."""

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_gradient_flow(self, t):
        q = quadratic_functional(lam=1.0)
        with pytest.raises(IntervalError):
            gradient_flow(q, 1.0, [0.5, t])

    @pytest.mark.parametrize("tol", [np.nan, np.inf])
    def test_gradient_flow_tol(self, tol):
        with pytest.raises(PreconditionError):
            gradient_flow(quadratic_functional(lam=1.0), 1.0, [0.5], tol)

    @staticmethod
    def _flow_at(t):
        # a flow record whose second sample time is t; Trajectory rejects a
        # non-finite time when it is built, so the time is written afterwards
        q = quadratic_functional(lam=1.0)
        flow = gradient_flow(q, 1.0, [0.5, 1.0])
        flow.trajectory.times = np.array([0.5, t])
        return q, flow

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_energy_bound_check(self, t):
        q, flow = self._flow_at(t)
        with pytest.raises(IntervalError):
            energy_bound_check(q, flow)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_decay_rate_check(self, t):
        q, flow = self._flow_at(t)
        with pytest.raises(IntervalError):
            decay_rate_check(q, flow, 0.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_semigroup_contraction_check(self, t):
        q, flow = self._flow_at(t)
        with pytest.raises(IntervalError):
            semigroup_contraction_check(resolvent_from_functional(q), flow, flow)

"""Gradient-flow trajectories, energy bounds, decay rates, EVI, speeds."""

import numpy as np
import pytest

from gfstack.convex import abs_functional, kappa, quadratic_functional
from gfstack.energies import GraphEnergy, graph_prox
from gfstack.errors import PreconditionError
from gfstack.flow import (
    FlowResult,
    decay_rate_check,
    energy_bound_check,
    evi_residual,
    gradient_flow,
    metric_derivative,
)
from gfstack.semigroup import Trajectory

from oracles import backward_euler_flow


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
        for t, energy in zip(times[1:], res.energies[1:]):
            rep = energy_bound_check(phi, x0, t, tol=1e-7)
            assert rep.flow_energy == energy  # the same resolvent iterate
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
        rep = energy_bound_check(q, 1.0, 1.0)
        assert rep.ok
        assert abs(rep.flow_energy - 0.5 * np.exp(-2.0)) < 1e-6
        assert abs(rep.envelope_value - 1.0 / (1.0 + np.e**2)) < 1e-9
        want = (1.0 / (2.0 * np.e**2)) * (1 - np.exp(-2.0)) / (1 + np.exp(-2.0))
        assert abs(rep.slack - want) < 1e-6

    def test_slack_zero_at_minimizer(self):
        q = quadratic_functional(lam=1.0)
        rep = energy_bound_check(q, 0.0, 0.7)
        assert rep.ok and abs(rep.slack) < 1e-12

    def test_two_node_graph_against_euler_oracle(self):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        phi = ge.to_functional()
        rep = energy_bound_check(phi, [1.0, 0.0], 0.5, tol=1e-7)
        assert rep.ok and rep.slack >= 0
        oracle_state = backward_euler_flow(lambda dt, y: graph_prox(ge, dt, y),
                                           [1.0, 0.0], 0.5, 2000)
        assert abs(phi.evaluate(oracle_state) - rep.flow_energy) < 1e-3

    def test_gap_shrinks_as_time_vanishes(self):
        q = quadratic_functional(lam=1.0)
        slacks = [energy_bound_check(q, 1.0, t).slack for t in (0.5, 0.1, 0.05, 0.01)]
        assert np.all(np.diff(slacks) < 0)
        assert slacks[-1] < 1e-2
        # both envelope and flow energy approach the value at the start
        rep = energy_bound_check(q, 1.0, 0.01)
        assert abs(rep.envelope_value - q.evaluate(1.0)) < 2e-2

    def test_observed_gap_recorded_one_sided_only(self):
        # sharpness of the bound is open: assert one-sidedness, record the gap
        q = quadratic_functional(lam=3.0)
        rep = energy_bound_check(q, 2.0, 0.7)
        assert rep.ok and rep.slack > 0


class TestDecayRate:
    def test_quadratic_rate(self):
        q = quadratic_functional(lam=1.0)
        rep = decay_rate_check(q, 1.0, 0.0, 1.0)
        assert rep.ok
        assert abs(rep.lhs - 0.5 * np.exp(-2.0)) < 1e-6
        assert abs(rep.rhs - 1.0 / (2.0 * kappa(1.0, 1.0))) < 1e-12

    def test_same_point_trivial(self):
        q = quadratic_functional(lam=1.0)
        rep = decay_rate_check(q, 0.0, 0.0, 2.0)
        assert rep.ok and rep.lhs <= 0 and rep.rhs == 0.0

    def test_abs_flow_rate(self):
        a = abs_functional()
        rep = decay_rate_check(a, 2.0, 0.0, 1.0)
        assert rep.ok
        assert abs(rep.lhs - 1.0) < 1e-8
        assert abs(rep.rhs - 2.0) < 1e-12

    def test_requires_nonnegative_modulus(self):
        from gfstack.convex import ProperFunctional

        soft = ProperFunctional(dim=1, value=lambda x: -0.1 * x[0] ** 2, lam=-0.2,
                                weights=[1.0])
        with pytest.raises(PreconditionError):
            decay_rate_check(soft, 1.0, 0.0, 1.0)


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
        # absolute-loss graph flow via a fine implicit-Euler trajectory
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
        ge = GraphEnergy(adjacency=A, loss_kind="absolute")
        phi = ge.to_functional()
        times = np.linspace(0.0, 0.5, 26)
        states = [np.array([1.0, 0.0, -1.0])]
        for dt in np.diff(times):
            states.append(graph_prox(ge, float(dt), states[-1]))
        traj = Trajectory(times=times, states=np.asarray(states),
                          error_bounds=np.full(len(times), 1e-9))
        flow = FlowResult(trajectory=traj,
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
            domain_hint=([-1.0], [1.0]),
        )
        res = gradient_flow(box, 1.0, [0.5, 1.0], tol=1e-6)
        assert np.allclose(res.trajectory.states[:, 0], 1.0, atol=1e-6)
        assert np.all(res.energies == 0.0)
        # envelope bound degenerates to equality inside the domain
        rep = energy_bound_check(box, 0.5, 1.0, tol=1e-6)
        assert rep.ok and abs(rep.slack) < 1e-6


class TestCheckerSensitivity:
    def test_evi_flags_a_non_flow(self):
        # a curve running up the energy landscape must violate the inequality
        q = quadratic_functional(lam=1.0)
        ts = np.linspace(0.0, 1.0, 21)
        states = np.exp(+ts)[:, None]  # expanding, not contracting
        traj = Trajectory(times=ts, states=states, error_bounds=np.zeros(len(ts)))
        fake = FlowResult(trajectory=traj,
                          energies=np.asarray([q.evaluate(s) for s in states]))
        rep = evi_residual(fake, q, 0.0)
        assert not rep.ok and rep.violation > 1.0

    def test_evi_flags_wrong_speed(self):
        # right direction, wrong clock: u(t) = e^{-t/4} is too slow
        q = quadratic_functional(lam=1.0)
        ts = np.linspace(0.0, 1.0, 21)
        states = np.exp(-ts / 4.0)[:, None]
        traj = Trajectory(times=ts, states=states, error_bounds=np.zeros(len(ts)))
        fake = FlowResult(trajectory=traj,
                          energies=np.asarray([q.evaluate(s) for s in states]))
        rep = evi_residual(fake, q, 0.0)
        assert not rep.ok

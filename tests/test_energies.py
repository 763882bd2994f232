"""Graph energies, the smooth-truncation test family, and exchange checks."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfstack import energies
from gfstack.convex import PROX_RESIDUAL_TOL, check_lambda_convexity, default_triple_sampler, prox
from gfstack.energies import (
    GraphEnergy,
    counterexample_demo,
    counterexample_functional,
    graph_prox,
    lr_contraction_checks,
    p0_convexity_check,
    p0_family,
    quadratic_map_energy,
    weighted_lr_norm,
)
from gfstack.errors import ConstructionError, PreconditionError
from gfstack.flow import gradient_flow

from oracles import adaptive_simpson, dct_basis, grid_prox_2d, p0_exact_value, spectral_factors


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        assert abs(adaptive_simpson(lambda x: x**3 - x, 0.0, 2.0) - 2.0) < 1e-12

    def test_smooth_function(self):
        assert abs(adaptive_simpson(np.sin, 0.0, np.pi) - 2.0) < 1e-11


class TestP0Family:
    def test_dead_zone(self):
        g = p0_family(a=1.0, w=5.0)
        assert g(1.0) == 0.0 and g(-1.0) == 0.0 and g(0.0) == 0.0

    def test_cap_variant_for_counterexample(self):
        g = p0_family(a=0.1, w=0.1, cap=0.5, one_sided=True)
        assert g(1.0) == 0.5
        assert g(-1.0) == 0.0

    def test_plateau_default_is_ramp_area(self):
        g = p0_family(a=0.5, w=0.3)
        assert abs(g(10.0) - 0.3) < 1e-14
        assert abs(g(-10.0) + 0.3) < 1e-14

    def test_derivative_bounds_and_support(self):
        g = p0_family(a=0.2, w=0.3, cap=1.2)
        xs = np.linspace(-5, 5, 2001)
        dv = np.array([g.derivative(float(x)) for x in xs])
        assert dv.min() >= 0.0 and dv.max() <= 1.0 + 1e-12
        assert np.all(dv[np.abs(xs) <= g.a] == 0.0)
        assert np.all(dv[np.abs(xs) >= g.flat_end + g.rise_width] == 0.0)

    def test_value_below_identity_and_sign(self):
        for g in (p0_family(a=0.3, w=0.4), p0_family(a=0.1, w=0.2, cap=0.5, one_sided=True)):
            xs = np.linspace(-4, 4, 801)
            vals = np.asarray(g(xs))
            assert np.all(np.abs(vals) <= np.abs(xs) + 1e-12)
            assert np.all(vals * xs >= -1e-15)

    def test_cached_matches_exact_quadrature(self):
        g = p0_family(a=0.25, w=0.5, cap=0.4)
        for x in (0.3, 0.55, 0.8, 1.1, 2.0, -0.6):
            assert abs(g(x) - p0_exact_value(g, x)) < 1e-10

    @pytest.mark.parametrize("kw", [
        dict(a=0.3, w=0.4),                             # p0_audit's g_sym
        dict(a=0.2, w=0.2, cap=0.8),                    # p0_audit's g_cap
        dict(a=0.1, w=0.1, cap=0.5, one_sided=True),    # counterexample_demo's g
    ])
    def test_evaluator_accuracy_on_runner_profiles(self, kw):
        # the evaluator integrates the Hermite ramp exactly; what is left is
        # the oracle's own 1e-13 quadrature (measured maximum 2.3e-13, on g_sym)
        g = p0_family(**kw)
        xs = np.linspace(-3.0, 3.0, 601)  # p0_audit's sampling range, every support inside
        err = max(abs(g(float(x)) - p0_exact_value(g, float(x))) for x in xs)
        assert err <= 5e-13

    def test_smoothstep_matches_bump_quadrature(self):
        # cumulative adaptive Simpson of the bump over 2000 steps of [-1, 1]
        # (measured maximum 1.8e-15)
        def bump(s):
            return float(energies._bump(s))

        mass = adaptive_simpson(bump, -1.0, 1.0, 1e-14)
        acc, prev, err = 0.0, -1.0, 0.0
        for s in np.linspace(-1.0, 1.0, 2001):
            acc += adaptive_simpson(bump, prev, float(s), 1e-14)
            prev = float(s)
            err = max(err, abs(energies._smoothstep(float(s)) - acc / mass))
        assert err <= 1e-14

    def test_ramp_table_built_on_first_evaluator_use(self):
        energies._ramp_table.cache_clear()
        counterexample_demo(1.0)  # builds two families and reads only closed-form points
        g = p0_family(a=0.3, w=0.4)
        g(0.1), g(-0.2), g(2.0), g.derivative(0.2), g.derivative(-5.0)  # dead zone and plateau
        assert energies._ramp_table.cache_info().currsize == 0
        g(0.5), g(-0.6), g.derivative(0.9)
        assert energies._ramp_table.cache_info().currsize == 1

    def test_equal_parameters_compare_equal(self):
        # a value of its five parameters: no stored closure tells two builds apart
        g = p0_family(0.3, 0.4)
        assert g == p0_family(0.3, 0.4) and hash(g) == hash(p0_family(0.3, 0.4))
        assert g != p0_family(0.3, 0.4, one_sided=True)

    def test_slope_cap_interaction(self):
        g = p0_family(a=0.1, w=1.0, cap=0.25)
        # cap smaller than slope*w forces a gentler slope
        assert g.slope == pytest.approx(0.25)
        assert abs(g(10.0) - 0.25) < 1e-14

    def test_invalid_parameters(self):
        with pytest.raises(ConstructionError):
            p0_family(a=0.0, w=1.0)
        with pytest.raises(ConstructionError):
            p0_family(a=1.0, w=1.0, slope=1.5)
        with pytest.raises(ConstructionError):
            p0_family(a=1.0, w=1.0, cap=-0.1)


class TestExchangeInequality:
    def test_graph_squared_random_instances(self, rng):
        g = p0_family(a=0.3, w=0.4)
        for _ in range(25):
            A = rng.random((5, 5))
            A[np.diag_indices(5)] = 0.0
            ge = GraphEnergy(adjacency=A, loss_kind="squared")
            rep = p0_convexity_check(ge, rng.normal(size=5) * 2, rng.normal(size=5) * 2, g)
            assert rep.slack >= -1e-10

    def test_graph_absolute_random_instances(self, rng):
        g = p0_family(a=0.2, w=0.2, cap=0.8)
        for _ in range(25):
            A = rng.random((4, 4))
            A[np.diag_indices(4)] = 0.0
            ge = GraphEnergy(adjacency=A, loss_kind="absolute")
            rep = p0_convexity_check(ge, rng.normal(size=4) * 2, rng.normal(size=4) * 2, g)
            assert rep.slack >= -1e-10

    def test_quadratic_map(self, rng):
        g = p0_family(a=0.3, w=0.4)
        Q = quadratic_map_energy(np.full(4, 0.25))
        for _ in range(25):
            rep = p0_convexity_check(Q, rng.normal(size=4) * 3, rng.normal(size=4) * 3, g)
            assert rep.slack >= -1e-10

    def test_scaling_and_sum_stability_exact(self, rng):
        g = p0_family(a=0.3, w=0.4)
        A = rng.random((4, 4))
        A[np.diag_indices(4)] = 0.0
        ge = GraphEnergy(adjacency=A)
        Q = quadratic_map_energy(np.full(4, 0.25))
        u, v = rng.normal(size=4), rng.normal(size=4)
        s1 = p0_convexity_check(ge, u, v, g).slack
        s2 = p0_convexity_check(Q, u, v, g).slack
        lam = 3.7
        assert p0_convexity_check(lambda z: lam * ge.value(z), u, v, g).slack == pytest.approx(lam * s1, abs=1e-9)
        both = p0_convexity_check(lambda z: ge.value(z) + Q.evaluate(z), u, v, g).slack
        assert both == pytest.approx(s1 + s2, abs=1e-9)

    def test_exchange_stable_implies_plain_convex(self, rng):
        # every shipped exchange-stable energy passes the lam = 0 sampling check
        A = rng.random((4, 4))
        A[np.diag_indices(4)] = 0.0
        for phi in (GraphEnergy(adjacency=A).to_functional(),
                    quadratic_map_energy(np.full(3, 1 / 3))):
            rep = check_lambda_convexity(phi, 0.0,
                                         default_triple_sampler(phi, rng, scale=5.0), 200)
            assert rep.ok

    @pytest.mark.parametrize("g, u, v", [
        (p0_family(a=0.1, w=0.1, cap=0.5, one_sided=True), [1.0, 0.0], [0.0, 1.0]),  # counterexample
        (p0_family(a=0.3, w=0.4), [0.1, -0.2], [0.55, -0.8]),  # v - u inside both rise bands
    ])
    def test_p0_function_is_checked_as_any_callable(self, g, u, v):
        phi = counterexample_functional(1.0)
        rep = p0_convexity_check(phi, u, v, g)
        wrapped = p0_convexity_check(phi, u, v, lambda t: g(t))
        assert [x.hex() for x in astuple(rep)] == [x.hex() for x in astuple(wrapped)]

    def test_g_composition_contracts_lp_norms(self, rng):
        g = p0_family(a=0.3, w=0.4)
        w = np.full(6, 1 / 6)
        for _ in range(20):
            u = rng.normal(size=6) * 3
            gu = np.asarray(g(u))
            for p in (1.0, 2.0, 4.0):
                assert weighted_lr_norm(gu, w, p) <= weighted_lr_norm(u, w, p) + 1e-12


class TestCounterexample:
    def test_slack_at_zero(self):
        rep = counterexample_demo(0.0)
        assert rep.lambda_convexity_ok
        assert rep.exchange.slack == pytest.approx(-0.5, abs=1e-12)
        assert rep.exchange.lhs == pytest.approx(2.5, abs=1e-12)
        assert rep.exchange.rhs == pytest.approx(2.0, abs=1e-12)

    def test_slack_at_four(self):
        rep = counterexample_demo(4.0)
        assert rep.lambda_convexity_ok
        assert rep.exchange.lhs == pytest.approx(15.5, abs=1e-12)
        assert rep.exchange.rhs == pytest.approx(14.0, abs=1e-12)
        assert rep.exchange.slack == pytest.approx(-1.5, abs=1e-12)

    def test_zero_truncation_degenerate_pass(self):
        phi = counterexample_functional(0.0)
        rep = p0_convexity_check(phi, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                                 lambda x: 0.0)
        assert rep.slack == 0.0

    def test_negative_modulus_rejected(self):
        with pytest.raises(PreconditionError):
            counterexample_functional(-0.5)

    _coordinate = st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0, 1e150, -1e150])

    @given(st.sampled_from([0.0, 1.0, 4.0]),
           st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    # rows where ndarray ** 2 (a multiply) and pow differ in the last bit; about
    # 0.1% of inputs do, too few for the derandomized draws to meet one
    @example(0.0, [(1.8011554613610317, -0.6233673046511057)])
    @example(4.0, [(-1.43721851832041, -1.821302512912592)])
    def test_value_rows_bitwise_the_per_row_value(self, lam, points):
        # |u_i| <= 1e150 keeps every square finite
        phi = counterexample_functional(lam)
        U = np.array(points).reshape(-1, 2)
        want = [float(phi.value(u)).hex() for u in U]
        assert [float(v).hex() for v in phi.value_rows(U)] == want

    @pytest.mark.parametrize("lam", [0.0, 1.0, 4.0])
    def test_value_bitwise_the_numpy_scalar_formula(self, lam):
        phi = counterexample_functional(lam)
        xs, ys, ts = default_triple_sampler(phi, np.random.default_rng(0))(1000)
        U = np.vstack([xs, ys, ts[:, None] * xs + (1.0 - ts)[:, None] * ys])
        for u, row in zip(U, phi.value_rows(U)):
            want = (lam + 1.0) * (u[0] + u[1]) ** 2 + 0.5 * lam * (u[0] ** 2 + u[1] ** 2)
            assert float(phi.value(u)).hex() == float(row).hex() == float(want).hex()


class TestGraphEnergy:
    def test_value_and_pair_matrix(self):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert ge.value([1.0, 0.0]) == 2.0
        assert ge.value([3.0, 3.0]) == 0.0
        u = np.array([0.4, -1.2])
        assert ge.value(u) == pytest.approx(u @ ge.pair_matrix() @ u)

    def test_identity_equality_and_hash(self):
        # a field-wise __eq__ would compare ndarrays and raise, and a frozen
        # dataclass's field hash would hash them; identity serves both
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        for build in (lambda: GraphEnergy(adjacency=A),
                      lambda: GraphEnergy.from_edges(2, [0], [1], [2.0])):
            ge, twin = build(), build()
            assert ge == ge and ge != twin
            assert {ge: 1}[ge] == 1 and twin not in {ge: 1}

    def test_adjacency_validation(self):
        with pytest.raises(ConstructionError):
            GraphEnergy(adjacency=np.array([[0.0, -1.0], [0.0, 0.0]]))
        with pytest.raises(ConstructionError):
            GraphEnergy(adjacency=np.zeros((2, 3)))

    def test_two_node_prox_linear_solve(self):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
                         node_weights=np.array([1.0, 1.0]))
        out = graph_prox(ge, 0.125, [1.0, 0.0])
        assert np.allclose(out, [0.75, 0.25], atol=1e-12)

    def test_zero_adjacency_identity(self, rng):
        ge = GraphEnergy(adjacency=np.zeros((3, 3)))
        h = rng.normal(size=3)
        assert np.allclose(graph_prox(ge, 0.7, h), h)
        ge_abs = GraphEnergy(adjacency=np.zeros((3, 3)), loss_kind="absolute")
        with pytest.raises(PreconditionError, match="no certified solver"):
            graph_prox(ge_abs, 0.7, h)

    def test_constant_vector_fixed_point(self, rng):
        A = rng.random((4, 4))
        A[np.diag_indices(4)] = 0.0
        h = np.full(4, 1.7)
        assert np.allclose(graph_prox(GraphEnergy(adjacency=A), 0.5, h), h, atol=1e-9)
        with pytest.raises(PreconditionError, match="no certified solver"):
            graph_prox(GraphEnergy(adjacency=A, loss_kind="absolute"), 0.5, h)

    def test_squared_prox_matches_grid(self):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        h = np.array([1.0, -0.5])
        gamma = 0.2
        got = graph_prox(ge, gamma, h)
        vec = lambda pts: 2.0 * (pts[0] - pts[1]) ** 2
        y, _ = grid_prox_2d(vec, gamma, h, (-2.0, -2.0), (2.0, 2.0), n=2001,
                            weights=ge.node_weights)
        assert np.allclose(got, y, atol=3e-3)

    def test_spectral_power_matches_repeated_solves(self, rng):
        A = rng.random((6, 6))
        A[np.diag_indices(6)] = 0.0
        ge = GraphEnergy(adjacency=A)
        phi = ge.to_functional()
        h = rng.normal(size=6)
        w = ge.node_weights
        M = np.diag(w) + 2.0 * 0.07 * ge.pair_matrix()
        direct = h
        for k in range(1, 5):
            direct = np.linalg.solve(M, w * direct)
            assert np.allclose(phi.prox_iterated(0.07, k, h), direct, atol=1e-11)
        assert np.allclose(graph_prox(ge, 0.07, h), np.linalg.solve(M, w * h), atol=1e-11)

    @pytest.mark.parametrize("gamma", [1e-3, 0.05, 0.25, 1.0])
    def test_squared_prox_forward_error_on_fine_grid(self, gamma, rng):
        # the 1024-node Dirichlet chain is tridiagonal and diagonally dominant,
        # so a banded LU solve is an independent reference
        from scipy.linalg import solve_banded

        from gfstack.experiments import fine_grid_dirichlet, line_measure

        measure = line_measure(1024)
        ge = fine_grid_dirichlet(measure)
        w = ge.node_weights
        M = np.diag(w) + 2.0 * gamma * ge.pair_matrix()
        bands = np.zeros((3, w.size))
        bands[0, 1:] = np.diag(M, 1)
        bands[1] = np.diag(M)
        bands[2, :-1] = np.diag(M, -1)
        wnorm = lambda v: float(np.sqrt(np.sum(w * v * v)))
        for h in (np.cos(np.pi * measure.atoms[:, 0]), rng.normal(size=w.size)):
            ref = solve_banded((1, 1), bands, w * h)
            err = wnorm(graph_prox(ge, gamma, h) - ref)
            assert err <= PROX_RESIDUAL_TOL * (1.0 + wnorm(h))

    def test_one_eigh_per_squared_energy(self, monkeypatch, rng):
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda B: calls.append(B.shape) or eigh(B))
        A = rng.random((5, 5))
        A[np.diag_indices(5)] = 0.0
        GraphEnergy(adjacency=A, loss_kind="absolute")
        assert calls == []
        ge = GraphEnergy(adjacency=A)
        phi = ge.to_functional()
        h, x, y = rng.normal(size=(3, 5))
        graph_prox(ge, 0.3, h)
        phi.prox_iterated(0.3, 4, h)
        lr_contraction_checks(ge, x, y, 0.5, (2.0,))
        lr_contraction_checks(ge, x, y, 0.5, (np.inf,))
        assert calls == [(5, 5)]

    def test_spectral_factors_squared_only(self):
        assert GraphEnergy(adjacency=np.zeros((2, 2)), loss_kind="absolute")._factors is None
        assert GraphEnergy(adjacency=np.zeros((2, 2)))._factors is not None

    def test_absolute_loss_has_no_prox(self, monkeypatch, rng):
        # graph total variation has no certified prox: graph_prox and the
        # functional's prox refuse before any factorization or evaluation
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda B: calls.append("eigh") or eigh(B))
        value = GraphEnergy.value
        monkeypatch.setattr(GraphEnergy, "value", lambda ge, u: calls.append("value") or value(ge, u))
        A = rng.random((5, 5))
        A[np.diag_indices(5)] = 0.0
        ge = GraphEnergy(adjacency=A, loss_kind="absolute")
        phi = ge.to_functional()
        assert phi.prox_closed_form is None and phi.prox_iterated is None
        h = rng.normal(size=5)
        with pytest.raises(PreconditionError, match="no certified solver"):
            graph_prox(ge, 0.5, h)
        with pytest.raises(PreconditionError, match="prox_closed_form or gradient"):
            prox(phi, 0.5, h)
        assert calls == []
        # its value and edge list stay: the exchange checks read them
        iu, ju, c = ge._edges
        assert ge.value(h) == float(np.sum(c * np.abs(h[iu] - h[ju])))

    def test_probability_weights_required_for_functional(self):
        ge = GraphEnergy(adjacency=np.zeros((2, 2)), node_weights=np.array([1.0, 1.0]))
        with pytest.raises(PreconditionError):
            ge.to_functional()


def _path_energy(n, c, w):
    A = np.zeros((n, n))
    A[np.arange(n - 1), np.arange(1, n)] = c
    return GraphEnergy(adjacency=A, node_weights=w)


def _count_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda B: calls.append(B.shape) or eigh(B))
    return calls


def _dense_prox_power(ge, gamma, k, h):
    """The k-fold squared-loss prox through the dense basis of the spectral_factors oracle."""
    evals, Q, s = spectral_factors(ge)
    return s * (Q @ ((Q.T @ (h / s)) * np.exp(-k * np.log1p(2.0 * gamma * evals))))


class TestClosedFormPathFactors:
    """A path of at least DCT_MIN_NODES nodes with one coefficient and equal weights
    is factored by the DCT-II basis; a shorter one by eigh.

    The energy keeps only (evals, twiddle, s) and applies the basis by FFT;
    the spectral_factors oracle forms the basis Q, and these checks use that Q.
    """

    def test_factors_match_eigh(self, rng):
        # the closed form at every n, called directly: below DCT_MIN_NODES the energy uses eigh
        for n in range(3, 65):
            c, w = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.01, 2.0))
            ge = _path_energy(n, c, np.full(n, w))
            evals, twiddle = energies._path_eigensystem(ge._edges, ge.node_weights)
            Q, s = dct_basis(n), 1.0 / np.sqrt(ge.node_weights)
            K = ge.pair_matrix()
            ref = np.linalg.eigvalsh((K * s[None, :]) * s[:, None])
            assert np.abs(evals - ref).max() <= 1e-12 * ref.max()
            assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-12
            # W^{1/2} Q diag(evals) Q' W^{1/2} is the pair matrix
            rebuilt = (Q * evals) @ Q.T / np.outer(s, s)
            assert np.abs(rebuilt - K).max() <= 1e-12 * np.abs(K).max()
            # the FFTs apply Q' and Q
            x = rng.normal(size=n)
            nrm = np.full(n, np.sqrt(2.0 / n))
            nrm[0] = np.sqrt(1.0 / n)
            assert np.abs(nrm * energies._dct2(x, twiddle) - Q.T @ x).max() <= 1e-13 * np.abs(x).max()
            assert np.abs(energies._dct3(x / nrm, twiddle) - Q @ x).max() <= 1e-13 * np.abs(x).max()

    @pytest.mark.parametrize("n", [2, 3, 17, energies.DCT_MIN_NODES - 1])
    def test_short_path_makes_one_eigh_call(self, monkeypatch, rng, n):
        calls = _count_eigh(monkeypatch)
        ge = _path_energy(n, 0.7, np.full(n, 1.0 / n))
        assert calls == [(n, n)] and ge._factors[1].shape == (n, n)
        h = rng.normal(size=n)
        for gamma, k in ((0.1, 1), (3.0, 7)):
            got = graph_prox(ge, gamma, h) if k == 1 else ge.to_functional().prox_iterated(gamma, k, h)
            assert np.abs(got - _dense_prox_power(ge, gamma, k, h)).max() <= 1e-13 * np.abs(h).max()
        assert calls == [(n, n)]
        monkeypatch.setattr(energies, "DCT_MIN_NODES", n)  # the same path in closed form
        closed = _path_energy(n, 0.7, np.full(n, 1.0 / n))
        assert calls == [(n, n)] and closed._factors[1].shape == (n,)
        assert np.abs(graph_prox(ge, 0.1, h) - graph_prox(closed, 0.1, h)).max() <= 1e-13 * np.abs(h).max()

    @pytest.mark.parametrize("n", [64, 512, 1024])
    def test_fine_grid_makes_no_eigh_call(self, monkeypatch, n):
        from gfstack.experiments import fine_grid_dirichlet, line_measure

        calls = _count_eigh(monkeypatch)
        ge = fine_grid_dirichlet(line_measure(n))
        _, _, c = ge._edges
        assert c.size == n - 1 and np.all(c == c[0])
        assert np.all(ge.node_weights == ge.node_weights[0])
        assert all(arr.shape == (n,) for arr in ge._factors)  # the closed form: no basis
        graph_prox(ge, 0.1, np.cos(np.arange(n)))
        assert calls == []

    @given(st.one_of(st.integers(min_value=2, max_value=70), st.sampled_from([512, 1024, 2048])),
           st.floats(min_value=1e-8, max_value=10.0), st.integers(min_value=1, max_value=10**6),
           st.floats(min_value=0.01, max_value=100.0), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=80, deadline=None)
    def test_fft_prox_matches_dense_basis(self, n, gamma, k, c, seed):
        path = np.arange(n - 1)
        with pytest.MonkeyPatch.context() as mp:  # the closed form at every n
            mp.setattr(energies, "DCT_MIN_NODES", 2)
            ge = GraphEnergy.from_edges(n, path, path + 1, np.full(n - 1, c), np.full(n, 1.0 / n))
        assert ge._factors[1].ndim == 1
        phi = ge.to_functional()
        h = np.random.default_rng(seed).normal(size=n)
        # Both sides carry the rounding of h, and a large gamma * k leaves an
        # output far smaller than h (only the mean survives), so the error is
        # measured relative to h; the prox is a contraction.
        bound = 1e-13 * np.abs(h).max()
        for got, k_ref in ((graph_prox(ge, gamma, h), 1), (phi.prox_iterated(gamma, k, h), k)):
            assert np.abs(got - _dense_prox_power(ge, gamma, k_ref, h)).max() <= bound

    def test_path_keeps_no_basis(self):
        n = 64
        path = np.arange(n - 1)
        ge = GraphEnergy.from_edges(n, path, path + 1, np.full(n - 1, 0.5), np.full(n, 1.0 / n))
        assert all(arr.shape == (n,) for arr in ge._factors)  # evals, twiddle, s
        assert all(not arr.flags.writeable for arr in ge._factors)
        Q = dct_basis(n)  # the basis the twiddle stands for
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-13
        assert all(np.size(v) < n * n for v in vars(ge).values())

    def test_fine_grid_prox_allocates_no_basis(self):
        import tracemalloc

        from gfstack.experiments import fine_grid_dirichlet, line_measure

        n = 1024
        tracemalloc.start()
        try:
            ge = fine_grid_dirichlet(line_measure(n))
            graph_prox(ge, 0.1, np.cos(np.arange(n)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one n x n float basis alone would take 8 MiB

    def test_other_paths_fall_back_to_eigh(self, monkeypatch):
        calls = _count_eigh(monkeypatch)
        n = 16
        c = np.full(n - 1, 0.5)
        c[7] = np.nextafter(0.5, 1.0)
        _path_energy(n, c, np.full(n, 1.0 / n))
        assert calls == [(n, n)]
        w = np.full(n, 1.0 / n)
        w[:2] = [0.5 / n, 1.5 / n]
        _path_energy(n, 0.5, w)
        assert calls == [(n, n)] * 2


class TestEdgeList:
    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_value_and_slope_match_dense_formula(self, n, density, seed):
        r = np.random.default_rng(seed)
        A = r.random((n, n)) * (r.random((n, n)) < density)  # non-symmetric, diagonal kept
        u = r.normal(size=n)
        diff = u[:, None] - u[None, :]
        for loss, dense in (("squared", np.sum(A * diff * diff)),
                            ("absolute", np.sum(A * np.abs(diff)))):
            ge = GraphEnergy(adjacency=A, loss_kind=loss)
            assert ge.value(u) == pytest.approx(dense, rel=1e-12, abs=1e-14)
        sq = GraphEnergy(adjacency=A)
        grad_w = 2.0 * (sq.pair_matrix() @ u) / sq.node_weights
        slope = np.sqrt(np.sum(sq.node_weights * grad_w * grad_w))
        assert sq.to_functional().slope_norm(u) == pytest.approx(slope, rel=1e-12, abs=1e-14)

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_value_and_slope_bitwise_the_np_sum_forms(self, n, seed):
        r = np.random.default_rng(seed)
        A = r.random((n, n))
        u = r.normal(size=n)
        sq, ab = GraphEnergy(adjacency=A), GraphEnergy(adjacency=A, loss_kind="absolute")
        iu, ju, c = sq._edges
        d = u[iu] - u[ju]
        assert sq.value(u).hex() == float(np.sum(c * d * d)).hex()
        assert ab.value(u).hex() == float(np.sum(c * np.abs(d))).hex()
        w = sq.node_weights
        grad_w = 2.0 * (np.bincount(iu, c * d, n) - np.bincount(ju, c * d, n)) / w
        slope = float(np.sqrt(np.sum(w * grad_w * grad_w)))
        assert sq.to_functional().slope_norm(u).hex() == slope.hex()

    def test_edges_read_only(self, rng):
        ge = GraphEnergy(adjacency=rng.random((4, 4)))
        for arr in ge._edges:
            assert not arr.flags.writeable
        assert not ge.adjacency.flags.writeable  # the stored copy, like the edges


def _dense_fine_grid(n):
    """The fine grid built from its dense symmetric adjacency, the edge build's reference."""
    from gfstack.experiments import KERNEL_SECOND_MOMENT, line_measure

    measure = line_measure(n)
    coef = KERNEL_SECOND_MOMENT / (2.0 * np.diff(measure.atoms[:, 0]))
    A = np.zeros((n, n))
    A[np.arange(n - 1), np.arange(1, n)] = coef
    A[np.arange(1, n), np.arange(n - 1)] = coef
    return GraphEnergy(adjacency=A, node_weights=measure.weights)


def _same_arrays(xs, ys):
    return len(xs) == len(ys) and all(
        x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(xs, ys))


class TestEdgeBuiltEnergy:
    @pytest.mark.parametrize("n", [64, 1024])
    def test_fine_grid_equals_dense_build(self, monkeypatch, n, rng):
        from gfstack.experiments import fine_grid_dirichlet, line_measure

        calls = _count_eigh(monkeypatch)
        ge = fine_grid_dirichlet(line_measure(n))
        dense = _dense_fine_grid(n)
        assert ge.adjacency is None  # no n x n array was built
        assert _same_arrays(ge._edges, dense._edges)
        assert _same_arrays(ge._factors, dense._factors)  # evals, twiddle, s: no basis kept
        assert _same_arrays(spectral_factors(ge), spectral_factors(dense))  # Q formed by the oracle
        assert _same_arrays((ge.node_weights,), (dense.node_weights,))
        phi, phi_dense = ge.to_functional(), dense.to_functional()
        for u in (np.cos(np.pi * line_measure(n).atoms[:, 0]), rng.normal(size=n)):
            assert ge.value(u) == dense.value(u)
            assert phi.slope_norm(u) == phi_dense.slope_norm(u)
            for gamma in (1e-3, 0.1, 1.0):
                assert np.array_equal(graph_prox(ge, gamma, u), graph_prox(dense, gamma, u))
            assert np.array_equal(phi.prox_iterated(0.05, 7, u),
                                  phi_dense.prox_iterated(0.05, 7, u))
        assert calls == []

    def test_pair_matrix_from_edges(self):
        ge = GraphEnergy.from_edges(4, [0, 1], [2, 3], [1.5, 0.25], np.full(4, 0.25))
        assert ge.adjacency is None
        A = np.zeros((4, 4))
        A[0, 2], A[1, 3] = 1.5, 0.25
        assert np.array_equal(ge.pair_matrix(), GraphEnergy(adjacency=A).pair_matrix())

    @pytest.mark.parametrize("n", [16, 96])
    def test_eigh_fine_grid_equals_dense_build(self, monkeypatch, n, rng):
        # below DCT_MIN_NODES, and off the powers of two, the fine grid takes
        # eigh of the edge-built pair matrix: it, the factors and the prox are
        # bitwise the dense build's
        from gfstack.experiments import fine_grid_dirichlet, line_measure

        calls = _count_eigh(monkeypatch)
        ge = fine_grid_dirichlet(line_measure(n))
        dense = _dense_fine_grid(n)
        assert len(calls) == 2 and ge.adjacency is None
        assert ge.pair_matrix().tobytes() == dense.pair_matrix().tobytes()
        assert _same_arrays(ge._factors, dense._factors)  # evals, basis Q, s
        for u in (np.cos(np.pi * line_measure(n).atoms[:, 0]), rng.normal(size=n)):
            for gamma in (1e-3, 0.1, 1.0):
                assert np.array_equal(graph_prox(ge, gamma, u), graph_prox(dense, gamma, u))

    @given(st.integers(min_value=1, max_value=10), st.floats(min_value=0.0, max_value=1.0),
           st.sampled_from(["squared", "absolute"]), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_edges_of_any_adjacency(self, n, density, loss, seed):
        # the edge list of a dense build, shuffled and padded with zero-coefficient
        # pairs, builds an energy with the same edges and values
        r = np.random.default_rng(seed)
        A = r.random((n, n)) * (r.random((n, n)) < density)
        w = r.random(n) + 0.1
        w /= w.sum()
        dense = GraphEnergy(adjacency=A, loss_kind=loss, node_weights=w)
        iu, ju, c = dense._edges
        zi, zj = np.triu_indices(n, k=1)
        iu, ju = np.concatenate([iu, zi]), np.concatenate([ju, zj])
        c = np.concatenate([c, np.zeros(zi.size)])
        keep = np.concatenate([np.ones(dense._edges[0].size, bool), A[zi, zj] + A[zj, zi] == 0])
        order = r.permutation(int(keep.sum()))
        ge = GraphEnergy.from_edges(n, iu[keep][order], ju[keep][order], c[keep][order], w,
                                    loss_kind=loss)
        assert _same_arrays(ge._edges, dense._edges)
        u = r.normal(size=n)
        assert ge.value(u) == dense.value(u)
        if loss == "squared":
            evals, ref = ge._factors[0], dense._factors[0]
            assert np.abs(evals - ref).max() <= 1e-12 * max(ref.max(), 1.0)
            h = r.normal(size=n)
            assert np.allclose(graph_prox(ge, 0.3, h), graph_prox(dense, 0.3, h),
                               rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("iu, ju, c, w", [
        ([0, 1], [1, 2], [1.0, -0.5], np.full(3, 1 / 3)),   # negative coefficient
        ([0, 1], [1, 3], [1.0, 1.0], np.full(3, 1 / 3)),    # j out of range
        ([-1, 0], [1, 2], [1.0, 1.0], np.full(3, 1 / 3)),   # i out of range
        ([0, 1], [1, 1], [1.0, 1.0], np.full(3, 1 / 3)),    # i == j
        ([0, 2], [1, 1], [1.0, 1.0], np.full(3, 1 / 3)),    # i > j
        ([0, 1], [1, 2], [1.0, 1.0], np.full(4, 1 / 4)),    # four weights for three nodes
        ([0, 1], [1, 2], [1.0, 1.0], np.array([0.5, 0.5, 0.0])),  # a zero weight
        ([0, 0], [1, 1], [1.0, 2.0], np.full(3, 1 / 3)),    # one pair, two edges
        ([0, 1], [1, 2], [1.0], np.full(3, 1 / 3)),         # one coefficient short
        ([0.0, 1.0], [1.0, 2.0], [1.0, 1.0], np.full(3, 1 / 3)),  # float endpoints
    ])
    def test_from_edges_validation(self, iu, ju, c, w):
        with pytest.raises(ConstructionError):
            GraphEnergy.from_edges(3, iu, ju, c, w)

    def test_from_edges_loss_kind_validated(self):
        with pytest.raises(ConstructionError):
            GraphEnergy.from_edges(2, [0], [1], [1.0], loss_kind="huber")


class TestLrContraction:
    @pytest.mark.parametrize("nodes", [2, 5])
    def test_batch_equals_per_r_reports(self, nodes, rng):
        A = rng.random((nodes, nodes))
        A[np.diag_indices(nodes)] = 0.0
        ge = GraphEnergy(adjacency=A)
        x, y = rng.normal(size=nodes), rng.normal(size=nodes)
        rs = (1.0, 2.0, 3.0, 4.0, np.inf)
        batch = lr_contraction_checks(ge, x, y, 0.5, rs, tol=1e-6)
        assert [rep.r for rep in batch] == list(rs)
        for rep, r in zip(batch, rs):
            one = lr_contraction_checks(ge, x, y, 0.5, (r,), tol=1e-6)[0]
            assert [float(v).hex() for v in astuple(rep)] == [float(v).hex() for v in astuple(one)]

    def test_lhs_is_the_distance_of_the_two_flows(self, rng):
        A = rng.random((5, 5))
        A[np.diag_indices(5)] = 0.0
        ge = GraphEnergy(adjacency=A)
        x, y = rng.normal(size=5), rng.normal(size=5)
        phi = ge.to_functional()
        ux, uy = (gradient_flow(phi, z, [0.5], 1e-6).trajectory.states[-1] for z in (x, y))
        for rep in lr_contraction_checks(ge, x, y, 0.5, (1.0, 3.0, np.inf), tol=1e-6):
            want = weighted_lr_norm(ux - uy, ge.node_weights, rep.r)
            assert rep.lhs == want and 0.0 < rep.lhs < rep.rhs

    def test_zero_time_is_the_identity(self):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = lr_contraction_checks(ge, [1.0, 0.0], [0.0, 0.0], 0.0, (2.0,))[0]
        assert rep.ok and rep.lhs == rep.rhs

    @pytest.mark.parametrize("t", [-3.0, -1e-300, np.nan, np.inf])
    def test_bad_time_rejected(self, t):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(PreconditionError):
            lr_contraction_checks(ge, [1.0, 0.0], [0.0, 0.0], t, (2.0,))

    @pytest.mark.parametrize("r", [0.0, 0.5, np.nan, -np.inf])
    def test_bad_exponent_rejected(self, r):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(PreconditionError):
            lr_contraction_checks(ge, [1.0, 0.0], [0.0, 0.0], 0.5, (r,))
        with pytest.raises(PreconditionError):  # one bad r among good ones
            lr_contraction_checks(ge, [1.0, 0.0], [0.0, 0.0], 0.5, (1.0, r, np.inf))

    def test_identical_states(self):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        rep = lr_contraction_checks(ge, [1.0, 0.0], [1.0, 0.0], 0.5, (2.0,))[0]
        assert rep.ok and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_two_node_closed_form(self):
        ge = GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]))
        for r in (1.0, 2.0, 4.0):
            rep = lr_contraction_checks(ge, [1.0, 0.0], [0.0, 0.0], 0.5, (r,))[0]
            assert rep.ok

    def test_five_node_random(self, rng):
        A = rng.random((5, 5))
        A[np.diag_indices(5)] = 0.0
        ge = GraphEnergy(adjacency=A)
        x, y = rng.normal(size=5), rng.normal(size=5)
        rep = lr_contraction_checks(ge, x, y, 0.5, (3.0,), tol=1e-6)[0]
        assert rep.ok

    def test_infinity_norm_proxy(self, rng):
        A = rng.random((4, 4))
        A[np.diag_indices(4)] = 0.0
        ge = GraphEnergy(adjacency=A)
        rep = lr_contraction_checks(ge, rng.normal(size=4), rng.normal(size=4), 0.25, (np.inf,))[0]
        assert rep.ok

    def test_prox_contracts_all_lr_norms(self, rng):
        # resolvent form of the exchange-stability contraction property
        A = rng.random((5, 5))
        A[np.diag_indices(5)] = 0.0
        ge = GraphEnergy(adjacency=A)
        for _ in range(20):
            x, y = rng.normal(size=5), rng.normal(size=5)
            g = float(rng.uniform(0.05, 1.0))
            px, py = graph_prox(ge, g, x), graph_prox(ge, g, y)
            for r in (1.0, 2.0, 3.0, np.inf):
                lhs = weighted_lr_norm(px - py, ge.node_weights, r)
                rhs = weighted_lr_norm(x - y, ge.node_weights, r)
                assert lhs <= rhs + 1e-10


class TestGraphEnergySerialization:
    def test_cap_exactly_ramp_area(self):
        g = p0_family(a=0.2, w=0.4, cap=0.4)  # cap == slope * w: immediate descent
        assert abs(g(10.0) - 0.4) < 1e-14
        assert g.derivative(0.2 + 0.4 + 0.2) < 1.0  # already descending

    def test_tiny_rise_width(self):
        g = p0_family(a=0.05, w=0.01)
        xs = np.linspace(-1, 1, 401)
        dv = np.array([g.derivative(float(x)) for x in xs])
        assert dv.max() <= 1.0 + 1e-12
        assert abs(g(0.5) - g.plateau) < 1e-14

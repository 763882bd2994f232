"""Prox, Moreau envelope, and kappa behaviour against closed forms and grids."""

import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfstack.convex import (
    PROX_GRADIENT_MAX_ITER,
    PROX_RESIDUAL_TOL,
    ProperFunctional,
    abs_functional,
    as_point,
    check_lambda_convexity,
    constant_functional,
    default_triple_sampler,
    envelope_functional,
    kappa,
    moreau_envelope,
    prox,
    quadratic_functional,
    weighted_norm,
)
from gfstack.energies import GraphEnergy, counterexample_functional, quadratic_map_energy
from gfstack.errors import (
    ConstructionError,
    IntervalError,
    PreconditionError,
    SolverDiagnosticError,
)

from oracles import gradient_prox_loop, gradient_prox_loop_2020, grid_prox_1d

CLOSED_FORM_TOL = 1e-8
ORACLE_TOL = 1e-6


class TestKappa:
    def test_zero_modulus_is_time(self):
        assert kappa(1.0, 0.0) == 1.0
        assert kappa(0.37, 0.0) == 0.37

    def test_positive_modulus_value(self):
        assert abs(kappa(1.0, 1.0) - (np.e**2 - 1.0) / 2.0) < 1e-14

    def test_negative_modulus_value_and_interval(self):
        val = kappa(1.0, -1.0)
        assert abs(val - (1.0 - np.exp(-2.0)) / 2.0) < 1e-14
        assert 0.0 < val < 1.0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(IntervalError):
            kappa(0.0, 1.0)
        with pytest.raises(IntervalError):
            kappa(-0.5, -2.0)

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=-5.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_continuity_at_zero_and_interval(self, t, lam):
        val = kappa(t, lam)
        assert val > 0.0
        if lam < 0:
            assert val < 1.0 / abs(lam)
        # numeric continuity across the lam = 0 branch
        assert abs(kappa(t, 1e-13) - t) < 1e-9 * t

    def test_monotone_in_time(self):
        ts = np.linspace(0.1, 3.0, 20)
        for lam in (-1.0, 0.0, 2.0):
            vals = [kappa(float(t), lam) for t in ts]
            assert np.all(np.diff(vals) > 0)


class TestProx:
    def test_zero_functional_identity(self):
        z = constant_functional(0.0, dim=2)
        assert np.allclose(prox(z, 1.0, [3.0, -2.0]), [3.0, -2.0])

    def test_quadratic_first_order_condition(self):
        q = quadratic_functional(lam=1.0)
        got = prox(q, 0.5, 2.0)[0]
        assert abs(got - 2.0 / 1.5) < 1e-14
        # cross-check by grid brute force on [-4, 4]
        y_star, _ = grid_prox_1d(lambda y: 0.5 * y * y, 0.5, 2.0, -4.0, 4.0, weight=1.0)
        assert abs(got - y_star) < 4e-3  # grid pitch

    def test_soft_threshold(self):
        a = abs_functional()
        assert abs(prox(a, 0.5, 2.0)[0] - 1.5) < 1e-14
        y_star, _ = grid_prox_1d(np.abs, 0.5, 2.0, -4.0, 4.0)
        assert abs(y_star - 1.5) < 4e-3

    def test_gamma_interval_enforced(self):
        neg = ProperFunctional(dim=1, value=lambda x: -0.25 * x[0] ** 2, lam=-0.5,
                               weights=[1.0], gradient=lambda x: -0.5 * x)
        prox_ok = prox(neg, 1.0, 0.0)
        assert np.allclose(prox_ok, 0.0)
        with pytest.raises(IntervalError):
            prox(neg, 2.5, 0.0)  # 2.5 >= 1/|lam| = 2

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("make", [quadratic_functional, abs_functional])
    def test_non_finite_gamma_is_interval_error(self, gamma, make):
        # no NaN answer and no limit point: a non-finite step is outside the interval
        with pytest.raises(IntervalError):
            prox(make(), gamma, [1.0])
        with pytest.raises(IntervalError):
            envelope_functional(make(), gamma)

    def test_generic_solver_matches_closed_forms(self, rng):
        q = quadratic_functional(lam=1.0)
        bare_q = ProperFunctional(dim=1, value=q.value, lam=1.0, weights=q.weights,
                                  gradient=lambda x: x)
        a = abs_functional()
        bare_a = ProperFunctional(dim=1, value=a.value, lam=0.0, weights=a.weights)
        for _ in range(25):
            x = float(rng.uniform(-3, 3))
            g = float(rng.uniform(0.05, 2.0))
            assert abs(prox(bare_q, g, x)[0] - x / (1 + g)) < ORACLE_TOL
            # a value oracle alone has no certified prox
            with pytest.raises(PreconditionError):
                prox(bare_a, g, x)

    def test_prox_lipschitz_modulus(self, rng):
        for phi in (quadratic_functional(lam=2.0), abs_functional(),
                    quadratic_functional(lam=0.5, dim=3)):
            for _ in range(100):
                g = float(rng.uniform(0.05, 1.5))
                x = rng.normal(size=phi.dim) * 2
                y = rng.normal(size=phi.dim) * 2
                lip = 1.0 / (1.0 + g * phi.lam)
                lhs = phi.norm(prox(phi, g, x) - prox(phi, g, y))
                assert lhs <= lip * phi.norm(x - y) * (1 + 1e-6) + 1e-12

    def test_library_functionals_carry_a_prox(self):
        A = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        w = np.array([0.2, 0.3, 0.5])
        built = [
            quadratic_functional(lam=1.0, dim=2),
            abs_functional(dim=2),
            constant_functional(1.5, dim=2),
            quadratic_map_energy(w),
            envelope_functional(abs_functional(dim=2), 0.5),
            GraphEnergy(adjacency=A, node_weights=w, loss_kind="squared").to_functional(),
        ]
        for phi in built:
            assert phi.prox_closed_form is not None or phi.gradient is not None, phi.name
            assert np.all(np.isfinite(prox(phi, 0.5, np.linspace(-1.0, 1.0, phi.dim))))
        # graph total variation has no certified prox, and says so
        tv = GraphEnergy(adjacency=A, node_weights=w, loss_kind="absolute").to_functional()
        with pytest.raises(PreconditionError, match="prox_closed_form or gradient"):
            prox(tv, 0.5, np.linspace(-1.0, 1.0, 3))
        # the evaluation-only counterexample has no prox, and says so unevaluated
        bare = counterexample_functional(1.0)
        calls = []
        probe = replace(bare, value=lambda u: calls.append(u) or bare.value(u))
        with pytest.raises(PreconditionError, match="prox_closed_form or gradient"):
            prox(probe, 0.5, [1.0, 0.0])
        assert calls == []
        # an inadmissible step is reported first
        with pytest.raises(IntervalError):
            prox(probe, -1.0, [1.0, 0.0])

    def test_rejects_negative_infinity_values(self):
        bad = ProperFunctional(dim=1, value=lambda x: -np.inf, weights=[1.0])
        with pytest.raises(ConstructionError):
            bad.evaluate(0.0)


class TestMoreauEnvelope:
    def test_constant_functional(self):
        c = constant_functional(3.25, dim=2)
        assert moreau_envelope(c, 0.7, [1.0, 1.0]) == 3.25

    def test_quadratic_closed_form(self):
        # [F]^g(x0) = lam x0^2 / (2 (1 + g lam)) for F = (lam/2) x^2
        for lam in (0.5, 1.0, 2.0):
            q = quadratic_functional(lam=lam)
            for g in (0.1, 0.5, 1.3):
                for x0 in (-2.0, 0.7):
                    want = lam * x0 * x0 / (2.0 * (1.0 + g * lam))
                    assert abs(moreau_envelope(q, g, x0) - want) < CLOSED_FORM_TOL

    def test_huber_value(self):
        a = abs_functional()
        assert abs(moreau_envelope(a, 1.0, 2.0) - 1.5) < CLOSED_FORM_TOL
        _, val = grid_prox_1d(np.abs, 1.0, 2.0, -4.0, 4.0)
        assert abs(moreau_envelope(a, 1.0, 2.0) - val) < ORACLE_TOL

    def test_never_exceeds_value_and_equality_at_minimizer(self, rng):
        for phi in (quadratic_functional(lam=1.0), abs_functional()):
            for _ in range(20):
                x = float(rng.uniform(-3, 3))
                g = float(rng.uniform(0.05, 2.0))
                assert moreau_envelope(phi, g, x) <= phi.evaluate(x) + 1e-12
            assert abs(moreau_envelope(phi, 0.8, 0.0) - phi.evaluate(0.0)) < 1e-12

    def test_monotone_in_gamma(self, rng):
        for phi in (quadratic_functional(lam=1.0), abs_functional()):
            for _ in range(20):
                x = float(rng.uniform(-3, 3))
                g = sorted(rng.uniform(0.05, 2.0, size=2))
                lo, hi = moreau_envelope(phi, g[1], x), moreau_envelope(phi, g[0], x)
                assert lo <= hi + 1e-9

    def test_semigroup_identity(self, rng):
        for phi in (quadratic_functional(lam=1.0), abs_functional()):
            for _ in range(10):
                x = float(rng.uniform(-2, 2))
                g, d = rng.uniform(0.1, 0.6, size=2)
                nested = moreau_envelope(envelope_functional(phi, g), d, x)
                direct = moreau_envelope(phi, g + d, x)
                assert abs(nested - direct) < 1e-7

    def test_continuity_in_gamma_on_monotone_sequences(self):
        phi = abs_functional()
        x = 1.7
        target = moreau_envelope(phi, 0.5, x)
        decreasing = [moreau_envelope(phi, 0.5 + 2.0**-k, x) for k in range(2, 12)]
        increasing = [moreau_envelope(phi, 0.5 - 2.0**-k, x) for k in range(2, 12)]
        assert abs(decreasing[-1] - target) < 1e-3
        assert abs(increasing[-1] - target) < 1e-3
        assert np.all(np.diff(np.abs(np.array(decreasing) - target)) < 0)
        assert np.all(np.diff(np.abs(np.array(increasing) - target)) < 0)

    def test_vanishing_gamma_recovers_value(self):
        phi = abs_functional()
        x = -1.3
        gaps = [abs(moreau_envelope(phi, 2.0**-k, x) - phi.evaluate(x)) for k in range(1, 10)]
        assert np.all(np.diff(gaps) < 0)
        assert gaps[-1] < 1e-3


def _closed_form_zoo(kind: int, dim: int, lam: float, seed: int) -> ProperFunctional:
    if kind == 0:
        return quadratic_functional(lam=lam, dim=dim)
    if kind == 1:
        return abs_functional(dim=dim)
    A = np.random.default_rng(seed).random((dim + 1, dim + 1))
    A[np.diag_indices(dim + 1)] = 0.0
    return GraphEnergy(adjacency=A).to_functional()


zoo_draws = st.tuples(
    st.integers(0, 2),
    st.integers(1, 4),
    st.floats(0.2, 3.0),
    st.integers(0, 2**32 - 1),
)


class TestGradientProx:
    """The certified gradient path that envelope functionals take through prox."""

    @given(zoo_draws, st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.01, 3.0))
    @settings(max_examples=80, deadline=None)
    def test_nested_prox_matches_semigroup_identity(self, draw, g1, g2, scale):
        phi = _closed_form_zoo(*draw)
        x = np.random.default_rng(draw[3]).normal(size=phi.dim) * scale
        got = prox(envelope_functional(phi, g1), g2, x)
        # prox_{g2}(e_{g1} phi)(x) = (g1 x + g2 prox_{g1+g2} phi(x)) / (g1 + g2)
        want = (g1 * x + g2 * prox(phi, g1 + g2, x)) / (g1 + g2)
        eps = PROX_RESIDUAL_TOL * (1.0 + phi.norm(x))
        assert phi.norm(got - want) <= eps

    @given(st.integers(2, 16), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0),
           st.floats(0.05, 1.0), st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_nested_graph_envelope_points_are_certified(self, n, seed, g1, g2, scale):
        r = np.random.default_rng(seed)
        A = r.random((n, n))
        A[np.diag_indices(n)] = 0.0
        env = envelope_functional(GraphEnergy(adjacency=A).to_functional(), g1)
        x = r.normal(size=n) * scale
        y = prox(env, g2, x)  # no closed form: the certified gradient path
        # ||grad h(y)||_w <= eps * mu, recomputed here in the solver's own form
        grad_h = env.gradient(y) + (y - x) / g2
        mu = 1.0 / g2 + env.lam
        assert env.norm(grad_h) / mu <= PROX_RESIDUAL_TOL * (1.0 + env.norm(x))

    @given(zoo_draws, st.floats(0.05, 1.0), st.floats(0.05, 1.0), st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_nested_prox_bitwise_the_reference_loop(self, draw, g1, g2, scale):
        env = envelope_functional(_closed_form_zoo(*draw), g1)
        x = np.random.default_rng(draw[3]).normal(size=env.dim) * scale
        want = gradient_prox_loop(env, g2, x, PROX_GRADIENT_MAX_ITER, PROX_RESIDUAL_TOL)
        assert want is not None
        assert prox(env, g2, x).tobytes() == want.tobytes()

    @given(st.booleans(), st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0.05, 1.0),
           st.floats(0.05, 1.0), st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_points_and_values_agree_with_the_2020_step_rule(self, graph, n, seed, g1, g2, scale):
        # the 2020 rule caps each step at 1/(2 L_k): a second certified solver
        r = np.random.default_rng(seed)
        if graph:
            A = r.random((n + 1, n + 1))
            A[np.diag_indices(n + 1)] = 0.0
            phi = GraphEnergy(adjacency=A).to_functional()
        else:
            phi = abs_functional(dim=n)  # its envelope is a Huber function
        env = envelope_functional(phi, g1)
        x = r.normal(size=env.dim) * scale
        mu, eps = 1.0 / g2 + env.lam, PROX_RESIDUAL_TOL * (1.0 + env.norm(x))
        new = prox(env, g2, x)
        old = gradient_prox_loop_2020(env, g2, x, PROX_GRADIENT_MAX_ITER, PROX_RESIDUAL_TOL)
        assert old is not None
        values = []
        for y in (new, old):
            assert env.norm(env.gradient(y) + (y - x) / g2) / mu <= eps
            d = y - x
            values.append(env.evaluate(y) + float((env.weights * d * d).sum()) / (2.0 * g2))
        assert env.norm(new - old) <= 2.0 * eps
        # h(y) - min h <= ||grad h(y)||^2 / (2 mu) <= mu eps^2 / 2 at each certified y
        assert abs(values[0] - values[1]) <= 1e-14 * max(map(abs, values)) + 0.5 * mu * eps * eps

    @pytest.mark.parametrize("ratios", [(0.51,), (0.6,), (0.7,), (0.51, 0.6, 0.7)])
    def test_overstated_modulus_takes_only_finite_steps(self, ratios):
        # F(y) = sum_i w_i a_i y_i^2 / 2 declared 3-convex, so h has modulus
        # ratio * mu along axis i for the declared mu = 4: the modulus check
        # passes, and below 1/sqrt(2) the first step meets 2 lambda_0^2 L_1^2 < 1
        gamma, lam = 1.0, 3.0
        mu = 1.0 / gamma + lam
        a = np.array(ratios) * mu - 1.0 / gamma
        queried = []

        def gradient(y):
            queried.append(y.copy())
            return a * y

        liar = ProperFunctional(dim=a.size, value=lambda y: 0.5 * float(np.mean(a * y * y)),
                                lam=lam, gradient=gradient)
        x = np.full(a.size, 0.3)
        t0 = time.perf_counter()
        try:
            y = prox(liar, gamma, x)
        except SolverDiagnosticError as exc:
            assert exc.residual is not None
        else:
            eps = PROX_RESIDUAL_TOL * (1.0 + liar.norm(x))
            assert liar.norm(a * y + (y - x) / gamma) / mu <= eps
        assert time.perf_counter() - t0 < 2.0
        assert all(np.all(np.isfinite(q)) for q in queried)

    @given(zoo_draws, st.floats(0.05, 1.5), st.floats(0.01, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_envelope_gradient_matches_central_differences(self, draw, gamma, scale):
        phi = _closed_form_zoo(*draw)
        env = envelope_functional(phi, gamma)
        x = np.random.default_rng(draw[3]).normal(size=phi.dim) * scale
        grad = env.gradient(x)
        h = 1e-6
        for i in range(phi.dim):
            e = np.zeros(phi.dim)
            e[i] = h
            partial = (env.evaluate(x + e) - env.evaluate(x - e)) / (2.0 * h)
            # the Riesz gradient in <u, v>_w has Euclidean partials w_i * grad_i
            assert abs(partial / phi.weights[i] - grad[i]) <= 1e-4 * (1.0 + abs(grad[i]))

    @pytest.mark.parametrize("gradient", [
        lambda y: -4.0 * y,  # gradient of the concave -2 y^2, declared 0-convex
        lambda y: 10.0 * np.sin(40.0 * y),  # not monotone
        lambda y: 3.0 * np.sign(y - 0.1),  # monotone but not differentiable at 0.1
        lambda y: np.full(y.shape, np.nan),
    ])
    def test_false_gradient_raises_in_bounded_time(self, gradient):
        liar = ProperFunctional(dim=1, value=lambda y: float(y[0] ** 2), lam=0.0,
                                weights=[1.0], gradient=gradient)
        t0 = time.perf_counter()
        with pytest.raises(SolverDiagnosticError) as exc:
            prox(liar, 1.0, [0.3])
        assert time.perf_counter() - t0 < 2.0
        assert exc.value.residual is not None


def _repeat_sampler(x, y, t):
    """sampler(n) that returns the one triple (x, y, t), n times."""
    return lambda n: (np.tile(x, (n, 1)), np.tile(y, (n, 1)), np.full(n, t))


def _per_triple_draws(phi, rng, scale, n):
    """Reference draws for default_triple_sampler: one triple at a time, x, then y, then t."""
    if phi.domain_hint is not None:
        lo, hi = (np.asarray(b, dtype=float).reshape(-1) for b in phi.domain_hint)
    else:
        lo, hi = -scale * np.ones(phi.dim), scale * np.ones(phi.dim)
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(0.0, 1.0)) for _ in range(n)]


def _per_triple_check(phi, lam, draws, triples=(), tol=1e-8):
    """Reference check_lambda_convexity, one triple at a time: (n_checked, violations, max slack)."""
    n_checked, violations, max_slack = 0, [], 0.0
    for x, y, t in list(triples) + list(draws):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        fx, fy = phi.evaluate(x), phi.evaluate(y)
        if not (np.isfinite(fx) and np.isfinite(fy)):
            n_checked += 1
            continue
        lhs = phi.evaluate(t * x + (1.0 - t) * y)
        dxy = phi.norm(x - y)
        rhs = t * fx + (1.0 - t) * fy - 0.5 * lam * t * (1.0 - t) * dxy * dxy
        slack = lhs - rhs
        if slack > tol:
            violations.append((x, y, t, float(slack)))
            max_slack = max(max_slack, float(slack))
        n_checked += 1
    return n_checked, violations, max_slack


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


class TestTripleSampler:
    @given(st.integers(1, 5), st.integers(1, 64), st.floats(0.01, 100.0), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_batch_is_bitwise_the_per_triple_draws(self, dim, n, scale, hinted, seed):
        phi = quadratic_functional(lam=1.0, dim=dim)
        if hinted:
            lo = np.random.default_rng(seed).uniform(-5.0, 5.0, dim)
            phi = replace(phi, domain_hint=(lo, lo + np.arange(1.0, dim + 1.0)))
        rng_batch, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        xs, ys, ts = default_triple_sampler(phi, rng_batch, scale=scale)(n)
        want = _per_triple_draws(phi, rng_oracle, scale, n)
        assert xs.shape == ys.shape == (n, dim) and ts.shape == (n,)
        assert _bits(xs) == _bits([x for x, _, _ in want])
        assert _bits(ys) == _bits([y for _, y, _ in want])
        assert _bits(ts) == _bits([t for _, _, t in want])
        assert rng_batch.bit_generator.state == rng_oracle.bit_generator.state


class TestSumForms:
    """The prox layer sums with ndarray.sum and passes float vectors through as_point
    untouched; each result is pinned bitwise to the np.sum and coercing forms."""

    @given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3),
           st.floats(-6.0, 6.0))
    @settings(max_examples=80, deadline=None)
    def test_bitwise_the_np_sum_forms(self, dim, seed, gamma, log_scale):
        r = np.random.default_rng(seed)
        w = r.random(dim) + 0.01
        w /= w.sum()
        x, y = r.normal(size=(2, dim)) * 10.0**log_scale
        for raw in (x, x.tolist(), x.astype(np.float32), x.reshape(1, -1), np.repeat(x, 2)[::2]):
            got, want = as_point(raw, dim), np.atleast_1d(np.asarray(raw, dtype=float)).reshape(-1)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert as_point(x, dim) is x
        with pytest.raises(ValueError):
            as_point(x, dim + 1)
        A = r.random((dim, dim))
        phi = GraphEnergy(adjacency=A, node_weights=w).to_functional()
        assert phi.inner(x, y).hex() == float(np.sum(phi.weights * x * y)).hex()
        assert phi.norm(x).hex() == float(np.sqrt(np.sum(phi.weights * x * x))).hex()
        assert weighted_norm(x, w).hex() == float(np.sqrt(np.sum(w * x * x))).hex()
        for f in (phi, envelope_functional(phi, 0.5)):
            p = prox(f, gamma, x)
            d = p - x
            want = f.evaluate(p) + float(np.sum(f.weights * d * d)) / (2.0 * gamma)
            assert moreau_envelope(f, gamma, x).hex() == want.hex()


def _oracle_cases():
    A = np.random.default_rng(7).random((4, 4))
    A[np.diag_indices(4)] = 0.0
    return [
        (quadratic_functional(lam=1.0, dim=3, weights=[0.5, 0.3, 0.2]), 1.0, 3.0),
        (abs_functional(dim=2), 0.5, 3.0),  # inflated modulus: violations
        (counterexample_functional(1.0), 1.0, 3.0),
        (GraphEnergy(adjacency=A).to_functional(), 0.0, 2.0),
    ]


def _report_bits(rep):
    """(n_checked, violation bits, max slack bits) of a ConvexityReport."""
    return (rep.n_checked, [tuple(_bits(v) for v in viol) for viol in rep.violations],
            _bits(rep.max_slack_violation))


class TestValueRows:
    @pytest.mark.parametrize("lam", [0.0, 1.0, 4.0])
    @pytest.mark.parametrize("inflated", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_array_path_matches_per_row_path_and_oracle(self, lam, inflated, seed):
        phi = counterexample_functional(lam)
        # the exact modulus is 2*lam, along (1, -1); above it the samples violate
        check_lam = 2.0 * lam + 1.0 if inflated else lam
        per_row = replace(phi, value_rows=None)
        triples = [(np.array([-2.0, 1.0]), np.array([2.0, 0.5]), 0.5),
                   (np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.25)]
        reps = [check_lambda_convexity(f, check_lam, default_triple_sampler(
            f, np.random.default_rng(seed)), 300, triples=triples) for f in (phi, per_row)]
        n, viol, max_slack = _per_triple_check(
            phi, check_lam, _per_triple_draws(phi, np.random.default_rng(seed), 3.0, 300),
            triples)
        oracle = (n, [(_bits(x), _bits(y), _bits(t), _bits(s)) for x, y, t, s in viol],
                  _bits(max_slack))
        assert _report_bits(reps[0]) == _report_bits(reps[1]) == oracle
        assert bool(viol) == inflated

    @pytest.mark.parametrize("bad", [
        lambda U: np.where(U[:, 0] < 0, np.nan, 0.0),
        lambda U: np.where(U[:, 0] < 0, -np.inf, 0.0),
        lambda U: np.zeros(len(U) - 1),
        lambda U: np.zeros((len(U), 1)),
    ], ids=["nan", "-inf", "short", "column"])
    def test_bad_value_rows_raise(self, bad):
        phi = ProperFunctional(dim=1, value=lambda x: 0.0, weights=[1.0], value_rows=bad)
        with pytest.raises(ConstructionError):
            check_lambda_convexity(phi, 0.0, default_triple_sampler(
                phi, np.random.default_rng(0)), 50)


class TestLambdaConvexity:
    @pytest.mark.parametrize("case", range(4))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batch_matches_per_triple_oracle(self, case, seed):
        phi, lam, scale = _oracle_cases()[case]
        triples = [(np.full(phi.dim, -2.0), np.full(phi.dim, 2.0), 0.5),
                   (np.linspace(0.1, 0.9, phi.dim), np.zeros(phi.dim), 0.25)]
        rep = check_lambda_convexity(phi, lam, default_triple_sampler(
            phi, np.random.default_rng(seed), scale=scale), 300, triples=triples)
        n, viol, max_slack = _per_triple_check(
            phi, lam, _per_triple_draws(phi, np.random.default_rng(seed), scale, 300), triples)
        assert rep.n_checked == n == 302
        assert len(rep.violations) == len(viol)
        for got, want in zip(rep.violations, viol):
            assert _bits(got[0]) == _bits(want[0]) and _bits(got[1]) == _bits(want[1])
            assert _bits(got[2:]) == _bits(want[2:])
        assert _bits(rep.max_slack_violation) == _bits(max_slack)
        if case == 1:
            assert viol  # the oracle comparison covers a nonempty violation list

    def test_infinite_endpoint_skips_the_midpoint(self):
        calls = []

        def indicator(x):
            calls.append(np.array(x))
            return 0.0 if np.all(np.abs(x) <= 1.0) else np.inf

        box = ProperFunctional(dim=2, value=indicator, prox_closed_form=lambda g, x: np.clip(x, -1, 1))
        rep = check_lambda_convexity(box, 0.0, default_triple_sampler(
            box, np.random.default_rng(3), scale=1.5), 200)
        draws = _per_triple_draws(box, np.random.default_rng(3), 1.5, 200)
        inside = [np.all(np.abs(x) <= 1.0) and np.all(np.abs(y) <= 1.0) for x, y, _ in draws]
        assert rep.ok and rep.n_checked == 200
        assert 0 < sum(inside) < 200
        # endpoints of every row, then midpoints of the rows with both endpoints finite only
        assert len(calls) == 400 + sum(inside)
        mids = [t * x + (1.0 - t) * y for (x, y, t), ok in zip(draws, inside) if ok]
        assert _bits(calls[400:]) == _bits(mids)

    @pytest.mark.parametrize("bad", [-np.inf, np.nan])
    def test_improper_values_raise(self, bad):
        at_endpoint = ProperFunctional(dim=1, value=lambda x: bad if x[0] < 0 else 0.0, weights=[1.0])
        with pytest.raises(ConstructionError):
            check_lambda_convexity(at_endpoint, 0.0, default_triple_sampler(
                at_endpoint, np.random.default_rng(0)), 50)
        at_midpoint = ProperFunctional(dim=1, value=lambda x: bad if x[0] == 0.0 else abs(x[0]),
                                       weights=[1.0])
        with pytest.raises(ConstructionError):
            check_lambda_convexity(at_midpoint, 0.0, _repeat_sampler([1.0], [2.0], 0.5), 1,
                                   triples=[([-1.0], [1.0], 0.5)])

    def test_quadratic_equality_case(self, rng):
        q = quadratic_functional(lam=1.0)
        rep = check_lambda_convexity(q, 1.0, default_triple_sampler(q, rng, scale=10.0), 200)
        assert rep.ok and rep.n_checked == 200

    def test_abs_not_positively_convex(self, rng):
        a = abs_functional()
        # antisymmetric pairs only violate once |x - y| is large ...
        anti = [(np.array([-s]), np.array([s]), 0.5) for s in (0.1, 1.0, 10.0)]
        rep0 = check_lambda_convexity(a, 0.1, _repeat_sampler(*anti[0]), 1, triples=anti)
        assert len(rep0.violations) == 0
        rep = check_lambda_convexity(
            a, 0.1, _repeat_sampler(*anti[0]), 1,
            triples=[(np.array([-100.0]), np.array([100.0]), 0.5)],
        )
        assert not rep.ok
        assert abs(rep.max_slack_violation - 400.0) < 1e-9
        # ... but same-sign pairs violate at any scale (the map is affine there)
        rep2 = check_lambda_convexity(
            a, 0.1, _repeat_sampler(*anti[0]), 1,
            triples=[(np.array([0.01]), np.array([0.09]), 0.5)],
        )
        assert not rep2.ok

    def test_abs_is_plain_convex(self, rng):
        a = abs_functional()
        rep = check_lambda_convexity(a, 0.0, default_triple_sampler(a, rng, scale=100.0), 300)
        assert rep.ok

    def test_prox_closed_forms_match_grid(self, rng):
        # declared closed forms agree with the brute-force minimizer
        q = quadratic_functional(lam=1.0)
        a = abs_functional()
        for _ in range(10):
            g = float(rng.uniform(0.1, 1.5))
            x = float(rng.uniform(-3, 3))
            yq, _ = grid_prox_1d(lambda y: 0.5 * y * y, g, x, -5, 5, n=4001)
            assert abs(prox(q, g, x)[0] - yq) < 3e-3
            ya, _ = grid_prox_1d(np.abs, g, x, -5, 5, n=4001)
            assert abs(prox(a, g, x)[0] - ya) < 3e-3


class TestProperFunctionalValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConstructionError):
            ProperFunctional(dim=2, value=lambda x: 0.0, weights=[1.0, 1.0])

    def test_dimension_positive(self):
        with pytest.raises(ConstructionError):
            ProperFunctional(dim=0, value=lambda x: 0.0)

    def test_extended_reals_are_first_class(self):
        box = ProperFunctional(
            dim=1,
            value=lambda x: 0.0 if abs(x[0]) <= 1 else np.inf,
            weights=[1.0],
            prox_closed_form=lambda g, x: np.clip(x, -1, 1),
            domain_hint=([-1.0], [1.0]),
        )
        assert box.evaluate(2.0) == np.inf
        # prox projects onto the box
        assert abs(prox(box, 1.0, 3.0)[0] - 1.0) < 1e-6

"""Acceptance gate: every quantitative criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <k> PASS|FAIL` line (run with -s to stream
them).  Criterion 2 asserts its certificate inequality verbatim, including
the region where the e^{-4t} factor makes the stated bound unsatisfiable
(for fixed n the iterate error decays polynomially in t, the stated right
side exponentially), so that single test is expected to fail honestly.
"""

import time

import numpy as np

from gfstack.convex import (
    abs_functional,
    envelope_functional,
    kappa,
    moreau_envelope,
    prox,
    quadratic_functional,
)
from gfstack.energies import GraphEnergy, counterexample_demo, lr_contraction_checks
from gfstack.experiments import ExperimentConfig, rows_to_csv, run_experiment
from gfstack.flow import evi_residual, gradient_flow
from gfstack.semigroup import crandall_liggett, resolvent_from_functional
from gfstack.stacking import (
    LIMIT,
    EnergySequence,
    IndexedSequence,
    MatrixHilbertStacking,
    circle_minimizer_fixture,
    equicoercivity_probe,
    escaping_sequence_fixture,
    gamma_liminf_check,
)
from gfstack.transport import TLpPoint, interpolation_bound_check, tlp_distance, uniform_measure

from oracles import permutation_transport_optimum


def _report(k: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {k:02d} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_quadratic_anchor():
    q = quadratic_functional(lam=1.0)
    R = resolvent_from_functional(q)
    t0 = time.perf_counter()
    u, cert = crandall_liggett(R, 1.0, 1.0, 1e-6)
    elapsed = time.perf_counter() - t0
    flow_err = abs(u[0] - np.exp(-1.0))
    energy_err = abs(q.evaluate(u) - 0.5 * np.exp(-2.0))
    env = moreau_envelope(q, kappa(1.0, 1.0), 1.0)
    env_err = abs(env - 1.0 / (1.0 + np.e**2))
    slack = env - q.evaluate(u)
    slack_want = (1.0 / (2.0 * np.e**2)) * (1.0 - np.exp(-2.0)) / (1.0 + np.exp(-2.0))
    ok = (flow_err < 1e-6 and cert.certified and elapsed < 1.0
          and energy_err < 1e-6 and env_err < 1e-9
          and abs(slack - slack_want) < 1e-6)
    _report(1, ok, f"flow_err={flow_err:.2e} energy_err={energy_err:.2e} "
                   f"env_err={env_err:.2e} slack_err={abs(slack - slack_want):.2e} "
                   f"time={elapsed:.3f}s certified={cert.certified}")
    assert ok


def test_criterion_02_certificate_bound_verbatim():
    q = quadratic_functional(lam=1.0)
    t0 = time.perf_counter()
    ns = np.arange(4, 4097)
    violations = []
    for t in (0.25, 0.5, 1.0):
        iterates = np.exp(-ns * np.log1p(t / ns))  # exact n-step closed form
        errs = np.abs(iterates - np.exp(-t))
        bounds = 2.0 * t / np.sqrt(ns) * 1.0 * np.exp(-4.0 * t)
        bad = ns[errs > bounds]
        violations.extend((t, int(n)) for n in bad)
    # cross-check the closed form against explicit resolvent iteration
    R = resolvent_from_functional(q)
    from gfstack.semigroup import resolvent_iterate

    for n in (4, 64, 1024):
        explicit = resolvent_iterate(R, 1.0, n, 1.0)[0]
        assert abs(explicit - np.exp(-n * np.log1p(1.0 / n))) < 1e-13
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 1.0
    _report(2, ok,
            f"{len(violations)} violating (t, n) pairs in {elapsed:.3f}s; "
            "the e^(-4t) factor decays in t faster than the fixed-n error, "
            f"first violations: {violations[:4]}")
    assert ok, (
        f"stated bound fails at {len(violations)} (t, n) pairs, e.g. {violations[:6]}; "
        "for fixed n the n-step error decays polynomially in t while the stated "
        "right side decays exponentially, so the inequality cannot hold there"
    )


def _envelope_zoo(rng):
    draws = []
    for _ in range(200):
        kind = rng.integers(0, 3)
        if kind == 0:
            phi = quadratic_functional(lam=float(rng.uniform(0.3, 3.0)),
                                       dim=int(rng.integers(1, 4)))
        elif kind == 1:
            phi = abs_functional(dim=int(rng.integers(1, 4)))
        else:
            nodes = int(rng.integers(2, 5))
            A = rng.random((nodes, nodes))
            A[np.diag_indices(nodes)] = 0.0
            phi = GraphEnergy(adjacency=A).to_functional()
        x = rng.normal(size=phi.dim) * 2.0
        g, d = rng.uniform(0.05, 0.6, size=2)
        draws.append((phi, float(g), float(d), x))
    return draws


def test_criterion_03_moreau_identities(rng):
    t0 = time.perf_counter()
    worst_semi, worst_mono = 0.0, 0.0
    for phi, g, d, x in _envelope_zoo(rng):
        nested = moreau_envelope(envelope_functional(phi, g), d, x)
        direct = moreau_envelope(phi, g + d, x)
        worst_semi = max(worst_semi, abs(nested - direct))
        lo, hi = min(g, d), max(g, d)
        worst_mono = max(worst_mono,
                         moreau_envelope(phi, hi, x) - moreau_envelope(phi, lo, x))
    elapsed = time.perf_counter() - t0
    ok = worst_semi <= 1e-7 and worst_mono <= 1e-9 and elapsed < 10.0
    _report(3, ok, f"semigroup_gap={worst_semi:.2e} monotone_violation={worst_mono:.2e} "
                   f"time={elapsed:.1f}s over 200 draws")
    assert ok


def test_criterion_04_prox_lipschitz(rng):
    zoo = [quadratic_functional(lam=0.5), quadratic_functional(lam=2.0, dim=3),
           abs_functional(dim=2)]
    A = rng.random((5, 5))
    A[np.diag_indices(5)] = 0.0
    zoo.append(GraphEnergy(adjacency=A).to_functional())
    worst = 0.0
    for phi in zoo:
        for _ in range(500):
            g = float(rng.uniform(0.05, 2.0))
            x = rng.normal(size=phi.dim) * 2.0
            y = rng.normal(size=phi.dim) * 2.0
            lhs = phi.norm(prox(phi, g, x) - prox(phi, g, y))
            rhs = phi.norm(x - y) / (1.0 + g * phi.lam) * (1.0 + 1e-6)
            worst = max(worst, lhs - rhs)
    ok = worst <= 0.0
    _report(4, ok, f"max modulus excess {worst:.2e} over 500 pairs x {len(zoo)} functionals")
    assert ok


def test_criterion_05_energy_bound_suite():
    t0 = time.perf_counter()
    rows = run_experiment(ExperimentConfig(kind="bound_suite", seed=0, tolerance=1e-6))
    elapsed = time.perf_counter() - t0
    energy_rows = [r for r in rows if r.metric.startswith("energy_bound")]
    has_graph16 = any("graph16" in r.metric for r in energy_rows)
    neg = [r for r in energy_rows if r.slack < -1e-6]
    ok = (len(rows) >= 200 and has_graph16 and not neg
          and all(r.passed for r in rows) and elapsed < 60.0)
    _report(5, ok, f"{len(rows)} rows, {len(energy_rows)} energy-bound rows, "
                   f"graph16={has_graph16}, negatives={len(neg)}, time={elapsed:.1f}s")
    assert ok


def test_criterion_06_evi_residuals(rng):
    q = quadratic_functional(lam=1.0)
    flow_q = gradient_flow(q, 1.0, np.linspace(0.0, 1.0, 101), tol=1e-9)
    rep_q = evi_residual(flow_q, q, 0.0)

    a = abs_functional()
    flow_a = gradient_flow(a, 2.0, np.linspace(0.0, 1.0, 51), tol=1e-9)
    rep_a = evi_residual(flow_a, a, 0.0)

    A = rng.random((5, 5))
    A[np.diag_indices(5)] = 0.0
    phi_g = GraphEnergy(adjacency=A).to_functional()
    flow_g = gradient_flow(phi_g, rng.normal(size=5), np.linspace(0.0, 0.5, 41), tol=1e-8)
    rep_g = evi_residual(flow_g, phi_g, np.zeros(5))

    ok = rep_q.violation <= 1e-8 and rep_q.ok and rep_a.ok and rep_g.ok
    _report(6, ok, f"quadratic_violation={rep_q.violation:.2e} "
                   f"abs_ok={rep_a.ok} graph_ok={rep_g.ok}")
    assert ok


def test_criterion_07_counterexample():
    rep0 = counterexample_demo(0.0, n_lambda_samples=1000)
    rep4 = counterexample_demo(4.0, n_lambda_samples=1000)
    ok = (abs(rep0.exchange.slack - (-0.5)) <= 1e-9
          and rep0.lambda_convexity_ok and rep0.n_lambda_samples >= 1000
          and abs(rep4.exchange.slack - (-1.5)) <= 1e-9
          and rep4.lambda_convexity_ok)
    _report(7, ok, f"slack(0)={rep0.exchange.slack:.12f} slack(4)={rep4.exchange.slack:.12f} "
                   f"lambda_convex_ok=({rep0.lambda_convexity_ok},{rep4.lambda_convexity_ok})")
    assert ok


def test_criterion_08_solver_vs_permutation_oracle():
    r = np.random.default_rng(88)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        k = int(r.integers(2, 8))
        dim = int(r.integers(1, 3))
        a = TLpPoint(uniform_measure(r.normal(size=(k, dim))), r.normal(size=k))
        b = TLpPoint(uniform_measure(r.normal(size=(k, dim))), r.normal(size=k))
        for p in (1.0, 2.0, 3.0):
            d, plan = tlp_distance(a, b, p)
            best = permutation_transport_optimum(plan.cost_matrix) ** (1.0 / p)
            worst = max(worst, abs(d - best))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(8, ok, f"max |solver - enumeration| = {worst:.2e} over 100 draws x 3 exponents, "
                   f"time={elapsed:.1f}s")
    assert ok


def test_criterion_09_metric_axioms():
    r = np.random.default_rng(99)
    worst_sym, worst_tri = 0.0, 0.0
    for _ in range(200):
        pts = []
        for _ in range(3):
            k = int(r.integers(2, 6))
            pts.append(TLpPoint(uniform_measure(r.normal(size=(k, 1))), r.normal(size=k)))
        p = float(r.choice([1.0, 2.0, 3.0]))
        dab, _ = tlp_distance(pts[0], pts[1], p)
        dba, _ = tlp_distance(pts[1], pts[0], p)
        dbc, _ = tlp_distance(pts[1], pts[2], p)
        dac, _ = tlp_distance(pts[0], pts[2], p)
        worst_sym = max(worst_sym, abs(dab - dba))
        worst_tri = max(worst_tri, dac - (dab + dbc))
    ok = worst_sym <= 1e-9 and worst_tri <= 1e-9
    _report(9, ok, f"symmetry_gap={worst_sym:.2e} triangle_excess={worst_tri:.2e} "
                   "over 200 triples")
    assert ok


def test_criterion_10_interpolation_bound():
    r = np.random.default_rng(1010)
    worst = -np.inf
    for _ in range(100):
        ka, kb = int(r.integers(2, 6)), int(r.integers(2, 6))
        a = TLpPoint(uniform_measure(r.uniform(-1, 1, size=(ka, 1))),
                     r.uniform(-1, 1, size=ka))
        b = TLpPoint(uniform_measure(r.uniform(-1, 1, size=(kb, 1))),
                     r.uniform(-1, 1, size=kb))
        q = float(r.choice([3.0, 4.0, np.inf]))
        p = 1.0
        rr = float(r.uniform(p, min(q, 3.0) - 1e-6))
        rep = interpolation_bound_check(a, b, p=p, q=q, r=rr, C=1.0)
        worst = max(worst, rep.lhs - rep.rhs)
    ok = worst <= 1e-9
    _report(10, ok, f"max lhs - rhs = {worst:.2e} over 100 precondition-satisfying draws")
    assert ok


def test_criterion_11_lr_contraction(rng):
    graphs = [GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]), name="pair")]
    for nodes in (5, 16):
        A = rng.random((nodes, nodes))
        A[np.diag_indices(nodes)] = 0.0
        graphs.append(GraphEnergy(adjacency=A, name=f"random{nodes}"))
    worst = 0.0
    for ge in graphs:
        for _ in range(50):
            x = rng.normal(size=ge.n_nodes)
            y = rng.normal(size=ge.n_nodes)
            t = float(rng.uniform(0.05, 1.0))
            for rexp in (1.0, 2.0, 3.0, 4.0, np.inf):
                rep = lr_contraction_checks(ge, x, y, t, (rexp,), tol=1e-6)[0]
                worst = max(worst, rep.lhs - rep.rhs - rep.allowance)
                assert rep.ok
    _report(11, True, f"max contraction excess {worst:.2e} over 50 triples x 5 exponents "
                      f"x {len(graphs)} energies")


def test_criterion_12_discrete_to_continuum():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(kind="d2c_heat", sizes=(8, 16, 32, 64), horizon=0.25,
                           time_grid=9, seed=0)
    rows = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    sup_col = [r for r in rows if r.metric == "sup_tl2_distance"]
    gap_col = [r for r in rows if r.metric == "max_energy_gap"]
    speed_col = [r for r in rows if r.metric == "speed_integral_lower_bound"]
    ratio = [r for r in rows if r.metric == "final_vs_first_quarter"]
    ok = (all(r.passed for r in rows)
          and len(sup_col) == 4 and len(gap_col) == 4 and len(speed_col) == 4
          and len(ratio) == 1 and elapsed < 300.0)
    _report(12, ok, f"sup_dists={[f'{r.lhs:.4f}' for r in sup_col]} "
                    f"ratio={ratio[0].lhs / sup_col[0].lhs:.3f} (<= 0.25) "
                    f"speed_margins={[f'{r.lhs - r.rhs:.3f}' for r in speed_col]} "
                    f"time={elapsed:.1f}s")
    assert ok


def test_criterion_13_resolvent_to_semigroup():
    rows = run_experiment(ExperimentConfig(kind="resolvent_convergence", seed=0))
    res_col = [r for r in rows if r.metric == "matrix_resolvent_distance"]
    semi_col = [r for r in rows if r.metric == "matrix_semigroup_distance"]
    fit_rows = [r for r in rows if r.metric == "matrix_fitted_constant"]
    bound_rows = [r for r in rows if r.metric == "matrix_semigroup_vs_resolvent"]
    ok = (all(r.passed for r in rows)
          and np.all(np.diff([r.lhs for r in res_col]) < 0)
          and np.all(np.diff([r.lhs for r in semi_col]) < 0)
          and len(fit_rows) == 1 and all(r.passed for r in bound_rows))
    _report(13, ok, f"resolvent col={[f'{r.lhs:.4f}' for r in res_col]} "
                    f"semigroup col={[f'{r.lhs:.4f}' for r in semi_col]} "
                    f"fitted C={fit_rows[0].lhs:.3f}")
    assert ok


def test_criterion_14_negative_controls():
    sizes = [4, 8, 16, 32, 64]
    # broken scaling: energies shrunk by 1/n lose the lower-bound inequality
    mats = {n: (1.0 + 1.0 / n) * np.eye(2) for n in sizes}
    mats[LIMIT] = np.eye(2)
    stack = MatrixHilbertStacking(mats)
    q = quadratic_functional(lam=1.0, dim=2)
    bad = {n: (lambda n: (lambda u: q.evaluate(u) / n))(n) for n in sizes}
    bad[LIMIT] = q
    x = np.array([1.0, -2.0])
    seq = IndexedSequence(indices=sizes, points=[x + 1.0 / n**2 for n in sizes],
                          limit_point=x)
    broken = gamma_liminf_check(EnergySequence(functionals=bad), stack, seq, tol=1e-3)

    s_esc, e_esc, cands = escaping_sequence_fixture(sizes)
    esc = equicoercivity_probe(e_esc, s_esc, 1.0, cands, tol=1.0)

    s_c, e_c, mins = circle_minimizer_fixture(sizes)
    circ = equicoercivity_probe(e_c, s_c, 0.0, mins, tol=0.05,
                                limit_candidate=np.array([0.0]))
    ok = (not broken.ok) and (not esc.tail_cauchy) and (not circ.limit_attained)
    _report(14, ok, f"broken_scaling_fails={not broken.ok} "
                    f"escaping_non_cauchy={not esc.tail_cauchy} "
                    f"circle_limit_missed={not circ.limit_attained} "
                    f"(circle limit distance {circ.limit_distances[-1]:.3f})")
    assert ok


def test_criterion_15_determinism():
    configs = [
        ExperimentConfig(kind="bound_suite", seed=7),
        ExperimentConfig(kind="d2c_heat", sizes=(8, 16, 32), time_grid=4, seed=7),
        ExperimentConfig(kind="resolvent_convergence", sizes=(8, 16, 32), seed=7),
        ExperimentConfig(kind="tlp_table", seed=7),
        ExperimentConfig(kind="stacking_audit", sizes=(4, 8, 16, 32), seed=7),
        ExperimentConfig(kind="p0_audit", seed=7),
    ]
    identical = True
    for cfg in configs:
        a = rows_to_csv(run_experiment(cfg)).encode()
        b = rows_to_csv(run_experiment(cfg)).encode()
        identical = identical and (a == b)
    _report(15, identical, f"byte-identical CSVs across two runs of {len(configs)} kinds")
    assert identical

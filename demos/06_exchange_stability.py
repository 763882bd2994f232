"""Exchange stability of convex energies, and the example that fails it.

Energies built from pairwise differences survive the smooth-truncation
exchange u -> u + g(v - u), v -> v - g(v - u) for every admissible profile
g; a specific strongly convex quadratic does not, by a computable margin,
which separates the two notions of convexity and explains why only the
first yields flows contracting every L^r norm.
"""

import numpy as np

from gfstack import (
    GraphEnergy,
    counterexample_demo,
    lr_contraction_checks,
    p0_convexity_check,
    p0_family,
)

g = p0_family(a=0.3, w=0.4)
print(f"truncation profile: dead zone |x| <= {g.a}, plateau {g.plateau}")
for x in (0.2, 0.5, 0.8, 2.0):
    print(f"  g({x}) = {g(x):.6f}, g'({x}) = {g.derivative(x):.6f}")

rng = np.random.default_rng(1)
A = rng.random((5, 5))
A[np.diag_indices(5)] = 0.0
ge = GraphEnergy(adjacency=A)
print("\nexchange slack stays nonnegative for a difference energy:")
for _ in range(3):
    u, v = rng.normal(size=5) * 2, rng.normal(size=5) * 2
    rep = p0_convexity_check(ge, u, v, g)
    print(f"  slack = {rep.slack:.6f}")

print("\nthe strongly convex counterexample fails the exchange by exactly 1/2 + lam/4:")
for lam in (0.0, 1.0, 4.0):
    rep = counterexample_demo(lam, n_lambda_samples=200)
    print(f"  lam={lam}: perturbed sum {rep.exchange.lhs:.4f} vs {rep.exchange.rhs:.4f} "
          f"(slack {rep.exchange.slack:.4f}), smooth-convexity check ok: "
          f"{rep.lambda_convexity_ok}")

print("\nexchange-stable flows contract every weighted L^r norm:")
x, y = rng.normal(size=5), rng.normal(size=5)
for r in (1.0, 2.0, 4.0, np.inf):
    rep = lr_contraction_checks(ge, x, y, 0.5, (r,))[0]
    print(f"  r={r}: |u_x - u_y|_r = {rep.lhs:.5f} <= {rep.rhs:.5f} = |x - y|_r")

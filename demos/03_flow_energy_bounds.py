"""Energy along a gradient flow stays below a Moreau envelope.

The flow of F(x) = x^2/2 from x0 = 1 has energy e^(-2t)/2, and the envelope
at the rescaled time kappa(t, 1) = (e^(2t) - 1)/2 sits strictly above it;
the gap is computed exactly, the decay-rate bound and the evolution
variational inequality are checked on the way.  The flow is computed once
and the checks read it.
"""

import numpy as np

from gfstack import (
    decay_rate_check,
    energy_bound_check,
    evi_residual,
    gradient_flow,
    kappa,
    quadratic_functional,
)

q = quadratic_functional(lam=1.0)

# one flow from x0 = 1; both checks read it instead of flowing again
fq = gradient_flow(q, 1.0, [0.25, 0.5, 1.0, 2.0], tol=1e-6)

print("energy bound F(u(t)) <= envelope at kappa(t, lam), from x0 = 1:")
for rep in energy_bound_check(q, fq):
    print(f"  t={rep.t:4.2f}: flow energy {rep.flow_energy:.6f} <= envelope "
          f"{rep.envelope_value:.6f} (slack {rep.slack:.6f}, kappa={kappa(rep.t, 1.0):.4f})")

print("\ndecay rate towards the minimizer:")
for rep in decay_rate_check(q, fq, 0.0):
    print(f"  t={rep.t:4.2f}: F(u(t)) - F(0) = {rep.lhs:.6f} <= {rep.rhs:.6f}")

print("\nevolution variational inequality residual on a 101-point grid:")
flow = gradient_flow(q, 1.0, np.linspace(0.0, 1.0, 101), tol=1e-9)
rep = evi_residual(flow, q, 0.0)
print(f"  max residual {rep.max_residual:.2e} (violation {rep.violation:.2e}, "
      f"grid tolerance {rep.tolerance:.2e})")

print("\nthe flow of the absolute value slides at unit speed and stops:")
from gfstack import abs_functional

a = abs_functional()
fa = gradient_flow(a, 2.0, [0.5, 1.0, 1.5, 2.0, 3.0], tol=1e-9)
for t, s in zip(fa.trajectory.times, fa.trajectory.states[:, 0]):
    print(f"  u({t:.1f}) = {s:.6f}")

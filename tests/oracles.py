"""Independent brute-force oracles used only by the tests.

The prox oracle minimizes over a uniform grid (>= 2001 points per axis, one
or two axes); the transport oracle enumerates permutation couplings, which
are the extreme points for uniform equal-size marginals; the staircase
oracle walks the northwest-corner rule one cell at a time.  The P0 family's
values are checked against adaptive Simpson quadrature of the derivative,
and a closed-form path energy's factors against its dense DCT-II basis.
tlp_point_json writes the function/measure pair record that the CLI reads.
"""

import itertools
import json

import numpy as np


def grid_prox_1d(value_vec, gamma, x, lo, hi, n=2001, weight=1.0):
    """argmin and min of value(y) + weight*(y-x)^2/(2*gamma) on a uniform grid."""
    ys = np.linspace(lo, hi, n)
    obj = value_vec(ys) + weight * (ys - x) ** 2 / (2.0 * gamma)
    k = int(np.argmin(obj))
    return ys[k], float(obj[k])


def grid_prox_2d(value_vec, gamma, x, lo, hi, n=2001, weights=(0.5, 0.5)):
    """Grid argmin of value(Y) + sum_i w_i (Y_i - x_i)^2 / (2*gamma) in 2-D.

    value_vec must accept stacked coordinates (2, m) and return (m,).
    """
    g1 = np.linspace(lo[0], hi[0], n)
    g2 = np.linspace(lo[1], hi[1], n)
    Y1, Y2 = np.meshgrid(g1, g2, indexing="ij")
    pts = np.stack([Y1.reshape(-1), Y2.reshape(-1)])
    obj = value_vec(pts)
    obj = obj + (weights[0] * (pts[0] - x[0]) ** 2 + weights[1] * (pts[1] - x[1]) ** 2) / (2.0 * gamma)
    k = int(np.argmin(obj))
    return pts[:, k].copy(), float(obj[k])


def northwest_corner_loop(a, b):
    """Northwest-corner cells and (exact, eps) flows by sequential subtraction.

    Source i supplies a[i] + (i+1)/m eps and the last sink demands
    b[-1] + (m+1)/2 eps; each cell takes the lexicographic minimum of the
    two residuals, and the walk moves to the next source when the source's
    residual is the smaller (ties included) or the sinks are exhausted.
    """
    m, n = len(a), len(b)
    ra = [(float(a[i]), (i + 1) / m) for i in range(m)]
    rb = [(float(x), 0.0) for x in b]
    rb[-1] = (rb[-1][0], (m + 1) / 2)
    cells = []
    i = j = 0
    while True:
        f = min(ra[i], rb[j])
        cells.append((i, j, f))
        ra[i] = (ra[i][0] - f[0], ra[i][1] - f[1])
        rb[j] = (rb[j][0] - f[0], rb[j][1] - f[1])
        if i == m - 1 and j == n - 1:
            return cells
        if i < m - 1 and (ra[i] <= rb[j] or j == n - 1):
            i += 1
        else:
            j += 1


def permutation_transport_optimum(cost_matrix):
    """Exact optimum over permutation plans for uniform equal-size marginals."""
    C = np.asarray(cost_matrix, dtype=float)
    k = C.shape[0]
    assert C.shape == (k, k)
    best = np.inf
    for perm in itertools.permutations(range(k)):
        total = sum(C[i, perm[i]] for i in range(k))
        best = min(best, total)
    return best / k


def backward_euler_flow(prox_fn, x0, t, n_steps):
    """Fine implicit-Euler oracle: n_steps equal prox steps of size t/n."""
    y = np.asarray(x0, dtype=float)
    dt = t / n_steps
    for _ in range(n_steps):
        y = prox_fn(dt, y)
    return y


def _step_2024(step, theta, ss, rr):
    """Malitsky & Mishchenko, "Adaptive proximal gradient method for convex
    optimization" (NeurIPS 2024, arXiv:2308.02261), Algorithm 1."""
    bracket = 2.0 * step * step * (rr / ss) - 1.0
    cap = step / np.sqrt(bracket) if bracket > 0.0 else np.inf
    return min(np.sqrt(2.0 / 3.0 + theta) * step, cap)


def _step_2020(step, theta, ss, rr):
    """Malitsky & Mishchenko, "Adaptive gradient descent without descent"
    (ICML 2020), Algorithm 1."""
    return min(np.sqrt(1.0 + theta) * step, 0.5 * np.sqrt(ss / rr))


def _adaptive_gradient_loop(phi, gamma, x, max_iter, tol, theta, next_step):
    mu = 1.0 / gamma + phi.lam
    eps = tol * (1.0 + phi.norm(x))

    def grad_h(y):
        return np.asarray(phi.gradient(y), dtype=float) + (y - x) / gamma

    y, gy = x, grad_h(x)
    step = 1.0 / mu
    for _ in range(max_iter):
        res = phi.norm(gy) / mu
        if res <= eps:
            return y
        if not np.isfinite(res):
            return None
        y_next = y - step * gy
        g_next = grad_h(y_next)
        s, r = y_next - y, g_next - gy
        ss, sr, rr = phi.inner(s, s), phi.inner(s, r), phi.inner(r, r)
        y, gy = y_next, g_next
        if not sr >= 0.5 * mu * ss > 0.0:
            return None
        new_step = next_step(step, theta, ss, rr)
        step, theta = new_step, new_step / step
    return None


def gradient_prox_loop(phi, gamma, x, max_iter=1000, tol=1e-10):
    """Reference for convex._gradient_prox: the same 2024 Malitsky-Mishchenko
    steps from theta_0 = 1/3, written with phi.norm, phi.inner and np.sqrt;
    returns the certified point or None when the reference loop would stop
    without one."""
    return _adaptive_gradient_loop(phi, gamma, x, max_iter, tol, 1.0 / 3.0, _step_2024)


def gradient_prox_loop_2020(phi, gamma, x, max_iter=1000, tol=1e-10):
    """The same loop with the 2020 Malitsky-Mishchenko steps from theta_0 = inf,
    which cap each step at 1/(2 L_k): a second certified solver to compare
    prox points and envelope values with."""
    return _adaptive_gradient_loop(phi, gamma, x, max_iter, tol, np.inf, _step_2020)


def _simpson(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-12, depth: int = 50) -> float:
    """Recursive adaptive Simpson integral of f over [a, b]."""
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fb, fm = f(a), f(b), f(m)
    whole = _simpson(a, fa, b, fb, fm)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = _simpson(a, fa, m, fm, flm)
        right = _simpson(m, fm, b, fb, frm)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) + recurse(
            m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
        )

    return recurse(a, fa, b, fb, m, fm, whole, tol, depth)


def p0_exact_value(g, x: float) -> float:
    """The P0 test function g at x by 1e-13 quadrature of its derivative."""
    x = float(x)
    end = g.flat_end + g.rise_width  # the derivative vanishes beyond it (and below -end if two-sided)
    if x >= end:
        return g.plateau
    if g.one_sided and x <= g.a:
        return 0.0
    if not g.one_sided:
        if abs(x) <= g.a:
            return 0.0
        if x <= -end:
            return -g.plateau
        if x < 0:
            return -p0_exact_value(g, -x)
    return adaptive_simpson(g.derivative, g.a, x, 1e-13)


def dct_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II basis Q[i, k] = sqrt(2/n) cos(pi k (i + 1/2) / n), column 0 sqrt(1/n).

    Each cosine is looked up at its exact integer phase, so the basis is
    accurate to rounding.
    """
    k = np.arange(n)  # the node index i and the frequency k share this range
    # cos(pi m / 2n) looked up at the exact integer phase m = (2i + 1) k mod 4n
    phase = np.outer(2 * k + 1, k)
    phase %= 4 * n
    Q = np.cos(np.pi * np.arange(4 * n) / (2 * n))[phase] * np.sqrt(2.0 / n)
    Q[:, 0] = np.sqrt(1.0 / n)
    return Q


def spectral_factors(ge):
    """(evals, Q, s) of a squared-loss graph energy: W^{-1/2} K W^{-1/2} = Q diag(evals) Q', s = W^{-1/2}.

    Read from the factors the energy stores; a path factored in closed form
    stores its DCT twiddle in place of Q, and Q is then its DCT-II basis,
    formed here.
    """
    evals, basis, s = ge._factors
    if basis.ndim == 1:
        basis = dct_basis(ge.n_nodes)
    return evals, basis, s


def tlp_point_json(pt) -> str:
    """The record {"dim", "atoms", "weights", "values"} of a TLpPoint, as JSON text."""
    return json.dumps({"dim": pt.measure.dim, "atoms": pt.measure.atoms.tolist(),
                       "weights": pt.measure.weights.tolist(), "values": pt.values.tolist()},
                      indent=1)

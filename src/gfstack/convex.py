"""Lambda-convex functionals on weighted finite-dimensional spaces.

Provides proximal operators, Moreau envelopes, the kappa time-rescaling
function, and a sampling check of the lambda-convexity inequality

    F(t*x + (1-t)*y) <= t*F(x) + (1-t)*F(y) - (lam/2) * t*(1-t) * ||x-y||^2.

All norms are weighted: ||x||^2 = sum_i w_i x_i^2 with nonnegative weights
summing to one, so discrete measures act as the inner-product weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConstructionError, IntervalError, PreconditionError, SolverDiagnosticError

PROX_RESIDUAL_TOL = 1e-10
PROX_GRADIENT_MAX_ITER = 1000


def as_point(x, dim: int) -> np.ndarray:
    """Coerce a scalar or sequence to a float vector of length dim.

    A 1-D float64 ndarray is returned as it is, not as a view of itself: the
    prox layer calls this on every vector it is handed, and most already are.
    """
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == np.float64:
        arr = x
    else:
        arr = np.atleast_1d(np.asarray(x, dtype=float)).reshape(-1)
    if arr.size != dim:
        raise ValueError(f"expected a point of dimension {dim}, got shape {arr.shape}")
    return arr


def weighted_norm(x, weights=None) -> float:
    """sqrt(sum_i w_i x_i^2); the plain Euclidean norm when weights is None."""
    x = np.asarray(x, dtype=float)
    if weights is None:
        return float(np.linalg.norm(x))
    return float(np.sqrt((np.asarray(weights) * x * x).sum()))


def weighted_lr_norm(values, weights, r) -> float:
    """(sum_i w_i |v_i|^r)^(1/r), and max_i |v_i| at r = inf (0 with no values).

    The 1/r power stays a power at r = 2, not a sqrt, so printed norms keep their bits.
    """
    a = np.abs(np.asarray(values, dtype=float))
    if np.isinf(r):
        return float(np.max(a)) if a.size else 0.0
    w = np.asarray(weights, dtype=float)
    return float(np.sum(w * a**r) ** (1.0 / r))


def omega_interval_contains(step: float, omega: float) -> bool:
    """Whether step is finite and lies in (0, 1/omega) resp. (0, inf); False for NaN."""
    if not 0.0 < step < math.inf:
        return False
    if omega > 0.0:
        return step < 1.0 / omega
    return True


def omega_interval_sup(omega: float) -> float:
    """Right endpoint of the admissible step interval (inf when omega <= 0)."""
    return 1.0 / omega if omega > 0.0 else np.inf


def kappa(t: float, lam: float) -> float:
    """Time rescaling (e^{2*lam*t} - 1) / (2*lam), continued by t at lam = 0.

    expm1 keeps the quotient free of cancellation for small lam*t, so the
    function is numerically continuous in lam at 0.  For lam < 0 the value
    stays strictly inside (0, 1/|lam|), which makes it an admissible Moreau
    parameter for (-lam)-accretive prox operators.
    """
    if t <= 0.0:
        raise IntervalError(f"kappa requires t > 0, got t={t}")
    z = 2.0 * lam * t
    if z == 0.0:  # lam = 0, or the product underflows for subnormal lam
        return float(t)
    return float(np.expm1(z) / (2.0 * lam))


@dataclass(frozen=True)
class ProperFunctional:
    """A proper functional H -> (-inf, +inf] on a weighted R^dim.

    value may return +inf; -inf is rejected wherever it is observed.  lam is
    the declared lambda-convexity modulus with respect to the weighted norm.
    prox_closed_form(gamma, x), when supplied, is the exact prox, and
    prox_iterated(gamma, n, x) the exact n-fold prox composition.
    value_rows(U), when supplied, returns F at each row of a (k, dim) array
    as a length-k array, bitwise equal to value row by row; sampling checks
    then evaluate their points in one call.
    slope_norm(x), when supplied, returns the minimal-subgradient norm
    inf ||dF(x)|| used for a-priori flow certificates.
    gradient(x), when supplied, is the weighted Riesz gradient of a
    differentiable F: F(x + h) = F(x) + <gradient(x), h>_w + o(h), with
    <u, v>_w = sum_i w_i u_i v_i; it lets prox use a certified gradient
    method.  prox needs prox_closed_form or gradient and raises
    PreconditionError on a functional with neither.
    """

    dim: int
    value: Callable[[np.ndarray], float]
    lam: float = 0.0
    weights: Optional[np.ndarray] = None
    prox_closed_form: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    prox_iterated: Optional[Callable[[float, int, np.ndarray], np.ndarray]] = None
    slope_norm: Optional[Callable[[np.ndarray], float]] = None
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain_hint: Optional[tuple] = None
    name: str = ""
    value_rows: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ConstructionError("dim must be a positive integer")
        if self.weights is None:
            w = np.full(self.dim, 1.0 / self.dim)
        else:
            w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size != self.dim or np.any(w < 0):
            raise ConstructionError("weights must be nonnegative with one entry per dimension")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ConstructionError(f"weights must sum to 1, got {w.sum()!r}")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    # weighted geometry -------------------------------------------------

    def inner(self, x, y) -> float:
        return float((self.weights * np.asarray(x) * np.asarray(y)).sum())

    def norm(self, x) -> float:
        return weighted_norm(x, self.weights)

    def evaluate(self, x) -> float:
        v = float(self.value(as_point(x, self.dim)))
        if v == -np.inf or np.isnan(v):
            raise ConstructionError(f"functional returned {v}; values must lie in (-inf, +inf]")
        return v


def _gradient_prox(phi: ProperFunctional, gamma: float, x: np.ndarray) -> np.ndarray:
    """Adaptive gradient descent on h(y) = F(y) + ||y - x||^2 / (2*gamma).

    Steps follow Algorithm 1 of Malitsky & Mishchenko, "Adaptive proximal
    gradient method for convex optimization" (NeurIPS 2024, arXiv:2308.02261),
    in the weighted inner product.  From y_0 = x, lambda_0 = 1/mu, theta_0 = 1/3:

        y_{k+1} = y_k - lambda_k grad h(y_k),   theta_k = lambda_k / lambda_{k-1},
        lambda_k = min(sqrt(2/3 + theta_{k-1}) lambda_{k-1},
                       lambda_{k-1} / sqrt([2 lambda_{k-1}^2 L_k^2 - 1]_+)),

    with L_k^2 = <r, r>/<s, s>, s = y_k - y_{k-1}, r = grad h(y_k) - grad h(y_{k-1})
    and 1/sqrt(0) = inf.  Their Theorem 1 proves convergence for every convex h
    with a locally Lipschitz gradient, with no line search and no objective
    values.  The modulus check below only ensures 2 lambda_0^2 L_1^2 >= 1/2, so
    the finite theta_0, which caps lambda_1 at lambda_0, keeps the first step
    finite.  Barzilai-Borwein steps diverge on some nested Huber envelopes,
    which are piecewise quadratic.

    h is mu = 1/gamma + lam strongly convex, so ||grad h(y)|| <= eps * mu
    certifies that y lies within eps = PROX_RESIDUAL_TOL * (1 + ||x||) of the
    prox point; only such a y is returned.  Otherwise SolverDiagnosticError
    carries the bound ||grad h(y)|| / mu as residual: at once when a secant
    curvature <s, r>/<s, s> falls below mu/2 (the declared modulus is false)
    or the gradient is not finite, and at the latest when the budget is spent.
    """
    mu = 1.0 / gamma + phi.lam
    eps = PROX_RESIDUAL_TOL * (1.0 + phi.norm(x))
    # the loop runs on Python floats; np.add.reduce is the reduction
    # ndarray.sum runs, and w*s*s is inner's product order, so every
    # residual, curvature and step keeps the bits of phi.norm and phi.inner
    w, gradient, dim, add = phi.weights, phi.gradient, phi.dim, np.add.reduce

    def grad_h(y):
        return as_point(gradient(y), dim) + (y - x) / gamma

    y, gy = x, grad_h(x)
    step, theta = 1.0 / mu, 1.0 / 3.0
    for _ in range(PROX_GRADIENT_MAX_ITER):
        res = math.sqrt(add(w * gy * gy)) / mu
        if res <= eps:
            return y
        if not math.isfinite(res):
            break
        y_next = y - step * gy
        g_next = grad_h(y_next)
        s, r = y_next - y, g_next - gy
        ws = w * s
        ss, sr, rr = float(add(ws * s)), float(add(ws * r)), float(add(w * r * r))
        y, gy = y_next, g_next
        if not sr >= 0.5 * mu * ss > 0.0:
            raise SolverDiagnosticError(
                f"prox gradient contradicts the declared modulus lam={phi.lam}: "
                f"<s, r> = {sr:.3e} against mu <s, s> = {mu * ss:.3e}",
                last_iterate=y, residual=phi.norm(gy) / mu,
            )
        bracket = 2.0 * step * step * (rr / ss) - 1.0
        cap = step / math.sqrt(bracket) if bracket > 0.0 else math.inf
        next_step = min(math.sqrt(2.0 / 3.0 + theta) * step, cap)
        step, theta = next_step, next_step / step
    res = phi.norm(gy) / mu
    raise SolverDiagnosticError(
        f"prox gradient method did not converge (residual {res:.3e})",
        last_iterate=y, residual=res,
    )


def prox(phi: ProperFunctional, gamma: float, x) -> np.ndarray:
    """Unique minimizer of y -> F(y) + ||y - x||^2 / (2*gamma).

    gamma must lie in the admissible interval for the declared modulus (any
    finite positive value when lam >= 0, gamma < 1/|lam| otherwise), making
    the objective (1/gamma + lam)-strongly convex; otherwise IntervalError,
    for NaN and inf too.
    There are two paths, in order: phi.prox_closed_form, else the certified
    gradient method when phi.gradient is set.  A functional with neither
    raises PreconditionError before it is evaluated.
    """
    if not omega_interval_contains(gamma, -phi.lam):
        raise IntervalError(
            f"gamma={gamma} outside the admissible interval (0, {omega_interval_sup(-phi.lam)}) "
            f"for modulus lam={phi.lam}"
        )
    x = as_point(x, phi.dim)
    if phi.prox_closed_form is not None:
        return as_point(phi.prox_closed_form(gamma, x), phi.dim)
    if phi.gradient is None:
        raise PreconditionError(
            f"prox of {phi.name or 'a functional'} needs prox_closed_form or gradient; "
            "a value oracle alone gives no certified prox"
        )
    return _gradient_prox(phi, gamma, x)


def moreau_envelope(phi: ProperFunctional, gamma: float, x) -> float:
    """Envelope value inf_y F(y) + ||y - x||^2 / (2*gamma), via the prox point."""
    x = as_point(x, phi.dim)
    p = prox(phi, gamma, x)
    d = p - x
    return phi.evaluate(p) + float((phi.weights * d * d).sum()) / (2.0 * gamma)


def envelope_functional(phi: ProperFunctional, gamma: float) -> ProperFunctional:
    """The envelope as a functional in its own right.

    Its convexity modulus is lam / (1 + gamma*lam); composing envelopes this
    way realizes the semigroup identity in the gamma parameter.  The
    envelope is C^{1,1} with exact gradient (x - prox_gamma(x)) / gamma.
    """
    if not omega_interval_contains(gamma, -phi.lam):
        raise IntervalError(f"gamma={gamma} inadmissible for lam={phi.lam}")
    lam_env = phi.lam / (1.0 + gamma * phi.lam)
    return ProperFunctional(
        dim=phi.dim,
        value=lambda x: moreau_envelope(phi, gamma, x),
        lam=lam_env,
        weights=phi.weights,
        gradient=lambda y: (y - prox(phi, gamma, y)) / gamma,
        domain_hint=phi.domain_hint,
        name=f"envelope({phi.name or 'phi'},{gamma:g})",
    )


@dataclass
class ConvexityReport:
    """Sampled evidence for (or against) the lambda-convexity inequality."""

    lam: float
    n_checked: int
    violations: list = field(default_factory=list)
    max_slack_violation: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def default_triple_sampler(phi: ProperFunctional, rng: np.random.Generator, scale: float = 3.0):
    """Returns draw(n): n (x, y, t) triples from domain_hint, or a centered box of the given scale.

    draw(n) gives xs and ys of shape (n, dim) and ts of shape (n,) from one
    rng.uniform call over rows [x, y, t].  The generator's stream is consumed
    as by n successive draws of x, y and t, so the triples are bitwise those.
    """
    if phi.domain_hint is not None:
        lo, hi = (as_point(b, phi.dim) for b in phi.domain_hint)
    else:
        lo = -scale * np.ones(phi.dim)
        hi = scale * np.ones(phi.dim)
    low, high = np.concatenate([lo, lo, [0.0]]), np.concatenate([hi, hi, [1.0]])

    def draw(n):
        u = rng.uniform(low, high, size=(n, low.size))
        return u[:, :phi.dim], u[:, phi.dim:-1], u[:, -1]

    return draw


def check_lambda_convexity(
    phi: ProperFunctional,
    lam: float,
    sampler,
    n_samples: int,
    triples=(),
    tol: float = 1e-8,
) -> ConvexityReport:
    """Evaluate the defining inequality on sampled (x, y, t) triples.

    sampler(n) must return n triples as arrays xs (n, dim), ys (n, dim) and
    ts (n,); explicitly supplied triples are checked first, in addition.
    A row with a +inf endpoint counts as checked (its right side is +inf)
    and its midpoint is not evaluated.  A violation (x, y, t, slack) is
    recorded, in row order, whenever the left side exceeds the right side
    by more than tol.  Points are evaluated by phi.value_rows in one call
    when it is set, else by phi.value one row at a time; either way a NaN
    or -inf value, or a value_rows result of the wrong shape, raises
    ConstructionError.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    xs, ys, ts = sampler(n_samples)
    triples = list(triples)
    x = np.vstack([as_point(a, phi.dim) for a, _, _ in triples] + [xs])
    y = np.vstack([as_point(b, phi.dim) for _, b, _ in triples] + [ys])
    t = np.concatenate([[float(c) for _, _, c in triples], ts])

    def values(points):
        if phi.value_rows is None:
            v = np.array([float(phi.value(p)) for p in points])
        else:
            v = np.asarray(phi.value_rows(points), dtype=float)
            if v.shape != (len(points),):
                raise ConstructionError(
                    f"value_rows returned shape {v.shape} for {len(points)} points")
        bad = np.isnan(v) | (v == -np.inf)
        if bad.any():
            raise ConstructionError(f"functional returned {v[bad][0]}; values must lie in (-inf, +inf]")
        return v

    fx, fy = values(x), values(y)
    rows = np.flatnonzero(np.isfinite(fx) & np.isfinite(fy))
    xr, yr, tr = x[rows], y[rows], t[rows]
    lhs = values(tr[:, None] * xr + (1.0 - tr)[:, None] * yr)
    d = xr - yr
    dxy = np.sqrt(np.sum(phi.weights * d * d, axis=1))
    rhs = tr * fx[rows] + (1.0 - tr) * fy[rows] - 0.5 * lam * tr * (1.0 - tr) * dxy * dxy
    slack = lhs - rhs
    hit = slack > tol
    violations = [(x[i], y[i], float(t[i]), float(s)) for i, s in zip(rows[hit], slack[hit])]
    return ConvexityReport(lam=lam, n_checked=len(t), violations=violations,
                           max_slack_violation=max([0.0] + [v[3] for v in violations]))


# ---------------------------------------------------------------------------
# small zoo of closed-form functionals


def resolve_weights(dim: int, weights) -> np.ndarray:
    if weights is None:
        return np.full(dim, 1.0 / dim)
    return np.asarray(weights, dtype=float).reshape(-1)


def quadratic_functional(lam: float = 1.0, dim: int = 1, weights=None) -> ProperFunctional:
    """F(x) = (lam/2) ||x||^2 in the weighted norm; lam-convex, flow e^{-lam t} x0."""
    if lam <= 0:
        raise ConstructionError("quadratic_functional requires lam > 0")
    w = resolve_weights(dim, weights)
    return ProperFunctional(
        dim=dim,
        value=lambda x: 0.5 * lam * float(np.sum(w * x * x)),
        lam=lam,
        weights=w,
        prox_closed_form=lambda g, x: x / (1.0 + g * lam),
        # log-space power: exact even when n*g is tiny-step/huge-count
        prox_iterated=lambda g, n, x: x * np.exp(-n * np.log1p(g * lam)),
        slope_norm=lambda x: lam * weighted_norm(x, w),
        name=f"quadratic(lam={lam:g})",
    )


def _soft(x: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def abs_functional(dim: int = 1, weights=None) -> ProperFunctional:
    """F(x) = sum_i w_i |x_i| (the weighted L1 norm); prox is soft thresholding.

    Soft thresholds compose additively in the parameter, so the n-fold prox
    has the exact closed form S_{n*gamma}.
    """
    w = resolve_weights(dim, weights)
    return ProperFunctional(
        dim=dim,
        value=lambda x: float(np.sum(w * np.abs(x))),
        lam=0.0,
        weights=w,
        prox_closed_form=lambda g, x: _soft(x, g),
        prox_iterated=lambda g, n, x: _soft(x, n * g),
        slope_norm=lambda x: float(np.sqrt(np.sum(w[np.abs(np.asarray(x)) > 0.0]))),
        name="abs",
    )


def constant_functional(c: float, dim: int = 1, weights=None) -> ProperFunctional:
    """F identically equal to a finite constant; prox is the identity."""
    return ProperFunctional(
        dim=dim,
        value=lambda x: float(c),
        lam=0.0,
        weights=weights,
        prox_closed_form=lambda g, x: x,
        prox_iterated=lambda g, n, x: x,
        slope_norm=lambda x: 0.0,
        name=f"constant({c:g})",
    )

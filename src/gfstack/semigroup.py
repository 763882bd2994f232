"""Resolvent-driven nonlinear semigroups with quantitative certificates.

An omega-accretive operator is represented only through its resolvent map
(lam, x) -> R_lam(x); the exponential formula u(t) = lim_n R_{t/n}^n x is
approximated either with the a-priori error bound

    ||R_{t/n}^n x - u(t)|| <= (2 t / sqrt(n)) * inf||A(x)|| * e^{4 max(omega,0) t}

when a minimal-image-norm evaluator is available, or with an a-posteriori
doubling estimate otherwise.  The exponent is clamped below at 0: a negative
exponent would decay in t faster than the fixed-n error can, so it is not a
valid certificate (see _cert_exponent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .convex import (
    ProperFunctional,
    as_point,
    check_admissible,
    prox,
    weighted_norm,
)
from .errors import IntervalError, PreconditionError, SolverDiagnosticError

DOUBLING_CAP = 2**30
EXPLICIT_ITER_BUDGET = 500_000


@dataclass(frozen=True)
class ResolventOperator:
    """Single-valued resolvent view of an omega-accretive operator.

    resolve(lam, x) evaluates R_lam at x for lam in (0, 1/omega) (all of
    (0, inf) when omega <= 0).  resolve_iterated(lam, n, x), when supplied,
    must equal n compositions of resolve(lam, .) exactly; it unlocks
    certified runs whose a-priori iteration counts are astronomically large.
    Norms for certificates use the optional weights (plain Euclidean norm
    when absent).
    """

    dim: int
    omega: float
    resolve: Callable[[float, np.ndarray], np.ndarray]
    inf_norm_A: Optional[Callable[[np.ndarray], float]] = None
    resolve_iterated: Optional[Callable[[float, int, np.ndarray], np.ndarray]] = None
    weights: Optional[np.ndarray] = None
    name: str = ""

    def norm(self, x) -> float:
        return weighted_norm(x, self.weights)


@dataclass(frozen=True)
class Certificate:
    """Error certificate attached to an exponential-formula evaluation."""

    value: float
    certified: bool
    n: int


@dataclass
class Trajectory:
    """Time-stamped discrete trajectory with optional certified error bounds."""

    times: np.ndarray
    states: np.ndarray
    error_bounds: Optional[np.ndarray] = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if len(self.times) != len(self.states):
            raise PreconditionError("times and states must have equal length")
        if not (np.all(np.isfinite(self.times)) and np.all(np.diff(self.times) > 0)):
            raise PreconditionError("times must be finite and strictly increasing")


def resolvent_iterate(R: ResolventOperator, t: float, n: int, x) -> np.ndarray:
    """Apply R_{t/n} n times to x (the discrete exponential-formula iterate)."""
    if t <= 0 or n < 1:
        raise IntervalError(f"need t > 0 and n >= 1, got t={t}, n={n}")
    x = as_point(x, R.dim)
    step = t / n
    check_admissible(step, R.omega)
    if R.resolve_iterated is not None:
        return as_point(R.resolve_iterated(step, n, x), R.dim)
    y = x
    for _ in range(n):
        y = as_point(R.resolve(step, y), R.dim)
    return y


def _cert_exponent(omega: float, t: float) -> float:
    """Exponential factor of the a-priori bound, clamped at omega <= 0.

    For omega < 0 the unclamped factor decays exponentially in t while the
    n-step resolvent error decays only polynomially, so it cannot certify;
    an omega-accretive operator with omega < 0 is also 0-accretive, and the
    omega = 0 form of the bound is the classical, trusted one.
    """
    return float(np.exp(4.0 * max(omega, 0.0) * t))


def _apriori_n(R: ResolventOperator, t: float, M: float, tol: float) -> int:
    bound_factor = 2.0 * t * M * _cert_exponent(R.omega, t)
    n = 1 if bound_factor <= tol else int(np.ceil(float(bound_factor / tol) ** 2))
    if R.omega > 0:
        n = max(n, int(np.floor(t * R.omega)) + 1)
    return n


def crandall_liggett(R: ResolventOperator, t: float, x, tol: float):
    """Exponential-formula approximation of the semigroup at time t.

    Returns (point, Certificate).  With inf_norm_A available the least n with
    (2t/sqrt(n)) * inf||A(x)|| * e^{4 max(omega,0) t} <= tol is used and the
    bound is a certified a-priori error.  Otherwise n doubles until
    consecutive iterates agree within tol/2 and the returned estimate is the
    requested tol with the certified flag cleared; past DOUBLING_CAP it
    raises SolverDiagnosticError with the last gap as the residual.  A
    non-finite or negative t raises IntervalError, a tol that is not finite
    and positive PreconditionError.
    """
    if not 0.0 < tol < np.inf:
        raise PreconditionError(f"tol must be finite and positive, got {tol}")
    x = as_point(x, R.dim)
    if t == 0.0:
        return x.copy(), Certificate(0.0, True, 0)
    if not 0.0 < t < np.inf:
        raise IntervalError(f"t must be finite and nonnegative, got {t}")

    if R.inf_norm_A is not None:
        M = float(R.inf_norm_A(x))
        n = _apriori_n(R, t, M, tol)
        if n > DOUBLING_CAP and R.resolve_iterated is None:
            raise SolverDiagnosticError(
                f"a-priori certificate needs n={n} > {DOUBLING_CAP} resolvent applications",
                last_iterate=x,
                residual=2.0 * t * M * _cert_exponent(R.omega, t),
            )
        if R.resolve_iterated is not None or n <= EXPLICIT_ITER_BUDGET:
            y = resolvent_iterate(R, t, n, x)
            bound = 2.0 * t / np.sqrt(float(n)) * M * _cert_exponent(R.omega, t)
            return y, Certificate(float(min(bound, tol)), True, n)
        # fall through to the doubling estimate when explicit iteration at the
        # certified n is out of budget and no closed-form iterate exists

    n = 1
    if R.omega > 0:
        n = int(np.floor(t * R.omega)) + 1
    n = max(n, 8)
    y = resolvent_iterate(R, t, n, x)
    gap = np.inf  # the residual if the cap binds before any gap is measured
    while True:
        if 2 * n > DOUBLING_CAP:
            raise SolverDiagnosticError(
                f"doubling exceeded {DOUBLING_CAP} resolvent applications",
                last_iterate=y,
                residual=gap,
            )
        y2 = resolvent_iterate(R, t, 2 * n, x)
        gap = R.norm(y2 - y)
        if gap <= tol / 2.0:
            return y2, Certificate(float(tol), False, 2 * n)
        n, y = 2 * n, y2


@dataclass
class AccretivityReport:
    omega: float
    n_checked: int
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_accretive(pairs, omega: float, lambdas, weights=None, tol: float = 1e-9) -> AccretivityReport:
    """Verify ||x - xh + lam*(y - yh)|| >= (1 - lam*omega) * ||x - xh||.

    pairs is a list of ((x, y), (xh, yh)) graph samples with y in A(x); empty
    input is vacuously accretive.  Violations are reported with their slack.
    """
    report = AccretivityReport(omega=omega, n_checked=0)
    for lam in lambdas:
        check_admissible(lam, omega, "lambda")
        for (x, y), (xh, yh) in pairs:
            x, y, xh, yh = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (x, y, xh, yh))
            lhs = weighted_norm(x - xh + lam * (y - yh), weights)
            rhs = (1.0 - lam * omega) * weighted_norm(x - xh, weights)
            if lhs < rhs - tol:
                report.violations.append(((x, y), (xh, yh), lam, float(rhs - lhs)))
            report.n_checked += 1
    return report


def eps_approximate_solution(R: ResolventOperator, partition, x) -> Trajectory:
    """Backward-Euler trajectory v_i = R_{t_i - t_{i-1}}(v_{i-1}) on the partition.

    The partition must be finite, strictly increasing and start at 0, else
    PreconditionError before any step; the returned trajectory samples the
    piecewise-constant interpolant at the partition times.
    """
    times = np.asarray(partition, dtype=float)
    if not (times[0] == 0.0 and np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
        raise PreconditionError("partition must be finite, strictly increasing and start at 0")
    x = as_point(x, R.dim)
    states = [x.copy()]
    for dt in np.diff(times):
        check_admissible(float(dt), R.omega)
        states.append(as_point(R.resolve(float(dt), states[-1]), R.dim))
    return Trajectory(times=times, states=np.asarray(states))


@dataclass
class ContractionReport:
    t: float
    lhs: float
    rhs: float
    ok: bool
    certificates: tuple


def semigroup_contraction_check(R: ResolventOperator, fx, fy) -> list:
    """Check ||S(t)x - S(t)y|| <= e^{omega t} ||x - y|| up to the solver certificates.

    fx and fy are flows of R from x = fx.x0 and y = fy.x0 on one time grid,
    as flow.gradient_flow returns them (x0, trajectory, certificates); they
    are read, not recomputed.  One report per sample time.  Two grids that
    differ raise PreconditionError, a non-finite or negative time IntervalError.
    """
    times = fx.trajectory.times
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise IntervalError(f"sample times must be finite and nonnegative, got {times}")
    if not np.array_equal(times, fy.trajectory.times):
        raise PreconditionError("the two flows must share one time grid")
    d = R.norm(as_point(fx.x0, R.dim) - as_point(fy.x0, R.dim))
    reports = []
    for k, t in enumerate(times):
        t = float(t)
        cx, cy = fx.certificates[k], fy.certificates[k]
        lhs = R.norm(fx.trajectory.states[k] - fy.trajectory.states[k])
        rhs = float(np.exp(R.omega * t)) * d
        ok = lhs <= rhs + cx.value + cy.value + 1e-12
        reports.append(ContractionReport(t=t, lhs=lhs, rhs=rhs, ok=ok, certificates=(cx, cy)))
    return reports


def resolvent_from_functional(phi: ProperFunctional) -> ResolventOperator:
    """Resolvent of the convexity-adjusted subdifferential: the prox operator.

    A lam-convex functional yields a (-lam)-accretive operator whose resolvent
    at gamma is the prox at gamma.  inf||A(x)|| is the declared phi.slope_norm;
    a functional without one gives a resolvent without inf_norm_A, so
    crandall_liggett takes the doubling path and returns certified=False.
    """
    return ResolventOperator(
        dim=phi.dim,
        omega=-phi.lam,
        resolve=lambda lam, x: prox(phi, lam, x),
        inf_norm_A=phi.slope_norm,
        resolve_iterated=phi.prox_iterated,
        weights=phi.weights,
        name=phi.name or "prox-resolvent",
    )

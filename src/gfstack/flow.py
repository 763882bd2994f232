"""Gradient flows of lambda-convex functionals as resolvent semigroups.

The flow is always computed through the exponential formula over the prox
resolvent (never explicit Euler): unconditional stability plus a usable
error certificate.  Alongside the trajectory this module provides the
energy along the flow, a check of the Moreau-envelope upper bound

    F(u(t)) <= [F]^{kappa(t, lam)}(x0),

decay-rate and evolution-variational-inequality diagnostics, and discrete
metric derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convex import (
    ProperFunctional,
    as_point,
    kappa,
    moreau_envelope,
)
from .errors import PreconditionError
from .semigroup import (
    Certificate,
    Trajectory,
    crandall_liggett,
    resolvent_from_functional,
)


@dataclass
class FlowResult:
    """A computed gradient flow: its trajectory, F along it, and one certificate per sample."""

    trajectory: Trajectory
    energies: np.ndarray
    certificates: list = field(default_factory=list)


def gradient_flow(phi: ProperFunctional, x0, times, tol: float = 1e-6) -> FlowResult:
    """Flow of phi from x0 sampled on the given increasing time grid.

    Each sample is an independent exponential-formula evaluation over the
    prox resolvent with accretivity modulus omega = -lam; energies[k] is
    F(u(t_k)).  The Moreau-envelope bound on it is energy_bound_check's.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(np.diff(times) <= 0) or times[0] < 0:
        raise PreconditionError("times must be a strictly increasing grid of nonnegative reals")
    x0 = as_point(x0, phi.dim)
    R = resolvent_from_functional(phi)
    states, certs, energies = [], [], []
    for t in times:
        u, cert = crandall_liggett(R, float(t), x0, tol)
        states.append(u)
        certs.append(cert)
        energies.append(phi.evaluate(u))
    traj = Trajectory(
        times=times,
        states=np.asarray(states),
        error_bounds=np.asarray([c.value for c in certs]),
    )
    return FlowResult(trajectory=traj, energies=np.asarray(energies), certificates=certs)


@dataclass
class BoundReport:
    flow_energy: float
    envelope_value: float
    slack: float
    ok: bool
    certificate: Certificate


def energy_bound_check(phi: ProperFunctional, x0, t: float, tol: float = 1e-6) -> BoundReport:
    """slack = [F]^{kappa(t,lam)}(x0) - F(u(t)); the bound demands slack >= -tol."""
    if t <= 0:
        raise PreconditionError("t must be positive")
    x0 = as_point(x0, phi.dim)
    R = resolvent_from_functional(phi)
    u, cert = crandall_liggett(R, t, x0, tol)
    flow_energy = phi.evaluate(u)
    envelope_value = moreau_envelope(phi, kappa(t, phi.lam), x0)
    slack = envelope_value - flow_energy
    return BoundReport(
        flow_energy=flow_energy,
        envelope_value=envelope_value,
        slack=slack,
        ok=slack >= -tol,
        certificate=cert,
    )


@dataclass
class DecayReport:
    lhs: float
    rhs: float
    ok: bool


def decay_rate_check(phi: ProperFunctional, x0, x, t: float, tol: float = 1e-6) -> DecayReport:
    """Check F(u(t)) - F(x) <= ||x0 - x||^2 / (2 kappa(t, lam)) for lam >= 0."""
    if phi.lam < 0:
        raise PreconditionError("decay rate bound requires lam >= 0")
    if t <= 0:
        raise PreconditionError("t must be positive")
    x0 = as_point(x0, phi.dim)
    x = as_point(x, phi.dim)
    R = resolvent_from_functional(phi)
    u, _ = crandall_liggett(R, t, x0, tol)
    lhs = phi.evaluate(u) - phi.evaluate(x)
    d = phi.norm(x0 - x)
    rhs = d * d / (2.0 * kappa(t, phi.lam))
    return DecayReport(lhs=lhs, rhs=rhs, ok=lhs <= rhs + tol)


@dataclass
class EviReport:
    times: np.ndarray
    residuals: np.ndarray
    tolerance: float
    max_residual: float
    violation: float
    ok: bool


def evi_residual(flow: FlowResult, phi: ProperFunctional, v) -> EviReport:
    """Central-difference check of the evolution variational inequality.

    At interior grid times the residual

        d/dt [ ||u - v||^2 / 2 ] + (lam/2) ||u - v||^2 + F(u) - F(v)

    must be <= 0 up to a grid-adaptive tolerance C * h^2 (C estimated from
    third differences) plus the propagated solver certificates.  The returned
    violation is the positive part of the largest residual.
    """
    times = flow.trajectory.times
    if len(times) < 3:
        raise PreconditionError("need at least 3 grid times for the central-difference check")
    v = as_point(v, phi.dim)
    fv = phi.evaluate(v)
    if not np.isfinite(fv):
        raise PreconditionError("comparison point must have finite energy")

    diffs = flow.trajectory.states - v[None, :]
    g = 0.5 * np.sum(phi.weights[None, :] * diffs * diffs, axis=1)
    h = np.diff(times)
    hmax = float(np.max(h))

    residuals, rtimes = [], []
    for k in range(1, len(times) - 1):
        dgdt = (g[k + 1] - g[k - 1]) / (times[k + 1] - times[k - 1])
        fu = flow.energies[k]
        if not np.isfinite(fu):
            continue
        residuals.append(dgdt + phi.lam * g[k] + fu - fv)
        rtimes.append(times[k])
    residuals = np.asarray(residuals)
    rtimes = np.asarray(rtimes)

    # third differences estimate the central-difference truncation constant
    if len(g) >= 4:
        third = np.abs(g[3:] - 3 * g[2:-1] + 3 * g[1:-2] - g[:-3])
        C = float(np.max(third)) / (6.0 * hmax**3) if hmax > 0 else 0.0
    else:
        C = 0.0
    certs = flow.trajectory.error_bounds
    cert_noise = 0.0
    if certs is not None and len(certs) > 0:
        scale = float(np.max(np.sqrt(2.0 * g))) + 1.0
        cert_noise = 4.0 * float(np.max(certs)) * scale / max(hmax, 1e-300)
    tolerance = C * hmax * hmax + cert_noise + 1e-10

    max_residual = float(np.max(residuals)) if len(residuals) else 0.0
    return EviReport(
        times=rtimes,
        residuals=residuals,
        tolerance=tolerance,
        max_residual=max_residual,
        violation=max(0.0, max_residual),
        ok=max_residual <= tolerance,
    )


@dataclass
class SpeedReport:
    speeds: np.ndarray
    integral_square: float


def metric_derivative(trajectory: Trajectory, weights=None) -> SpeedReport:
    """Per-interval speeds ||u_{k+1} - u_k|| / dt and the integral of speed^2.

    Speeds are piecewise constant on the intervals and their squares are
    integrated exactly.  For the underlying curve u this is a one-sided
    underestimate of the integral of ||u'||^2: on each interval,
    ||u_{k+1} - u_k||^2 / dt <= the integral of ||u'||^2 over it, by
    Cauchy-Schwarz.  The deficit is largest where the speed varies most
    within an interval.
    """
    if len(trajectory.times) < 2:
        raise PreconditionError("need at least 2 times")
    dts = np.diff(trajectory.times)
    steps = np.diff(trajectory.states, axis=0)
    if weights is None:
        norms = np.linalg.norm(steps, axis=1)
    else:
        w = np.asarray(weights, dtype=float)
        norms = np.sqrt(np.sum(w[None, :] * steps * steps, axis=1))
    speeds = norms / dts
    return SpeedReport(speeds=speeds, integral_square=float(np.sum(speeds * speeds * dts)))

"""Gradient flows of lambda-convex functionals as resolvent semigroups.

The flow is always computed through the exponential formula over the prox
resolvent (never explicit Euler): unconditional stability plus a usable
error certificate.  gradient_flow computes a flow once, on a time grid; the
checks here read that result and never flow again:

    F(u(t)) <= [F]^{kappa(t, lam)}(x0)            (energy_bound_check)
    F(u(t)) - F(x) <= ||x0 - x||^2 / (2 kappa)    (decay_rate_check)

each with one report per sample time t > 0, plus an evolution-variational-
inequality diagnostic and discrete metric derivatives.
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
from .errors import IntervalError, PreconditionError
from .semigroup import (
    Certificate,
    Trajectory,
    crandall_liggett,
    resolvent_from_functional,
)


@dataclass
class FlowResult:
    """A computed gradient flow: its start, trajectory, F along it, one certificate per sample."""

    x0: np.ndarray
    trajectory: Trajectory
    energies: np.ndarray
    certificates: list = field(default_factory=list)


def gradient_flow(phi: ProperFunctional, x0, times, tol: float = 1e-6) -> FlowResult:
    """Flow of phi from x0 sampled on the given increasing time grid.

    Each sample is an independent exponential-formula evaluation over the
    prox resolvent with accretivity modulus omega = -lam; energies[k] is
    F(u(t_k)).  A non-finite time raises IntervalError and a non-finite tol
    PreconditionError (crandall_liggett's).  The checks below read the result.
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
    return FlowResult(x0=x0.copy(), trajectory=traj, energies=np.asarray(energies),
                      certificates=certs)


def _positive_samples(flow: FlowResult):
    """(k, t) for each sample time t > 0; IntervalError on a non-finite or negative time."""
    times = flow.trajectory.times
    if not np.all(np.isfinite(times) & (times >= 0.0)):
        raise IntervalError(f"sample times must be finite and nonnegative, got {times}")
    return [(k, float(t)) for k, t in enumerate(times) if t > 0.0]


@dataclass
class BoundReport:
    t: float
    flow_energy: float
    envelope_value: float
    slack: float
    ok: bool
    certificate: Certificate


def energy_bound_check(phi: ProperFunctional, flow: FlowResult, tol: float = 1e-6) -> list:
    """One BoundReport per sample time t > 0 of flow, the flow of phi from flow.x0.

    slack = [F]^{kappa(t,lam)}(x0) - F(u(t)); the bound demands slack >= -tol.
    F(u(t)) and the certificate are the flow's own, so nothing is flowed again.
    """
    reports = []
    for k, t in _positive_samples(flow):
        flow_energy = float(flow.energies[k])
        envelope_value = moreau_envelope(phi, kappa(t, phi.lam), flow.x0)
        slack = envelope_value - flow_energy
        reports.append(BoundReport(t=t, flow_energy=flow_energy, envelope_value=envelope_value,
                                   slack=slack, ok=slack >= -tol,
                                   certificate=flow.certificates[k]))
    return reports


@dataclass
class DecayReport:
    t: float
    lhs: float
    rhs: float
    ok: bool


def decay_rate_check(phi: ProperFunctional, flow: FlowResult, x, tol: float = 1e-6) -> list:
    """Check F(u(t)) - F(x) <= ||x0 - x||^2 / (2 kappa(t, lam)) for lam >= 0.

    One DecayReport per sample time t > 0 of flow, the flow of phi from
    flow.x0; F(u(t)) is the flow's own and F(x) is evaluated once.
    """
    if phi.lam < 0:
        raise PreconditionError("decay rate bound requires lam >= 0")
    samples = _positive_samples(flow)
    x = as_point(x, phi.dim)
    fx = phi.evaluate(x)
    d = phi.norm(flow.x0 - x)
    reports = []
    for k, t in samples:
        lhs = float(flow.energies[k]) - fx
        rhs = d * d / (2.0 * kappa(t, phi.lam))
        reports.append(DecayReport(t=t, lhs=lhs, rhs=rhs, ok=lhs <= rhs + tol))
    return reports


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

"""Families of normed spaces embedded 1-Lipschitz into one metric space.

A stacking carries, per index, a space with a norm and an embedding into a
common metric space; convergence of cross-space sequences means convergence
of the embedded points.  Three concrete instances ship: coordinate
subspaces of R^D with inclusion maps, R^d under matrix inner products
<x, y>_A = x' A y embedded by x -> A^{1/2} x, and weighted L^p spaces over
empirical measures embedded into the transport metric on function/measure
pairs.

Gamma-convergence and equicoercivity of energy families over a stacking are
asymptotic statements; every probe here reports evidence at sampled indices
with declared tolerances, never a boolean proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence

import numpy as np

from .convex import ProperFunctional, as_point, weighted_lr_norm
from .errors import ConstructionError, PreconditionError
from .transport import EmpiricalMeasure, TLpPair, TLpPoint

LIMIT = "inf"  # conventional limit-index key


class Stacking:
    """Base interface: per-index spaces, norms, embeddings, one metric."""

    def space_dim(self, idx) -> int:
        raise NotImplementedError

    def norm(self, idx, x) -> float:
        raise NotImplementedError

    def embed(self, idx, x):
        raise NotImplementedError

    def distance(self, e1, e2) -> float:
        raise NotImplementedError

    def zero(self, idx):
        return np.zeros(self.space_dim(idx))

    def approximating_point(self, idx, limit_idx, x_limit):
        """A point of space idx built to approximate x_limit in the limit space."""
        raise NotImplementedError


def stacking_distance(s: Stacking, n, x, m, y) -> float:
    """Cross-index distance d(embed_n(x), embed_m(y))."""
    return s.distance(s.embed(n, x), s.embed(m, y))


class SubspaceStacking(Stacking):
    """Coordinate subspaces of R^D with inclusion (zero-padding) embeddings."""

    def __init__(self, ambient_dim: int, dims: Dict[Hashable, int]):
        if any(k < 1 or k > ambient_dim for k in dims.values()):
            raise ConstructionError("subspace dimensions must lie in [1, ambient_dim]")
        self.ambient_dim = ambient_dim
        self.dims = dict(dims)

    def space_dim(self, idx):
        return self.dims[idx]

    def norm(self, idx, x):
        return float(np.linalg.norm(as_point(x, self.dims[idx])))

    def embed(self, idx, x):
        x = as_point(x, self.dims[idx])
        out = np.zeros(self.ambient_dim)
        out[: x.size] = x
        return out

    def distance(self, e1, e2):
        return float(np.linalg.norm(np.asarray(e1) - np.asarray(e2)))

    def approximating_point(self, idx, limit_idx, x_limit):
        x_limit = as_point(x_limit, self.dims[limit_idx])
        k = self.dims[idx]
        out = np.zeros(k)
        out[: min(k, x_limit.size)] = x_limit[: min(k, x_limit.size)]
        return out


class MatrixHilbertStacking(Stacking):
    """R^d with inner products x' A x, embedded into Euclidean R^d by A^{1/2}.

    Matrix square roots come from symmetric eigendecompositions; matrices
    with an eigenvalue below the 1e-12 floor are rejected so the embeddings
    stay invertible.
    """

    EIG_FLOOR = 1e-12

    def __init__(self, matrices: Dict[Hashable, np.ndarray]):
        self.matrices = {}
        self.roots = {}
        self.dim = None
        for key, A in matrices.items():
            A = np.asarray(A, dtype=float)
            if A.ndim != 2 or A.shape[0] != A.shape[1]:
                raise ConstructionError("index matrices must be square")
            if not np.allclose(A, A.T, atol=1e-12):
                raise ConstructionError("index matrices must be symmetric")
            evals, Q = np.linalg.eigh(A)
            if np.min(evals) < self.EIG_FLOOR:
                raise ConstructionError(
                    f"matrix for index {key!r} has eigenvalue {np.min(evals):.3e} below the floor"
                )
            if self.dim is None:
                self.dim = A.shape[0]
            elif self.dim != A.shape[0]:
                raise ConstructionError("all index matrices must share one dimension")
            self.matrices[key] = A
            self.roots[key] = (Q * np.sqrt(evals)[None, :]) @ Q.T

    def space_dim(self, idx):
        return self.dim

    def norm(self, idx, x):
        x = as_point(x, self.dim)
        return float(np.sqrt(x @ self.matrices[idx] @ x))

    def embed(self, idx, x):
        return self.roots[idx] @ as_point(x, self.dim)

    def distance(self, e1, e2):
        return float(np.linalg.norm(np.asarray(e1) - np.asarray(e2)))

    def approximating_point(self, idx, limit_idx, x_limit):
        return as_point(x_limit, self.dim).copy()  # all spaces share R^d


class TLpStacking(Stacking):
    """Weighted L^p spaces over empirical measures, metrized by transport.

    Indices are keys into a dict of measures; embedding pairs values with
    their measure and the metric is the exact TL^p distance.  Approximating
    points for a limit function are its plan-conditional averages over an
    optimal spatial plan (the recovery construction).

    Each distinct transport problem is solved once per instance, through
    one TLpPair per (p, source, target measure), O(m + n) data, and its two
    entry points: distance calls its distances, approximating_point its
    recovery.  No m x n array outlives a call.  distance keeps the float it
    returns, keyed by p and the exact bytes of both points (atoms, weights
    and values; the atoms' shape fixes the rest), so a changed p or a
    replaced measure is a new key, never a stale hit.  A recovery is kept
    only as its point (n floats) and stagnation cost, per (p, source,
    target, limit values), and its W_p distance as the distance between the
    zero functions.  The pair's docstring gives its certificates and their
    order.
    """

    def __init__(self, measures: Dict[Hashable, EmpiricalMeasure], p: float = 2.0):
        if not 1 <= p < np.inf:
            raise ConstructionError("p must be finite and >= 1")
        self.measures = dict(measures)
        self.p = float(p)
        self._measure_keys = {}  # content key -> itself, so memo keys share one copy
        self._distances = {}  # (p, measure key, values, measure key, values) -> TL^p distance
        self._recoveries = {}  # (p, measure key, measure key, values) -> (point, stagnation)
        self._pairs = {}  # (p, measure key, measure key) -> their TLpPair

    def _measure_key(self, mu: EmpiricalMeasure):
        key = (mu.atoms.shape, mu.atoms.tobytes(), mu.weights.tobytes())
        return self._measure_keys.setdefault(key, key)

    def _pair(self, mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> TLpPair:
        key = (self.p, self._measure_key(mu), self._measure_key(nu))
        pair = self._pairs.get(key)
        if pair is None:
            pair = self._pairs[key] = TLpPair(mu, nu, self.p)
        return pair

    def space_dim(self, idx):
        return self.measures[idx].n_atoms

    def norm(self, idx, x):
        mu = self.measures[idx]
        return weighted_lr_norm(as_point(x, mu.n_atoms), mu.weights, self.p)

    def embed(self, idx, x):
        mu = self.measures[idx]
        return TLpPoint(measure=mu, values=as_point(x, mu.n_atoms))

    def distance(self, e1, e2):
        key = (self.p, self._measure_key(e1.measure), e1.values.tobytes(),
               self._measure_key(e2.measure), e2.values.tobytes())
        d = self._distances.get(key)
        if d is None:
            d, = self._pair(e1.measure, e2.measure).distances(e1.values[None], e2.values[None])
            d = self._distances[key] = float(d)
        return d

    def _recovery(self, idx, limit_idx, x_limit):
        """Barycentric point of x_limit over an optimal spatial plan, and its stagnation cost."""
        mu, nu = self.measures[idx], self.measures[limit_idx]
        x_limit = as_point(x_limit, nu.n_atoms)
        mk, nk = self._measure_key(mu), self._measure_key(nu)
        key = (self.p, mk, nk, x_limit.tobytes())
        hit = self._recoveries.get(key)
        if hit is None:
            d, point, stagnation = self._pair(mu, nu).recovery(x_limit)
            hit = self._recoveries[key] = (point, stagnation)
            zero = (self.p, mk, np.zeros(mu.n_atoms).tobytes(), nk, np.zeros(nu.n_atoms).tobytes())
            self._distances[zero] = d  # W_p is the distance of the zero functions
        return hit[0].copy(), hit[1]

    def approximating_point(self, idx, limit_idx, x_limit):
        return self._recovery(idx, limit_idx, x_limit)[0]


class CircleStacking(Stacking):
    """Copies of R wrapped onto the unit circle by a bounded angle map.

    theta(x) = pi + pi*x/sqrt(1+x^2) is 1-Lipschitz into the circle with the
    angular metric scaled by 1/pi.  Sublevel sets of any energy family embed
    into a compact set here, which is exactly why naive
    relative-compactness "equicoercivity" fails: embedded minimizers can be
    Cauchy while approaching a circle point with no preimage in the limit
    space.  Shipped as a negative-control fixture.
    """

    def space_dim(self, idx):
        return 1

    def norm(self, idx, x):
        return float(abs(as_point(x, 1)[0]))

    def _angle(self, x: float) -> float:
        return np.pi + np.pi * x / np.sqrt(1.0 + x * x)

    def embed(self, idx, x):
        return self._angle(float(as_point(x, 1)[0]))

    def distance(self, e1, e2):
        gap = abs(float(e1) - float(e2)) % (2.0 * np.pi)
        return min(gap, 2.0 * np.pi - gap) / np.pi

    def approximating_point(self, idx, limit_idx, x_limit):
        return as_point(x_limit, 1).copy()


# ---------------------------------------------------------------------------
# energy families over a stacking


@dataclass
class EnergySequence:
    """Per-index energies plus the limit energy, at LIMIT, indexed like the stacking."""

    functionals: Dict[Hashable, object]  # ProperFunctional or plain callable

    def evaluate(self, idx, x) -> float:
        f = self.functionals[idx]
        if isinstance(f, ProperFunctional):
            return f.evaluate(x)
        return float(f(np.atleast_1d(np.asarray(x, dtype=float))))


@dataclass
class IndexedSequence:
    """A cross-space sequence (x_n) with a declared limit point, at index LIMIT."""

    indices: list
    points: list
    limit_point: object


# ---------------------------------------------------------------------------
# axiom probes


@dataclass
class AxiomReport:
    lipschitz_violations: list
    approx_gaps: dict  # sequence id -> per-index embedded distance to the limit
    sum_gaps: Optional[np.ndarray]
    scalar_gaps: Optional[np.ndarray]
    norm_gaps: dict
    zero_gaps: np.ndarray
    ok: bool


def check_stacking_axioms(
    s: Stacking,
    sequences: Sequence[IndexedSequence],
    decay_tol: float = 1e-6,
) -> AxiomReport:
    """Probe the four stacking axioms on declared convergent sequences.

    (i) embeddings 1-Lipschitz, up to 1e-9, on sampled same-index pairs;
    (ii) a constructive approximating sequence for each declared limit
    point; (iii) sums and multiples by -1.5 of two convergent sequences
    converge to the sum/multiple of the limits; (iv) norms converge along
    convergent sequences.  Pass means all final gaps fall below decay_tol.
    """
    if not sequences:
        raise PreconditionError("need at least one declared sequence")

    # same-index pairs: each point with the zero, then neighbouring sequences' points
    pairs = [(idx, x, s.zero(idx)) for seq in sequences for idx, x in zip(seq.indices, seq.points)]
    pairs += [pair for a, b in zip(sequences, sequences[1:]) if a.indices == b.indices
              for pair in zip(a.indices, a.points, b.points)]
    lipschitz = []
    for idx, x, y in pairs:
        lhs = stacking_distance(s, idx, x, idx, y)
        rhs = s.norm(idx, np.asarray(x) - np.asarray(y))
        if lhs > rhs + 1e-9:
            lipschitz.append((idx, lhs - rhs))

    approx_gaps = {}
    for k, seq in enumerate(sequences):
        gaps = []
        for idx in seq.indices:
            cand = s.approximating_point(idx, LIMIT, seq.limit_point)
            gaps.append(stacking_distance(s, idx, cand, LIMIT, seq.limit_point))
        approx_gaps[k] = np.asarray(gaps)

    sum_gaps = scalar_gaps = None
    if len(sequences) >= 2:
        a, b = sequences[0], sequences[1]
        shared = [i for i in a.indices if i in b.indices]
        sums, scals = [], []
        for idx in shared:
            xa = np.asarray(a.points[a.indices.index(idx)], dtype=float)
            xb = np.asarray(b.points[b.indices.index(idx)], dtype=float)
            lim = np.asarray(a.limit_point, dtype=float) + np.asarray(b.limit_point, dtype=float)
            sums.append(stacking_distance(s, idx, xa + xb, LIMIT, lim))
            scaled = -1.5 * np.asarray(a.limit_point, dtype=float)
            scals.append(stacking_distance(s, idx, -1.5 * xa, LIMIT, scaled))
        sum_gaps = np.asarray(sums)
        scalar_gaps = np.asarray(scals)

    norm_gaps = {}
    for k, seq in enumerate(sequences):
        lim_norm = s.norm(LIMIT, seq.limit_point)
        norm_gaps[k] = np.asarray(
            [abs(s.norm(idx, x) - lim_norm) for idx, x in zip(seq.indices, seq.points)]
        )

    zero_gaps = np.asarray([stacking_distance(s, idx, s.zero(idx), LIMIT, s.zero(LIMIT))
                            for idx in sequences[0].indices])

    final_gaps = [g[-1] for g in approx_gaps.values()] + [g[-1] for g in norm_gaps.values()]
    final_gaps.append(zero_gaps[-1])
    if sum_gaps is not None and len(sum_gaps):
        final_gaps += [sum_gaps[-1], scalar_gaps[-1]]
    ok = not lipschitz and all(g <= decay_tol for g in final_gaps)
    return AxiomReport(
        lipschitz_violations=lipschitz,
        approx_gaps=approx_gaps,
        sum_gaps=sum_gaps,
        scalar_gaps=scalar_gaps,
        norm_gaps=norm_gaps,
        zero_gaps=zero_gaps,
        ok=ok,
    )


# ---------------------------------------------------------------------------
# Gamma-convergence probes


@dataclass
class LiminfReport:
    energies: np.ndarray
    liminf_estimate: float
    limit_value: float
    distances: np.ndarray
    ok: bool


def gamma_liminf_check(
    e: EnergySequence, s: Stacking, seq: IndexedSequence, tol: float = 1e-8
) -> LiminfReport:
    """Tail-sampled lower-bound evidence: min over the tail half of the
    sampled energies must reach the limit energy, up to tol.

    Finite sampling can corroborate the lower bound or expose a negative
    control; it cannot refute convergence.
    """
    energies = np.asarray([e.evaluate(idx, x) for idx, x in zip(seq.indices, seq.points)])
    distances = np.asarray([stacking_distance(s, idx, x, LIMIT, seq.limit_point)
                            for idx, x in zip(seq.indices, seq.points)])
    tail = energies[len(energies) // 2 :]
    liminf_estimate = float(np.min(tail))
    limit_value = e.evaluate(LIMIT, seq.limit_point)
    return LiminfReport(
        energies=energies,
        liminf_estimate=liminf_estimate,
        limit_value=limit_value,
        distances=distances,
        ok=liminf_estimate >= limit_value - tol,
    )


@dataclass
class RecoveryReport:
    points: list
    energies: np.ndarray
    limsup_estimate: float
    limit_value: float
    distances: np.ndarray
    stagnation_costs: np.ndarray
    ok: bool


def recovery_sequence(
    e: EnergySequence, s: TLpStacking, x_inf, indices, tol: float = 1e-8
) -> RecoveryReport:
    """Plan-conditional-average recovery of a limit function, with evidence.

    Builds x_idx by averaging x_inf over an optimal spatial plan per index
    (the points approximating_point returns, from the same memo, so a plan
    already solved there is not solved again) and reports the energy
    limsup estimate (max over the tail half) against the limit energy;
    vacuously ok when the limit energy is +inf.
    """
    if not isinstance(s, TLpStacking):
        raise PreconditionError("recovery construction is specific to the transport stacking")
    nu = s.measures[LIMIT]
    x_inf = as_point(x_inf, nu.n_atoms)
    pts, stag = [], []
    for idx in indices:
        x, cost = s._recovery(idx, LIMIT, x_inf)
        pts.append(x)
        stag.append(cost)
    energies = np.asarray([e.evaluate(idx, x) for idx, x in zip(indices, pts)])
    distances = np.asarray(
        [stacking_distance(s, idx, x, LIMIT, x_inf) for idx, x in zip(indices, pts)]
    )
    limit_value = e.evaluate(LIMIT, x_inf)
    tail = energies[len(energies) // 2 :]
    limsup_estimate = float(np.max(tail))
    ok = bool(np.isinf(limit_value)) or limsup_estimate <= limit_value + tol
    return RecoveryReport(
        points=pts,
        energies=energies,
        limsup_estimate=limsup_estimate,
        limit_value=limit_value,
        distances=distances,
        stagnation_costs=np.asarray(stag),
        ok=ok,
    )


@dataclass
class EquicoercivityReport:
    distance_matrix: np.ndarray
    tail_cauchy: bool
    max_tail_distance: float
    limit_distances: Optional[np.ndarray]
    limit_attained: Optional[bool]


def equicoercivity_probe(
    e: EnergySequence,
    s: Stacking,
    c: float,
    candidates: Sequence,
    tol: float = 1e-2,
    limit_candidate=None,
) -> EquicoercivityReport:
    """Heuristic compactness evidence for a sublevel-set sequence.

    candidates are (index, point) pairs with energy <= c (validated).  The
    probe reports the embedded pairwise distance matrix, whether the tail
    half is Cauchy (every pairwise distance within tol), and, when a
    limit candidate is supplied, whether the distances to it decay.  This is
    sampled evidence only, clearly weaker than actual subsequence
    compactness.
    """
    idxs = [idx for idx, _ in candidates]
    pts = [x for _, x in candidates]
    for idx, x in candidates:
        val = e.evaluate(idx, x)
        if val > c + 1e-12:
            raise PreconditionError(f"candidate at index {idx!r} has energy {val} > c = {c}")
    k = len(candidates)
    D = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            D[i, j] = D[j, i] = stacking_distance(s, idxs[i], pts[i], idxs[j], pts[j])
    tail = range(k // 2, k)
    max_tail = float(max((D[i, j] for i in tail for j in tail if j > i), default=0.0))
    limit_distances = limit_attained = None
    if limit_candidate is not None:
        limit_distances = np.asarray(
            [stacking_distance(s, idxs[i], pts[i], LIMIT, limit_candidate) for i in range(k)]
        )
        limit_attained = bool(limit_distances[-1] <= tol)
    return EquicoercivityReport(
        distance_matrix=D,
        tail_cauchy=max_tail <= tol,
        max_tail_distance=max_tail,
        limit_distances=limit_distances,
        limit_attained=limit_attained,
    )


# ---------------------------------------------------------------------------
# negative-control fixtures


def circle_minimizer_fixture(indices):
    """The wrapped-line energies whose minimizers escape every limit point.

    Phi_n(n) = 0 and Phi_n(x) = |x| + 1/n elsewhere; the limit energy is
    |x| with minimizer 0.  The per-index minimizers are the indices
    themselves and their embedded distance to 0 tends to one, not zero.
    """
    s = CircleStacking()

    def make(n):
        def f(x):
            x0 = float(np.atleast_1d(x)[0])
            return 0.0 if x0 == float(n) else abs(x0) + 1.0 / float(n)

        return f

    functionals = {n: make(n) for n in indices}
    functionals[LIMIT] = lambda x: abs(float(np.atleast_1d(x)[0]))
    e = EnergySequence(functionals=functionals)
    minimizers = [(n, np.array([float(n)])) for n in indices]
    return s, e, minimizers


def escaping_sequence_fixture(indices, dim: int = 2):
    """Zero energies with points n * e_1: bounded energy, no Cauchy tail."""
    s = SubspaceStacking(ambient_dim=dim, dims={**{n: dim for n in indices}, LIMIT: dim})
    functionals = {n: (lambda x: 0.0) for n in indices}
    functionals[LIMIT] = lambda x: 0.0
    e = EnergySequence(functionals=functionals)
    candidates = []
    for n in indices:
        x = np.zeros(dim)
        x[0] = float(n)
        candidates.append((n, x))
    return s, e, candidates

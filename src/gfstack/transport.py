"""Exact optimal transport between empirical measures, and the TL^p metric.

Distances are computed by an in-repo network simplex on the dense
transportation graph with Dantzig's entering rule (the most negative reduced
cost).  Degeneracy is broken by a symbolic perturbation of the marginals:
every flow is a pair (exact, c) standing for exact + c*eps with eps
infinitesimal, and pairs compare lexicographically, so every basis is
strongly feasible and the ratio test alone rules out cycling, whatever arc
enters.  The plan is read from the exact parts, so its marginals are the
given ones up to floating-point rounding.  The northwest-corner start is
built with array operations from the merged cumulative sums of the
marginals, and the spanning tree is built only when the start's reduced
costs show it is not optimal; on sorted 1-D atoms under a convex cost of
x - y it is optimal already, and the solve runs no Python-level loop.  A
reduced cost counts as negative below -max(_RC_TOL, 4 eps max|C|), so the
simplex never pivots on the rounding of the costs.

The TL^p distance between pairs (u, mu) and (v, nu) uses the ground cost
|u_i - v_j|^p + |x_i - y_j|^p; the spatial part alone is the plan's
stagnation cost, the certificate of measure convergence.  tlp_distance and
wasserstein allocate three m x n arrays: the spatial part, the cost and the
plan.  The reduced costs are tested in blocks of rows, and the plan's dense
checks sum without forming products.  tlp_distances compares the rows of two
trajectories on one measure pair, with the start and its plan built, and the
plan's marginals checked, once for all rows.

At p = 2 the rows of tlp_distances and the W_2 recoveries of the TL^p
stacking and the heat instances go through a _TL2Staircase, one measure
pair's staircase kept as its cells (O(m + n) data) for all of them.  It
forms the costs on the cells only, and certifies the staircase with the
m x n reduced costs as the product of an m x (d+3) and a (d+3) x n matrix,
formed in row blocks and tested against an error bound; a row or pair it
cannot certify is solved through the dense path.  The only m x n array of
these paths is a recovery's plan, formed for the call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .convex import weighted_lr_norm
from .errors import ConstructionError, PreconditionError, SolverDiagnosticError

MARGINAL_TOL = 1e-9
_RC_TOL = 1e-12  # the reduced-cost tolerance while 4 eps max|C| is below it (max|C| <= 1125)
_EPS = np.finfo(float).eps
_MAX_PIVOTS = 200_000
_RC_BLOCK = 1 << 14  # cells per block of the reduced-cost test


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Finitely many atoms in R^d with positive weights summing to one."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        if atoms.ndim != 2:
            raise ConstructionError("atoms must be an (n, d) array")
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        if w.size != atoms.shape[0]:
            raise ConstructionError("one weight per atom required")
        if np.any(w <= 0):
            raise ConstructionError("weights must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ConstructionError(f"weights must sum to 1 within 1e-12, got {w.sum()!r}")
        if not np.all(np.isfinite(atoms)):
            raise ConstructionError("atoms must be finite")
        atoms = atoms.copy()
        w = w.copy()
        atoms.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


def uniform_measure(points) -> EmpiricalMeasure:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 1 and np.asarray(points).ndim == 1:
        pts = pts.T
    n = pts.shape[0]
    return EmpiricalMeasure(atoms=pts, weights=np.full(n, 1.0 / n))


@dataclass(frozen=True)
class TLpPoint:
    """A function sampled on the atoms of an empirical measure."""

    measure: EmpiricalMeasure
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != self.measure.n_atoms:
            raise ConstructionError("one value per atom required")
        if not np.all(np.isfinite(vals)):
            raise ConstructionError("values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def lq_norm(self, q: float) -> float:
        """Weighted L^q norm of the values (max over atoms for q = inf)."""
        return weighted_lr_norm(self.values, self.measure.weights, q)


@dataclass
class TransportPlan:
    """A coupling with prescribed marginals plus its cost bookkeeping."""

    pi: np.ndarray
    source: EmpiricalMeasure
    target: EmpiricalMeasure
    cost: float
    stagnation_cost: float
    cost_matrix: np.ndarray

    def marginal_errors(self):
        return _marginal_errors(self.pi.sum(axis=1), self.pi.sum(axis=0), self.source, self.target)

    def check_marginals(self, tol: float = MARGINAL_TOL):
        _check_marginals(*self.marginal_errors(), tol)

    def check_cost(self, tol: float = MARGINAL_TOL):
        """Recompute sum(pi * C) over every cell, with no m x n product formed."""
        recomputed = float(np.einsum("ij,ij->", self.pi, self.cost_matrix))
        if abs(recomputed - self.cost) > _cost_tol(recomputed, self.cost, tol):
            raise PreconditionError("stored cost disagrees with the cost matrix")

    def check(self, tol: float = MARGINAL_TOL):
        self.check_marginals(tol)
        self.check_cost(tol)


def _marginal_errors(rows, cols, source: EmpiricalMeasure, target: EmpiricalMeasure):
    """How far a plan's row and column sums are from the source and target weights."""
    return float(np.abs(rows - source.weights).max()), float(np.abs(cols - target.weights).max())


def _check_marginals(row, col, tol: float = MARGINAL_TOL):
    if row > tol or col > tol:
        raise PreconditionError(f"plan marginals off by ({row:.3e}, {col:.3e})")


def _pow_p(vals: np.ndarray, p: float) -> np.ndarray:
    """|vals|^p, evaluated in log space for large p to limit overflow.

    Works in place on vals and returns it.
    """
    a = np.abs(vals, out=vals)
    if p <= 8:
        a **= p
        return a
    pos = a > 0
    a[pos] = np.exp(p * np.log(a[pos]))
    return a


class _SpanningTree:
    """Spanning-tree basis bookkeeping for the transportation simplex."""

    def __init__(self, m: int, n: int):
        self.m, self.n = m, n
        self.adj = [set() for _ in range(m + n)]  # node -> neighbor nodes
        self.flows = {}  # (i, j) arc -> (exact, eps coefficient) flow

    def add(self, i, j, flow):
        self.adj[i].add(self.m + j)
        self.adj[self.m + j].add(i)
        self.flows[(i, j)] = flow

    def remove(self, i, j):
        self.adj[i].discard(self.m + j)
        self.adj[self.m + j].discard(i)
        del self.flows[(i, j)]

    def path(self, start, goal):
        """Node path from start to goal through the tree (BFS)."""
        parent = {start: None}
        queue = [start]
        while queue:
            nxt = []
            for node in queue:
                if node == goal:
                    out = [node]
                    while parent[out[-1]] is not None:
                        out.append(parent[out[-1]])
                    return out[::-1]
                for nb in self.adj[node]:
                    if nb not in parent:
                        parent[nb] = node
                        nxt.append(nb)
            queue = nxt
        raise SolverDiagnosticError("basis lost connectivity")

    def potentials(self, C):
        """Node potentials with u_0 = 0 so that u_i + v_j = C_ij on basic arcs."""
        m, n = self.m, self.n
        u = np.full(m, np.nan)
        v = np.full(n, np.nan)
        u[0] = 0.0
        stack = [0]
        seen = {0}
        while stack:
            node = stack.pop()
            for nb in self.adj[node]:
                if nb in seen:
                    continue
                seen.add(nb)
                if node < m:  # source -> sink
                    v[nb - m] = C[node, nb - m] - u[node]
                else:
                    u[nb] = C[nb, node - m] - v[node - m]
                stack.append(nb)
        if len(seen) != m + n:
            raise SolverDiagnosticError("basis tree is not spanning")
        return u, v


def _northwest_corner(a, b):
    """Staircase start on the perturbed marginals: cells (i, j) and flows.

    Source i supplies a[i] + (i+1)/m eps, so the sources end at the merged
    cumulative sums of a (exact parts) and of (i+1)/m (eps parts), and the
    sinks at those of b with eps part 0, the last sink taking the sources'
    eps total.  Merging the interior breakpoints in lexicographic order (a
    sink before a source at an exact tie, since the source's eps part is
    positive) walks the staircase; each cell's flow is the difference of
    consecutive breakpoints, as an (exact, eps) pair.
    """
    m, n = len(a), len(b)
    ca, cb = np.cumsum(a), np.cumsum(b)
    ea = np.cumsum(np.arange(1, m + 1) / m)
    pos = np.concatenate([cb[:-1], ca[:-1]])
    eps = np.concatenate([np.zeros(n - 1), ea[:-1]])
    order = np.lexsort((eps, pos))
    down = order >= n - 1  # a source breakpoint: the staircase moves to the next source
    pos = np.concatenate([[0.0], pos[order], [min(ca[-1], cb[-1])]])
    eps = np.concatenate([[0.0], eps[order], [ea[-1]]])
    i = np.concatenate([[0], np.cumsum(down)])
    j = np.concatenate([[0], np.cumsum(~down)])
    return i, j, np.diff(pos), np.diff(eps)


def _staircase_potentials(c, i):
    """Potentials u_0 = 0, u_i + v_j = c_k on the staircase cells (i_k, j_k).

    Consecutive cells share a source or a sink, so a step down adds the cost
    difference to u and a step right adds it to v.
    """
    dc = np.diff(c)
    down = np.diff(i) > 0
    u = np.concatenate([[0.0], np.cumsum(dc[down])])
    v = c[0] + np.concatenate([[0.0], np.cumsum(dc[~down])])
    return u, v


def _cost_tol(recomputed, cost, tol=MARGINAL_TOL) -> float:
    """The tolerance of a cost check: recomputed against the stored cost.

    16 eps max(|recomputed|, |cost|) when that is above tol and finite, tol
    otherwise.  The two sums add the plan's cost terms in different orders,
    so they differ by rounding relative to the cost: on 10 x 11 1-D
    problems with N(0, s^2) values, s = 1e3 to 1e6, by at most 2.2 eps
    cost, while an absolute tol of 1e-9 is a few ulps of a cost near 1e6.
    Below a cost of about 2.8e5 the tolerance is tol.
    """
    scaled = 16.0 * _EPS * max(abs(recomputed), abs(cost))
    return float(scaled) if tol < scaled < np.inf else tol


def _rc_tol(scale) -> float:
    """The reduced-cost tolerance for costs of magnitude up to scale.

    4 eps * scale, a bound on the rounding of a reduced cost, when that is
    above _RC_TOL; _RC_TOL when it is below or scale is not finite.
    """
    tol = 4.0 * _EPS * scale
    return float(tol) if _RC_TOL < tol < np.inf else _RC_TOL


def _pivot_to_optimum(tree: _SpanningTree, C, tol):
    """Network-simplex pivots from a feasible tree until no reduced cost is below -tol."""
    m, n = C.shape
    for _ in range(_MAX_PIVOTS):
        u, v = tree.potentials(C)
        rc = C - u[:, None]
        rc -= v
        # Dantzig: the most negative of the eligible reduced costs enters
        eligible = np.where(rc < -tol, rc, 0.0)
        enter = int(np.argmin(eligible))
        if eligible.flat[enter] == 0.0:
            return
        ei, ej = divmod(enter, n)
        # cycle: entering arc plus the tree path from sink ej back to source ei
        nodes = tree.path(m + ej, ei)
        cycle = [(ei, ej, +1)]
        sign = -1
        for k in range(len(nodes) - 1):
            x, y = nodes[k], nodes[k + 1]
            arc = (x, y - m) if x < m else (y, x - m)
            cycle.append((arc[0], arc[1], sign))
            sign = -sign
        theta = (np.inf, 0.0)
        leave = None
        for i, j, s in cycle[1:]:
            if s < 0 and tree.flows[(i, j)] < theta:
                theta = tree.flows[(i, j)]
                leave = (i, j)
        if leave is None:
            raise SolverDiagnosticError("unbounded pivot in a bounded transportation problem")
        for i, j, s in cycle[1:]:
            f0, f1 = tree.flows[(i, j)]
            tree.flows[(i, j)] = (f0 + s * theta[0], f1 + s * theta[1])
        tree.remove(*leave)
        tree.add(ei, ej, theta)
    raise SolverDiagnosticError(f"network simplex exceeded {_MAX_PIVOTS} pivots")


def _rc_scratch(m: int, n: int) -> np.ndarray:
    """Scratch rows for the blocked reduced-cost test: at most _RC_BLOCK cells, or one row."""
    return np.empty((max(1, min(m, _RC_BLOCK // n)), n))


def _any_reduced_cost_below(C, u, v, scratch, tol) -> bool:
    """Whether any reduced cost C_ij - u_i - v_j is below -tol.

    Every cell is tested, block by block of scratch's row count, so the m x n
    reduced costs are never formed at once; a NaN fails the comparison, as
    it does in a dense test.
    """
    rows = scratch.shape[0]
    for r in range(0, C.shape[0], rows):
        block = C[r:r + rows]
        rc = np.subtract(block, u[r:r + rows, None], out=scratch[: block.shape[0]])
        rc -= v
        if np.any(rc < -tol):
            return True
    return False


def _staircase(cells, shape):
    """A _northwest_corner start with its dense plan: cells, (exact, eps) flows and plan."""
    i, j, flow, flow_eps = cells
    P = np.zeros(shape)
    P[i, j] = flow
    return i, j, flow, flow_eps, P


def _solve(C, start, scratch):
    """Optimal plan and cost on C from a _staircase start.

    The start's own plan is returned when its reduced costs show it optimal;
    otherwise the spanning tree is built from it and pivoted, into a fresh
    plan.  The cost is summed over the plan's basis cells.
    """
    i, j, flow, flow_eps, P = start
    c = C[i, j]
    u, v = _staircase_potentials(c, i)
    # max|C| in two reductions, with no m x n temporary
    tol = _rc_tol(max(np.fmax.reduce(C, axis=None), -np.fmin.reduce(C, axis=None)))
    if _any_reduced_cost_below(C, u, v, scratch, tol):
        tree = _SpanningTree(*C.shape)
        for cell in zip(i.tolist(), j.tolist(), zip(flow.tolist(), flow_eps.tolist())):
            tree.add(*cell)
        _pivot_to_optimum(tree, C, tol)
        i, j = np.transpose(list(tree.flows))
        flow = np.array([f for f, _ in tree.flows.values()])
        P = np.zeros(C.shape)
        P[i, j] = flow
        c = C[i, j]
    return P, float(np.sum(flow * c))


def solve_transport(a, b, C):
    """Minimize sum_ij P_ij C_ij over couplings with marginals (a, b).

    Returns (plan matrix, optimal cost), the cost summed over the basis
    cells of the plan (at most m + n - 1).  Dense network simplex with a
    northwest-corner start and Dantzig's entering rule.  Flows carry the
    marginal perturbation symbolically as (exact, eps coefficient) pairs, so
    the ratio test is lexicographic and no feasible basis of the perturbed
    problem is degenerate.  An exact part never goes negative: a flow
    (f0, f1) >= theta = (t0, t1) has f0 >= t0, so f0 - t0 >= 0 in IEEE
    arithmetic.  The staircase start and its potentials are arrays, and
    all m x n of its reduced costs are tested in row blocks; the spanning
    tree is built, and pivoted, only when one of them is below
    -max(_RC_TOL, 4 eps max|C|).

    A public entry point for callers with their own cost matrix, and the one
    the linprog oracle tests solve through.  No runner path calls it: the
    TL^p plans go through _tlp_plans, which shares _solve.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    if len(a) != m or len(b) != n:
        raise PreconditionError("marginal sizes must match the cost matrix")
    if abs(a.sum() - b.sum()) > 1e-9:
        raise PreconditionError("marginals must have equal total mass")
    return _solve(C, _staircase(_northwest_corner(a, b), C.shape), _rc_scratch(m, n))


def _squared_distances(x, y, subtract):
    """Sum over the coordinates k of subtract(x[:, k], y[:, k]) ** 2.

    The squares are summed in place, in the order np.sum takes for d < 8,
    into the first coordinate's square.  subtract is np.subtract.outer for
    all pairs of atoms, or np.subtract for paired rows of x and y; a pair
    gets the same bits either way.
    """
    sq = subtract(x[:, 0], y[:, 0])
    sq *= sq
    dk = None
    for k in range(1, x.shape[1]):
        dk = subtract(x[:, k], y[:, k], out=dk)
        dk *= dk
        sq += dk
    return sq


def _spatial_cost_matrix(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float) -> np.ndarray:
    """|x_i - y_j|^p for every pair of atoms.

    At p = 2 the squared distances are the cost, with no sqrt and no power;
    other p take _pow_p of their square root.
    """
    x, y = mu.atoms, nu.atoms
    if x.shape[1] == 0:  # the atoms of R^0 all coincide
        return np.zeros((x.shape[0], y.shape[0]))
    sq = _squared_distances(x, y, np.subtract.outer)
    if p == 2:
        return sq
    return _pow_p(np.sqrt(sq, out=sq), p)


def wasserstein(mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0):
    """p-Wasserstein distance and an optimal plan between empirical measures.

    The TL^p distance between the measures carrying zero functions: the value
    part of its cost vanishes exactly, so the plan is the spatial one.
    """
    return tlp_distance(TLpPoint(mu, np.zeros(mu.n_atoms)), TLpPoint(nu, np.zeros(nu.n_atoms)), p)


def _checked_staircase(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    """The _northwest_corner cells of (mu, nu) in one dimension, and its plan's row and column sums.

    The sums, bincounts over the cells, are checked against the weights once
    per measure pair: they do not depend on the values.
    """
    if mu.dim != nu.dim:
        raise PreconditionError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    cells = _northwest_corner(mu.weights, nu.weights)
    i, j, flow, _ = cells
    r, s = np.bincount(i, flow, mu.n_atoms), np.bincount(j, flow, nu.n_atoms)
    _check_marginals(*_marginal_errors(r, s, mu, nu))
    return cells, r, s


def _tlp_plans(mu: EmpiricalMeasure, nu: EmpiricalMeasure, U, V, p: float):
    """Checked optimal plans for the TL^p costs of the row pairs (U[k], V[k]).

    Yields (plan, spatial) for each row; plan.stagnation_cost is left nan.
    The spatial matrix, the staircase start and its dense plan are built
    once, and the staircase's marginals checked once.  Each row's cost
    |u_i - v_j|^p + spatial is formed in place in one buffer, the
    cost_matrix of every yielded plan, so a caller reads a plan before it
    asks for the next row.  Every row runs the full reduced-cost test and
    the dense cost check; a row whose staircase is not optimal is pivoted
    into a fresh plan, whose marginals are checked as well.
    """
    cells = _checked_staircase(mu, nu)[0]
    if not 1 <= p < np.inf:
        raise PreconditionError("p must be finite and >= 1")
    start = _staircase(cells, (mu.n_atoms, nu.n_atoms))
    staircase = start[-1]
    spatial = _spatial_cost_matrix(mu, nu, p)
    C = np.empty_like(spatial)
    scratch = _rc_scratch(*C.shape)
    for u, v in zip(U, V):
        C[...] = u[:, None]  # u_i - v_j in place, without np.subtract.outer's iteration buffers
        C -= v
        _pow_p(C, p)
        C += spatial
        P, cost = _solve(C, start, scratch)
        plan = TransportPlan(pi=P, source=mu, target=nu, cost=cost, stagnation_cost=np.nan,
                             cost_matrix=C)
        if P is not staircase:
            plan.check_marginals()
        plan.check_cost()
        yield plan, spatial


def tlp_distance(a: TLpPoint, b: TLpPoint, p: float = 2.0):
    """TL^p distance between (u, mu) and (v, nu) and an optimal plan.

    The one-row case of tlp_distances.  The plan's cost is summed over its
    basis cells; plan.check() recomputes it densely over every cell, a
    check independent of that sum, with the marginals.  The stagnation
    cost is summed last, with the product written over the spatial matrix.
    """
    (plan, spatial), = _tlp_plans(a.measure, b.measure, a.values[None], b.values[None], p)
    plan.stagnation_cost = float(np.multiply(plan.pi, spatial, out=spatial).sum())
    return float(max(plan.cost, 0.0) ** (1.0 / p)), plan


def _products_at_least(A, B, floor, scratch) -> bool:
    """Whether every entry of A @ B is at least floor (a NaN entry is skipped).

    The product is formed in row blocks of scratch's row count, so its
    m x n entries are never held at once.
    """
    rows = scratch.shape[0]
    for r in range(0, A.shape[0], rows):
        a = A[r:r + rows]
        if not np.fmin.reduce(np.matmul(a, B, out=scratch[: a.shape[0]]), axis=None) >= floor:
            return False
    return True


class _TL2Staircase:
    """The checked staircase of (mu, nu), certified row by row at p = 2.

    Kept as its cells (i_k, j_k) and flows, O(m + n) data, for every
    distances row and recovery a caller asks of the pair.

    Write f, g for a row's values, u, v for its staircase potentials.  The
    costs c = (f_i - g_j)^2 + |x_i - y_j|^2 are formed on the staircase
    cells only, by the operations _tlp_plans applies to every cell, so c,
    u, v and the cost sum(flow * c) are bitwise those of the one-row solve.
    The reduced costs of all cells are the product R of the rows
    [alpha_i, 1, f_i, x_i] and the columns [1, beta_j, -2 g_j, -2 y_j]:

        C_ij - u_i - v_j = alpha_i + beta_j - 2 (f_i g_j + <x_i, y_j>),
        alpha_i = f_i^2 + |x_i|^2 - u_i,  beta_j = g_j^2 + |y_j|^2 - v_j.

    Error bound.  Let a_i = f_i^2 + |x_i|^2 + |u_i|, b_j = g_j^2 + |y_j|^2
    + |v_j|, S = max a + max b.  As 2|f_i g_j| <= f_i^2 + g_j^2,
    2|<x_i, y_j>| <= |x_i|^2 + |y_j|^2 and C_ij <= 2 (a_i + b_j), no term
    of either form exceeds 2 (a_i + b_j).  To first order, in units of
    (eps/2)(a_i + b_j): alpha_i and beta_j, sums of d + 2 terms, are off by
    at most d + 2; an entry of R, d + 3 terms summed in any order, with or
    without fused multiply-adds, by at most 2 (d + 3); the direct
    fl(fl(C_ij - u_i) - v_j) of _any_reduced_cost_below, C_ij rounded d + 3
    times, by at most 2 (d + 3) + 6.  So the two forms differ by at most
    (5d + 20)(eps/2) S.  With KAPPA = 8 (d + 4) and tol = _RC_TOL, a row is
    certified when 4 S is finite, which rules out an overflow in R, and

        min R >= KAPPA (eps/2) (S + tol) - tol,

    the other 3d + 12 units covering the second-order terms and the
    rounding of S and of this threshold.  No direct reduced cost of a
    certified row is then below -tol, nor below the one-row solve's
    -_rc_tol(max|C|), so that solve keeps the staircase and this cost.
    A staircase cell's reduced cost is 0, so a certified row has
    (5d + 24)(eps/2) S < tol, S < 311 at d = 1: a scaled tol, at most
    4 eps max c <= 8 eps S, could certify no row.

    A certified row's cost is checked against sum_ij P_ij C_ij over the
    staircase plan P, zero off the cells, so expanded over them as
    r.(f^2 + |x|^2) + s.(g^2 + |y|^2) - 2 (f.Pg + sum(x * Py)) with r, s, Pg
    and Py bincounts of the cells, as TransportPlan.check_cost checks its cost.
    """

    def __init__(self, mu: EmpiricalMeasure, nu: EmpiricalMeasure):
        self.mu, self.nu = mu, nu
        x, y = mu.atoms, nu.atoms
        (i, j, self.flow, _), self.r, self.s = _checked_staircase(mu, nu)
        self.i, self.j = i, j
        (m, d), n = x.shape, len(y)
        self.shape = m, n
        # |x_i - y_j|^2 on the cells
        self.spatial = _squared_distances(x[i], y[j], np.subtract) if d else np.zeros(len(i))
        self.xsq, self.ysq = np.einsum("ik,ik->i", x, x), np.einsum("jk,jk->j", y, y)
        Py = np.array([np.bincount(i, self.flow * yk, m) for yk in y[j].T]).reshape(d, m)
        self.dense_spatial = (self.r @ self.xsq + self.s @ self.ysq
                              - 2.0 * np.einsum("ik,ki->", x, Py))
        self.kappa_u = 8 * (d + 4) * _EPS / 2

    def cost(self, f, g):
        """The staircase's cost for the row (f, g), checked densely; None when not certified."""
        c = _pow_p(f[self.i] - g[self.j], 2.0)
        c += self.spatial
        u, v = _staircase_potentials(c, self.i)
        fsq, gsq = f * f, g * g
        # rows [alpha_i, 1, f_i, x_i] and columns [1, beta_j, -2 g_j, -2 y_j]
        A = np.column_stack([fsq + self.xsq - u, np.ones(len(f)), f, self.mu.atoms])
        B = np.vstack([np.ones(len(g)), gsq + self.ysq - v, -2.0 * g, -2.0 * self.nu.atoms.T])
        S = np.max(fsq + self.xsq + np.abs(u)) + np.max(gsq + self.ysq + np.abs(v))
        floor = self.kappa_u * (S + _RC_TOL) - _RC_TOL
        if not (np.isfinite(4.0 * S) and _products_at_least(A, B, floor, _rc_scratch(*self.shape))):
            return None
        cost = float(np.sum(self.flow * c))
        Pg = np.bincount(self.i, self.flow * g[self.j], len(f))
        dense = self.r @ fsq + self.s @ gsq - 2.0 * (f @ Pg) + self.dense_spatial
        if abs(dense - cost) > _cost_tol(dense, cost):
            raise PreconditionError("stored cost disagrees with the dense recomputation")
        return cost

    def distances(self, U, V) -> np.ndarray:
        """TL^2 distances of the rows (U[k], V[k]); one not certified is solved by _tlp_plans."""
        U, V = _checked_rows(self.mu, self.nu, U, V)
        out = np.empty(len(U))
        for k, (f, g) in enumerate(zip(U, V)):
            cost = self.cost(f, g)
            if cost is None:
                (plan, _), = _tlp_plans(self.mu, self.nu, f[None], g[None], 2.0)
                cost = plan.cost
            out[k] = max(cost, 0.0) ** 0.5
        return out

    def recovery(self, target_values):
        """W_2(mu, nu), the barycentric map of target_values and the stagnation cost.

        Bitwise what wasserstein, barycentric_map and plan.stagnation_cost
        give.  Certified for the zero functions, the three are read off the
        plan P, formed for this call alone: the conditional averages over
        P's row sums, and the sum of P with the spatial costs multiplied into
        its cells, the array np.multiply(pi, spatial) sums.  Otherwise they
        come from wasserstein.
        """
        cost = self.cost(np.zeros(self.shape[0]), np.zeros(self.shape[1]))
        if cost is None:
            d, plan = wasserstein(self.mu, self.nu, 2.0)
            return d, barycentric_map(plan, target_values), plan.stagnation_cost
        P = np.zeros(self.shape)
        P[self.i, self.j] = self.flow
        point = _conditional_averages(P, P.sum(axis=1), target_values)
        P[self.i, self.j] *= self.spatial
        return max(cost, 0.0) ** 0.5, point, float(P.sum())


def _checked_rows(mu: EmpiricalMeasure, nu: EmpiricalMeasure, U, V):
    """U and V as (k, m) and (k, n) float value rows on mu and nu, every value finite."""
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if (U.ndim != 2 or V.ndim != 2 or len(U) != len(V)
            or U.shape[1] != mu.n_atoms or V.shape[1] != nu.n_atoms):
        raise PreconditionError(
            f"need (k, {mu.n_atoms}) and (k, {nu.n_atoms}) value rows, got {U.shape} and {V.shape}")
    if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
        raise ConstructionError("values must be finite")
    return U, V


def tlp_distances(mu: EmpiricalMeasure, nu: EmpiricalMeasure, U, V, p: float = 2.0) -> np.ndarray:
    """TL^p distances between (U[k], mu) and (V[k], nu) for every row k.

    For trajectories sampled on one pair of measures, such as a graph flow
    and its limit at common times.  Each distance is bitwise the one
    tlp_distance returns for the row pair, with the same checks; only the
    work that does not depend on the values is shared.  At p = 2 the rows
    go through the pair's _TL2Staircase, which forms no cost matrix.
    """
    U, V = _checked_rows(mu, nu, U, V)
    if p == 2:
        return _TL2Staircase(mu, nu).distances(U, V)
    return np.array([max(plan.cost, 0.0) ** (1.0 / p) for plan, _ in _tlp_plans(mu, nu, U, V, p)])


def _conditional_averages(pi, rows, target_values) -> np.ndarray:
    """pi @ v / rows, with rows the row sums of pi, after barycentric_map's checks."""
    v = np.asarray(target_values, dtype=float).reshape(-1)
    if v.size != pi.shape[1]:
        raise PreconditionError("one target value per target atom required")
    if np.any(rows <= 0):
        raise PreconditionError("every source atom needs positive plan mass")
    return pi @ v / rows


def barycentric_map(plan: TransportPlan, target_values) -> np.ndarray:
    """Conditional averages of target values under the plan's disintegration.

    u(x_i) = sum_j pi_ij v_j / sum_j pi_ij: the recovery construction that
    turns a limit function into approximations on the source atoms.
    """
    return _conditional_averages(plan.pi, plan.pi.sum(axis=1), target_values)


def _spatial_recovery(mu: EmpiricalMeasure, nu: EmpiricalMeasure, target_values, p: float):
    """W_p(mu, nu), the barycentric map of target_values and the stagnation cost.

    Bitwise what wasserstein, barycentric_map and plan.stagnation_cost give:
    at p = 2 from the pair's _TL2Staircase (its recovery), at any other p
    from wasserstein's plan.
    """
    if p == 2:
        return _TL2Staircase(mu, nu).recovery(target_values)
    d, plan = wasserstein(mu, nu, p)
    return d, barycentric_map(plan, target_values), plan.stagnation_cost


@dataclass
class InterpolationReport:
    lhs: float
    rhs: float
    theta: float
    ok: bool


def interpolation_bound_check(
    a: TLpPoint, b: TLpPoint, p: float, q: float, r: float, C: float
) -> InterpolationReport:
    """Check d_{TL^r} <= d_r(mu, nu) + (2C)^{q(1-theta)/r} d_{TL^p}^{theta p / r}.

    Requires 1 <= p < q <= inf, p <= r < q, theta = (q - r)/(q - p), and both
    L^q norms bounded by C.
    """
    if not (1 <= p < q and p <= r < q):
        raise PreconditionError(f"need 1 <= p < q and p <= r < q, got p={p}, q={q}, r={r}")
    norm_bound = max(a.lq_norm(q), b.lq_norm(q))
    if norm_bound > C:
        raise PreconditionError(f"C={C} is smaller than the actual L^q norms ({norm_bound})")
    if np.isinf(q):
        theta = 1.0
        exponent = (r - p) / r
    else:
        theta = (q - r) / (q - p)
        exponent = q * (1.0 - theta) / r
    lhs, _ = tlp_distance(a, b, r)
    d_r, _ = wasserstein(a.measure, b.measure, r)
    d_p, _ = tlp_distance(a, b, p)
    rhs = d_r + (2.0 * C) ** exponent * d_p ** (theta * p / r)
    return InterpolationReport(lhs=lhs, rhs=rhs, theta=theta, ok=lhs <= rhs + 1e-9)


# ---------------------------------------------------------------------------
# serialization used by the CLI


def tlp_point_to_record(pt: TLpPoint) -> dict:
    return {
        "dim": pt.measure.dim,
        "atoms": pt.measure.atoms.tolist(),
        "weights": pt.measure.weights.tolist(),
        "values": pt.values.tolist(),
    }


def tlp_point_from_record(rec: dict) -> TLpPoint:
    atoms = np.asarray(rec["atoms"], dtype=float)
    if atoms.ndim == 1:
        atoms = atoms[:, None]
    if atoms.shape[1] != int(rec["dim"]):
        raise ConstructionError("record dim disagrees with atom coordinates")
    measure = EmpiricalMeasure(atoms=atoms, weights=np.asarray(rec["weights"], dtype=float))
    return TLpPoint(measure=measure, values=np.asarray(rec["values"], dtype=float))


def dump_tlp_point(pt: TLpPoint) -> str:
    return json.dumps(tlp_point_to_record(pt), indent=1)


def load_tlp_point(text: str) -> TLpPoint:
    return tlp_point_from_record(json.loads(text))

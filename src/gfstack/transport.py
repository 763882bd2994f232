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
stagnation cost, the certificate of measure convergence.  Every TL^p
distance, plan and recovery (tlp_distance, wasserstein, the TL^p stacking
and the heat instances) is one call on a TLpPair, the measure pair's
checked staircase, through its two entry points: distances of value rows
and the W_p recovery.  Its docstring gives the certificates and their
order.  A dense solve allocates three m x n arrays: the spatial part, the
cost and the plan.  A cost that is not finite raises SolverDiagnosticError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

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
        if not np.all(w > 0):  # a NaN weight is not positive
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
        _check_cost(float(np.einsum("ij,ij->", self.pi, self.cost_matrix)), self.cost, tol)


def _marginal_errors(rows, cols, source: EmpiricalMeasure, target: EmpiricalMeasure):
    """How far a plan's row and column sums are from the source and target weights."""
    return float(np.abs(rows - source.weights).max()), float(np.abs(cols - target.weights).max())


def _check_marginals(row, col, tol: float = MARGINAL_TOL):
    if row > tol or col > tol:
        raise PreconditionError(f"plan marginals off by ({row:.3e}, {col:.3e})")


def _pow_p(vals: np.ndarray, p: float) -> np.ndarray:
    """|vals|^p, in place on vals, which it returns; inf where the power overflows."""
    np.abs(vals, out=vals)
    vals **= p
    return vals


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


def _check_cost(recomputed, cost, tol=MARGINAL_TOL, scale=0.0):
    """Raise unless a stored cost and its dense recomputation agree within _cost_tol.

    scale, when above |recomputed|, bounds the terms of a recomputation that
    cancel.  A NaN difference (inf - inf, 0 * inf) fails too: finite costs
    that disagree raise PreconditionError, a non-finite one SolverDiagnosticError.
    """
    if not abs(recomputed - cost) <= _cost_tol(max(abs(recomputed), scale), cost, tol):
        if np.isfinite(recomputed) and np.isfinite(cost):
            raise PreconditionError("stored cost disagrees with its dense recomputation")
        raise SolverDiagnosticError(f"transport cost {cost!r} (recomputed {recomputed!r}) is not finite")


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


def _dense_plan(i, j, flow, shape) -> np.ndarray:
    """The plan of the given shape with the given flows on the cells (i, j), zero elsewhere."""
    P = np.zeros(shape)
    P[i, j] = flow
    return P


def _solve(C, cells, P, scratch, monge=False):
    """Optimal plan and cost on C from the _northwest_corner cells, whose dense plan is P.

    P itself is returned when C is a Monge array (monge) and its cost is
    finite, or when its reduced costs show it optimal; otherwise the
    spanning tree is built from the cells and pivoted, into a fresh plan.
    The cost is summed over the plan's basis cells.
    """
    i, j, flow, flow_eps = cells
    c = C[i, j]
    cost = float(np.sum(flow * c))
    if monge and np.isfinite(cost):
        return P, cost
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
        P = _dense_plan(i, j, flow, C.shape)
        cost = float(np.sum(flow * C[i, j]))
    return P, cost


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
    TL^p plans go through TLpPair._plans, which shares _solve.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    C = np.asarray(C, dtype=float)
    m, n = C.shape
    if len(a) != m or len(b) != n:
        raise PreconditionError("marginal sizes must match the cost matrix")
    if abs(a.sum() - b.sum()) > 1e-9:
        raise PreconditionError("marginals must have equal total mass")
    cells = _northwest_corner(a, b)
    return _solve(C, cells, _dense_plan(*cells[:3], C.shape), _rc_scratch(m, n))


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


def _similarly_ordered(a, b) -> bool:
    """Whether a and b are both nondecreasing or both nonincreasing.

    Each sequence is compared with itself shifted by one, an exact test in
    floating point, with no difference formed that could round or overflow.
    """
    rising = (a[1:] >= a[:-1]).all() and (b[1:] >= b[:-1]).all()
    return bool(rising or ((a[1:] <= a[:-1]).all() and (b[1:] <= b[:-1]).all()))


def _monge_rows(mu: EmpiricalMeasure, nu: EmpiricalMeasure):
    """The Monge test of the value rows on (mu, nu): a predicate of a row pair (f, g).

    It holds when the atoms are 1-D and similarly ordered, and f and g are
    similarly ordered.  Then for i < i' and j < j' both pairs of differences
    have one sign, and at p = 2

        c_ij + c_i'j' - c_ij' - c_i'j = -2 [(f_i' - f_i)(g_j' - g_j) + (x_i' - x_i)(y_j' - y_j)] <= 0

    for c_ij = (f_i - g_j)^2 + (x_i - y_j)^2.  At any p >= 1, h(t) = |t|^p
    is convex and h(a_i - b_j) is a Monge array for similarly ordered a and
    b, so c_ij = h(f_i - g_j) + h(x_i - y_j) is one.  On a Monge array the
    northwest-corner plan, the staircase, is optimal for any marginals
    (Hoffman 1963, "On simple linear programming problems").  The test is
    exact for the float inputs taken as reals, with no magnitude limit; the
    part on the atoms is taken once per measure pair, and a row's part is
    O(m + n).
    """
    ordered = mu.dim == 1 and _similarly_ordered(mu.atoms[:, 0], nu.atoms[:, 0])
    return lambda f, g: ordered and _similarly_ordered(f, g)


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


class TLpPair:
    """The TL^p measure pair (mu, nu): the one solver of its TL^p distances, plans and recoveries.

    Two entry points: distances(U, V), the TL^p distances of value rows on
    mu and nu, and recovery(target_values), W_p(mu, nu) with the barycentric
    map of the target values and the stagnation cost.

    A pair builds the _northwest_corner staircase of the weights once, kept
    as its cells (i_k, j_k) and flows, O(m + n) data, and checks the
    staircase plan's row and column sums against the weights; then it
    checks p.  Write f, g for a row's values, u, v for its staircase
    potentials.  A row, or a recovery's zero functions, is answered by the
    first of three certificates that applies:

    1. Monge, at any p.  On similarly ordered 1-D atoms with similarly
       ordered values the costs form a Monge array and the staircase is
       optimal (_monge_rows).  The test is exact, O(m + n) and has no
       magnitude limit.  At p = 2 such a row is certified on the cells when
       4 (max(f^2 + |x|^2) + max(g^2 + |y|^2)) is finite, S below with
       u = v = 0, which rules out an overflow in c and in the dense check.
    2. The product test, at p = 2, for every other row, below.  Its
       absolute margin certifies no row with S >= 311 (d = 1).
    3. The dense solve (_plans), for every row at p != 2 and every row
       neither certifies.  It keeps the staircase of a Monge row whose cost
       is finite, runs the m x n reduced-cost test in row blocks on every
       other row, and pivots a row whose staircase is not optimal into a
       fresh plan, whose marginals are checked as well; every row runs the
       dense cost check.

    At p = 2 the costs c = (f_i - g_j)^2 + |x_i - y_j|^2 are formed on the
    staircase cells only, by the operations _plans applies to every cell, so
    c, u, v and the cost sum(flow * c) are bitwise those of the dense solve,
    which keeps the staircase and this cost on a certified row.  The O(m + n)
    vectors this takes are built on the first _cost call, so a pair that only
    solves densely allocates nothing more than the dense solve.

    The product test.  The reduced costs of all cells are the product R of
    the rows [alpha_i, 1, f_i, x_i] and the columns [1, beta_j, -2 g_j, -2 y_j]:

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
    certified row is then below -tol, nor below the dense solve's
    -_rc_tol(max|C|), so that solve keeps the staircase and this cost.
    A staircase cell's reduced cost is 0, so a certified row has
    (5d + 24)(eps/2) S < tol, S < 311 at d = 1: a scaled tol, at most
    4 eps max c <= 8 eps S, could certify no row.

    A certified row's cost is checked against sum_ij P_ij C_ij over the
    staircase plan P, zero off the cells, so expanded over them as
    r.(f^2 + |x|^2) + s.(g^2 + |y|^2) - 2 (f.Pg + sum(x * Py)) with r, s, Pg
    and Py bincounts of the cells, as TransportPlan.check_cost checks its cost.
    Its terms cancel where values or atoms are large and close, so the check
    scales with r.a + s.b, at least half their absolute sum, as
    2|f_i g_j| <= f_i^2 + g_j^2 and 2|<x_i, y_j>| <= |x_i|^2 + |y_j|^2.
    """

    def __init__(self, mu: EmpiricalMeasure, nu: EmpiricalMeasure, p: float = 2.0):
        if mu.dim != nu.dim:
            raise PreconditionError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
        self.mu, self.nu, self.shape = mu, nu, (mu.n_atoms, nu.n_atoms)
        self.cells = self.i, self.j, self.flow, _ = _northwest_corner(mu.weights, nu.weights)
        _check_marginals(*_marginal_errors(*self._sums(), mu, nu))
        if not 1 <= p < np.inf:
            raise PreconditionError("p must be finite and >= 1")
        self.p = p
        self.monge = _monge_rows(mu, nu)

    def _sums(self):
        """The staircase plan's row and column sums r and s, bincounts over the cells."""
        return np.bincount(self.i, self.flow, self.shape[0]), np.bincount(self.j, self.flow, self.shape[1])

    @cached_property
    def _tl2(self):
        """The vectors _cost reads, built on its first call, so a pair that only solves densely holds none.

        r and s, the cells' |x_i - y_j|^2, |x|^2, |y|^2 and the staircase's sum_ij P_ij |x_i - y_j|^2.
        """
        x, y, i = self.mu.atoms, self.nu.atoms, self.i
        m, d = x.shape
        r, s = self._sums()
        spatial = _squared_distances(x[i], y[self.j], np.subtract) if d else np.zeros(len(i))
        xsq, ysq = np.einsum("ik,ik->i", x, x), np.einsum("jk,jk->j", y, y)
        Py = np.array([np.bincount(i, self.flow * yk, m) for yk in y[self.j].T]).reshape(d, m)
        return r, s, spatial, xsq, ysq, r @ xsq + s @ ysq - 2.0 * np.einsum("ik,ki->", x, Py)

    def _certified(self, f, g, c, a, b) -> bool:
        """Whether the staircase is optimal for the row (f, g): the Monge test, else the product test.

        c are the row's cell costs, a = f^2 + |x|^2 and b = g^2 + |y|^2.
        """
        if self.monge(f, g):
            return bool(np.isfinite(4.0 * (np.max(a) + np.max(b))))
        u, v = _staircase_potentials(c, self.i)
        # rows [alpha_i, 1, f_i, x_i] and columns [1, beta_j, -2 g_j, -2 y_j]
        A = np.column_stack([a - u, np.ones(len(f)), f, self.mu.atoms])
        B = np.vstack([np.ones(len(g)), b - v, -2.0 * g, -2.0 * self.nu.atoms.T])
        S = np.max(a + np.abs(u)) + np.max(b + np.abs(v))
        floor = 8 * (self.mu.dim + 4) * _EPS / 2 * (S + _RC_TOL) - _RC_TOL  # KAPPA (eps/2) (S + tol) - tol
        return bool(np.isfinite(4.0 * S) and _products_at_least(A, B, floor, _rc_scratch(*self.shape)))

    def _cost(self, f, g):
        """The staircase's TL^2 cost for the row (f, g), checked densely; None at p != 2 or uncertified."""
        if self.p != 2:
            return None
        r, s, spatial, xsq, ysq, dense_spatial = self._tl2
        c = _pow_p(f[self.i] - g[self.j], 2.0)
        c += spatial
        fsq, gsq = f * f, g * g
        a, b = fsq + xsq, gsq + ysq
        if not self._certified(f, g, c, a, b):
            return None
        cost = float(np.sum(self.flow * c))
        Pg = np.bincount(self.i, self.flow * g[self.j], len(f))
        _check_cost(r @ fsq + s @ gsq - 2.0 * (f @ Pg) + dense_spatial, cost, scale=r @ a + s @ b)
        return cost

    def _plans(self, U, V):
        """Checked optimal plans for the TL^p costs of the rows (U[k], V[k]): the dense solve.

        Yields (plan, spatial) for each row; plan.stagnation_cost is left
        nan.  The spatial matrix and the staircase's dense plan are formed
        once per call.  Each row's cost |u_i - v_j|^p + spatial is formed in
        place in one buffer, the cost_matrix of every yielded plan, so a
        caller reads a plan before it asks for the next row.
        """
        staircase = _dense_plan(self.i, self.j, self.flow, self.shape)
        spatial = _spatial_cost_matrix(self.mu, self.nu, self.p)
        C = np.empty_like(spatial)
        scratch = _rc_scratch(*self.shape)
        for u, v in zip(U, V):
            C[...] = u[:, None]  # u_i - v_j in place, without np.subtract.outer's iteration buffers
            C -= v
            _pow_p(C, self.p)
            C += spatial
            P, cost = _solve(C, self.cells, staircase, scratch, self.monge(u, v))
            plan = TransportPlan(pi=P, source=self.mu, target=self.nu, cost=cost, stagnation_cost=np.nan,
                                 cost_matrix=C)
            if P is not staircase:
                plan.check_marginals()
            plan.check_cost()
            yield plan, spatial

    def _plan(self, f, g):
        """TL^p distance of the row (f, g) and its optimal plan, by the dense solve.

        The plan's cost is summed over its basis cells; _plans re-sums it over
        every cell (check_cost), a check independent of that sum, and checks the
        marginals of a plan other than the staircase.  The stagnation cost is
        summed last, with the product written over the spatial matrix.
        """
        (plan, spatial), = self._plans(f[None], g[None])
        plan.stagnation_cost = float(np.multiply(plan.pi, spatial, out=spatial).sum())
        return float(max(plan.cost, 0.0) ** (1.0 / self.p)), plan

    def distances(self, U, V) -> np.ndarray:
        """TL^p distances of the (k, m) and (k, n) value rows (U[k], V[k]) on mu and nu.

        Each is bitwise what tlp_distance gives the row pair, with the same
        checks: the row's _cost, else one dense solve of the rows left.
        """
        U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
        if U.ndim != 2 or V.ndim != 2 or len(U) != len(V) or (U.shape[1], V.shape[1]) != self.shape:
            raise PreconditionError(f"need (k, {self.shape[0]}) and (k, {self.shape[1]}) value rows, "
                                    f"got {U.shape} and {V.shape}")
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
            raise ConstructionError("values must be finite")
        costs = [self._cost(f, g) for f, g in zip(U, V)]
        rest = [k for k, cost in enumerate(costs) if cost is None]
        if rest:  # one dense solve of the rows left, passed as views, not copies
            for k, (plan, _) in zip(rest, self._plans([U[k] for k in rest], [V[k] for k in rest])):
                costs[k] = plan.cost
        return np.array([max(cost, 0.0) ** (1.0 / self.p) for cost in costs])

    def recovery(self, target_values):
        """W_p(mu, nu), the barycentric map of target_values and the stagnation cost.

        Bitwise what wasserstein, barycentric_map and plan.stagnation_cost
        give.  When _cost certifies the zero functions, the three are read
        off the staircase plan P, formed for this call alone: the
        conditional averages over P's row sums, and the sum of P with the
        spatial costs multiplied into its cells, the array
        np.multiply(pi, spatial) sums.  Otherwise they come from _plan, the
        dense solve wasserstein runs.
        """
        zeros = np.zeros(self.shape[0]), np.zeros(self.shape[1])
        cost = self._cost(*zeros)
        if cost is None:
            d, plan = self._plan(*zeros)
            return d, barycentric_map(plan, target_values), plan.stagnation_cost
        P = _dense_plan(self.i, self.j, self.flow, self.shape)
        point = _conditional_averages(P, P.sum(axis=1), target_values)
        P[self.i, self.j] *= self._tl2[2]  # the cells' spatial costs
        return max(cost, 0.0) ** 0.5, point, float(P.sum())


def tlp_distance(a: TLpPoint, b: TLpPoint, p: float = 2.0):
    """TL^p distance between (u, mu) and (v, nu) and an optimal plan (TLpPair._plan)."""
    return TLpPair(a.measure, b.measure, p)._plan(a.values, b.values)


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


def load_tlp_point(text: str) -> TLpPoint:
    """A JSON point record's TLpPoint: ValueError for bad JSON, KeyError for a missing key, else ConstructionError."""
    rec = json.loads(text)
    if not isinstance(rec, dict):
        raise ConstructionError(f"a point record must be a JSON object, got {type(rec).__name__}")
    if type(rec["dim"]) is not int:  # bool, an int subclass, is refused too
        raise ConstructionError(f"record dim must be an integer, got {rec['dim']!r}")
    try:
        atoms, weights, values = (np.asarray(rec[key], dtype=float) for key in ("atoms", "weights", "values"))
    except TypeError as exc:  # a JSON object where numbers belong
        raise ConstructionError(f"record arrays must hold numbers: {exc}") from exc
    if atoms.ndim == 1:
        atoms = atoms[:, None]
    if atoms.ndim != 2 or atoms.shape[1] != rec["dim"]:
        raise ConstructionError(f"record atoms of shape {atoms.shape} disagree with dim {rec['dim']}")
    return TLpPoint(measure=EmpiricalMeasure(atoms=atoms, weights=weights), values=values)

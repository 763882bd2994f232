"""Concrete convex energies on weighted node spaces, and P0-convexity checks.

A graph energy F(u) = sum_ij A_ij L(u_i - u_j) with convex L >= 0 is stable
under the smooth-truncation exchange

    F(u + g(v - u)) + F(v - g(v - u)) <= F(u) + F(v)

for every g in the test class (smooth, g == 0 near 0, 0 <= g' <= 1, g'
compactly supported).  This module builds a three-parameter family of such
g, evaluates the exchange inequality exactly, reproduces the lambda-convex
counterexample that fails it, and provides weighted proxes and L^r
contraction checks for graph flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from typing import Optional

import numpy as np

from .convex import ProperFunctional, as_point, quadratic_functional, weighted_lr_norm
from .errors import ConstructionError, PreconditionError
from .flow import gradient_flow

# A path with at least this many nodes is factored in closed form and
# applied by FFT; a shorter one by eigh (see GraphEnergy).
DCT_MIN_NODES = 64


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature (the oracle behind P0TestFunction.exact_value)


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


def _bump(s):
    """exp(-1 / (1 - s^2)) on (-1, 1) and 0 elsewhere, elementwise."""
    inside = np.abs(s) < 1.0
    return np.where(inside, np.exp(-1.0 / np.where(inside, 1.0 - s * s, 1.0)), 0.0)


_RAMP_CELLS = 2**14


@cache
def _ramp_table():
    """Node values of the ramp S, of h S' and of R = integral of S on 2^14 cells of [-1, 1].

    S is the cumulative per-cell Simpson sum of the bump over the total
    mass, S' = bump / mass is exact, and R sums the exact integral of the
    cubic Hermite interpolant of (S, S') on each cell.  Built on first use,
    as Python floats for the scalar evaluators.
    """
    xs = np.linspace(-1.0, 1.0, _RAMP_CELLS + 1)
    h = xs[1] - xs[0]
    bump = _bump(xs)
    cells = (h / 6.0) * (bump[:-1] + 4.0 * _bump(0.5 * (xs[:-1] + xs[1:])) + bump[1:])
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    S = cum / cum[-1]
    hd = h * bump / cum[-1]
    R = np.concatenate([[0.0], np.cumsum(h * (0.5 * (S[:-1] + S[1:]) + (hd[:-1] - hd[1:]) / 12.0))])
    return S.tolist(), hd.tolist(), R.tolist(), float(h)


def _ramp_cell(s: float):
    """Cell index k of s in [-1, 1] and its position t in [0, 1] on that cell."""
    u = (s + 1.0) * (_RAMP_CELLS // 2)
    k = min(int(u), _RAMP_CELLS - 1)
    return k, u - k


def _smoothstep(s: float) -> float:
    """Integral of the normalized bump from -1 to s: a smooth 0 -> 1 ramp.

    Inside (-1, 1) it is the cubic Hermite interpolant of the ramp table;
    it agrees with adaptive-Simpson quadrature of the bump to about 2e-15
    (tested).
    """
    if s <= -1.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    S, hd, _, _ = _ramp_table()
    k, t = _ramp_cell(s)
    t2 = t * t
    t3 = t2 * t
    return (S[k] * (2.0 * t3 - 3.0 * t2 + 1.0) + hd[k] * (t3 - 2.0 * t2 + t)
            + S[k + 1] * (3.0 * t2 - 2.0 * t3) + hd[k + 1] * (t3 - t2))


def _smoothstep_integral(s: float) -> float:
    """Integral of _smoothstep from -1 to s, for s in [-1, 1]: exact on the Hermite cubic."""
    S, hd, R, h = _ramp_table()
    k, t = _ramp_cell(s)
    t2 = t * t
    t3 = t2 * t
    t4 = t3 * t
    return R[k] + h * (S[k] * (0.5 * t4 - t3 + t) + hd[k] * (0.25 * t4 - 2.0 * t3 / 3.0 + 0.5 * t2)
                       + S[k + 1] * (t3 - 0.5 * t4) + hd[k + 1] * (0.25 * t4 - t3 / 3.0))


@dataclass(frozen=True)
class P0TestFunction:
    """Smooth truncation profile: zero near 0, slope in [0, 1], eventual plateau.

    The five parameters are the whole function, so equal parameters compare
    equal.  Calling it integrates the derivative exactly where the derivative
    is the cubic Hermite ramp of the shared ramp table (built on its first use
    on a transition band), and uses closed forms on the dead zone, the flat
    segment and the plateau; exact_value integrates the derivative by
    adaptive Simpson instead, as the oracle.
    """

    a: float
    rise_width: float
    plateau: float
    slope: float
    one_sided: bool

    @property
    def flat_end(self) -> float:
        return self.a + self.plateau / self.slope  # == a + rise_width when the cap binds immediately

    @property
    def support_end(self) -> float:
        """The derivative vanishes beyond this (mirrored if two-sided)."""
        return self.flat_end + self.rise_width

    def __call__(self, x):
        if np.ndim(x) == 0:
            return self._value(float(x))
        return np.asarray([self._value(float(t)) for t in np.asarray(x).reshape(-1)])

    def _value(self, x: float) -> float:
        if self.one_sided:
            return self._value_pos(x) if x > 0 else 0.0
        return self._value_pos(x) if x >= 0 else -self._value_pos(-x)

    def _value_pos(self, x: float) -> float:
        a, w, slope, flat_end = self.a, self.rise_width, self.slope, self.flat_end
        # exact on the flat segment and beyond by ramp symmetry (the up and
        # down ramps each integrate to slope*w/2)
        up_area = slope * w / 2.0
        if x <= a:
            return 0.0
        if x < a + w:
            return up_area * _smoothstep_integral(2.0 * (x - a) / w - 1.0)
        if x <= flat_end:
            return up_area + slope * (x - (a + w))
        if x < flat_end + w:
            # the descent mirrors the rise, so the area still to come equals
            # the rise antiderivative at the mirrored abscissa
            return self.plateau - up_area * _smoothstep_integral(1.0 - 2.0 * (x - flat_end) / w)
        return self.plateau

    def derivative(self, x: float) -> float:
        x = float(x)
        if not self.one_sided:
            x = abs(x)
        a, w, slope, flat_end = self.a, self.rise_width, self.slope, self.flat_end
        if x <= a or x >= flat_end + w:
            return 0.0
        if x < a + w:
            return slope * _smoothstep(2.0 * (x - a) / w - 1.0)
        if x <= flat_end:
            return slope
        return slope * _smoothstep(1.0 - 2.0 * (x - flat_end) / w)

    def exact_value(self, x: float) -> float:
        """Quadrature of the derivative, for oracle-grade evaluations."""
        x = float(x)
        if x >= self.support_end:
            return self.plateau
        if self.one_sided and x <= self.a:
            return 0.0
        if not self.one_sided:
            if abs(x) <= self.a:
                return 0.0
            if x <= -self.support_end:
                return -self.plateau
            if x < 0:
                return -self.exact_value(-x)
        return adaptive_simpson(self.derivative, self.a, x, 1e-13)


def p0_family(a: float, w: float, cap: Optional[float] = None, slope: float = 1.0,
              one_sided: bool = False) -> P0TestFunction:
    """Build a test function with dead zone (-a, a), rise width w, plateau cap.

    The derivative ramps smoothly from 0 to the chosen slope over [a, a+w],
    stays constant until the accumulated value would reach the cap, then
    descends symmetrically back to 0, making the total value exactly the
    plateau.  Without a cap the plateau is slope * w (immediate descent).
    The default is the odd extension; one_sided leaves the negative axis
    identically zero (the asymmetric variant the counterexample needs).
    """
    if a <= 0 or w <= 0:
        raise ConstructionError("need a > 0 and w > 0")
    if not 0.0 < slope <= 1.0:
        raise ConstructionError(f"slope {slope} would push the derivative outside [0, 1]")
    if cap is not None:
        if cap <= 0:
            raise ConstructionError("cap must be positive")
        if cap < slope * w:
            slope = cap / w
        plateau = float(cap)
    else:
        plateau = slope * w
    return P0TestFunction(a=a, rise_width=w, plateau=plateau, slope=slope, one_sided=one_sided)


# ---------------------------------------------------------------------------
# graph energies


def _dct_basis(n: int) -> np.ndarray:
    """The orthonormal DCT-II basis Q[i, k] = sqrt(2/n) cos(pi k (i + 1/2) / n), column 0 sqrt(1/n).

    Each cosine is looked up at its exact integer phase, so the basis is
    accurate to rounding.  Formed only on request (spectral_factors of a
    path energy, and tests); the proxes apply it by FFT instead.
    """
    k = np.arange(n)  # the node index i and the frequency k share this range
    # cos(pi m / 2n) looked up at the exact integer phase m = (2i + 1) k mod 4n
    phase = np.outer(2 * k + 1, k)
    phase %= 4 * n
    Q = np.cos(np.pi * np.arange(4 * n) / (2 * n))[phase] * np.sqrt(2.0 / n)
    Q[:, 0] = np.sqrt(1.0 / n)
    return Q


def _path_eigensystem(edges, w):
    """Closed-form (evals, twiddle) of W^{-1/2} K W^{-1/2} for a path with one coefficient.

    A path i - i+1 with one coefficient c and equal node weights w has
    W^{-1/2} K W^{-1/2} = (c/w) L for the path Laplacian L, whose eigenvectors
    are the DCT-II basis _dct_basis(n) with eigenvalues 4 sin^2(pi k / 2n).
    The basis is not formed: _dct2 and _dct3 apply it in O(n log n) from the
    twiddle exp(-i pi k / 2n).  Returns None for any other graph.
    """
    iu, ju, c = edges
    n = w.size
    path = np.arange(n - 1)
    if (n < 2 or iu.size != n - 1 or np.any(iu != path) or np.any(ju != path + 1)
            or np.any(c != c[0]) or np.any(w != w[0])):
        return None
    k = np.arange(n)
    return (c[0] / w[0]) * 4.0 * np.sin(np.pi * k / (2 * n)) ** 2, np.exp(-0.5j * np.pi * k / n)


def _dct2(x: np.ndarray, twiddle: np.ndarray) -> np.ndarray:
    """X_k = sum_i x_i cos(pi k (2i + 1) / 2n), by one FFT of the reordered x (Makhoul 1980).

    The orthonormal transform is Q' x = nrm * X, with nrm_0 = sqrt(1/n) and
    nrm_k = sqrt(2/n) for k > 0.
    """
    v = np.concatenate([x[::2], x[1::2][::-1]])  # even entries, then odd ones reversed
    return (twiddle * np.fft.fft(v)).real


def _dct3(X: np.ndarray, twiddle: np.ndarray) -> np.ndarray:
    """The x with _dct2(x) = X, by one inverse FFT: Q c = _dct3(c / nrm).

    With Z_k = twiddle_k fft(v)_k, X_k = Re Z_k and X_{n-k} = -Im Z_k, so
    fft(v)_k = (X_k - i X_{n-k}) / twiddle_k with X_n = 0.
    """
    n = X.size
    v = np.fft.ifft((X - 1j * np.concatenate([[0.0], X[:0:-1]])) / twiddle).real
    x = np.empty(n)
    half = (n + 1) // 2
    x[::2], x[1::2] = v[:half], v[half:][::-1]
    return x


@dataclass(frozen=True)
class GraphEnergy:
    """F(u) = sum_ij A_ij L(u_i - u_j) over weighted nodes.

    loss_kind is "squared" or "absolute".  node_weights are the discrete
    measure entering the prox quadratic term and every norm; they are
    validated positive but not forced to sum to one (shipped measure-based
    instances use probability weights).  Construction stores the edge list
    (iu, ju, c): the pairs i < j with c = A_ij + A_ji > 0, over which the
    value and the squared-loss gradient are summed.  Only the squared loss
    has a prox (graph_prox); an absolute-loss energy (graph total
    variation) serves its value, its edge list and the exchange checks.

    Build from a dense adjacency, GraphEnergy(adjacency=A, ...), or from the
    edge list itself with GraphEnergy.from_edges, which forms no n x n
    array.  An edge-built energy forms its adjacency, the upper-triangular
    A with A_ij = c_ij, only when it is read (by pair_matrix, for the eigh
    path).

    A squared-loss energy also stores its spectral factors (evals, basis, s).
    The basis is the n x n eigenvector matrix Q from eigh, except on a path
    of at least DCT_MIN_NODES nodes with one coefficient and equal weights:
    there it is the length-n DCT twiddle of _path_eigensystem, so such an
    energy holds O(n) data only.  A shorter path takes eigh.  Measured in
    three sweeps on 2 cores with numpy's default BLAS threads: up to n = 64
    a prox costs 25-52 us by FFT and 7-15 us through the dense basis, and
    eigh builds in at most 0.8 ms, repaid within 41 proxes; at n = 256 it
    takes 7-10 ms, repaid after 437-933 proxes, while a fine grid (256-1024
    nodes) makes 5-6 proxes per energy.
    """

    adjacency: np.ndarray
    loss_kind: str = "squared"
    node_weights: Optional[np.ndarray] = None
    name: str = ""
    _edges: tuple = field(default=(), init=False, repr=False, compare=False)
    _factors: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.adjacency, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ConstructionError("adjacency must be square")
        if np.any(A < 0):
            raise ConstructionError("adjacency entries must be nonnegative")
        A = A.copy()
        A.flags.writeable = False
        object.__setattr__(self, "adjacency", A)
        S = A + A.T
        iu, ju = np.nonzero(np.triu(S, k=1))
        self._build((iu, ju, S[iu, ju]), A.shape[0])

    @classmethod
    def from_edges(cls, n: int, iu, ju, c, node_weights=None, loss_kind: str = "squared",
                   name: str = "") -> "GraphEnergy":
        """F(u) = sum_e c_e L(u_iu[e] - u_ju[e]) on n nodes, built from its edge list.

        Takes integer pairs 0 <= iu < ju < n with coefficients c >= 0, at
        most one edge per pair; edges with c = 0 are dropped and the rest
        sorted by (i, j).  The energy then equals the one built from any
        adjacency with A_ij + A_ji = c_ij: the same edge list, factors and
        values.  Weights are validated as for an adjacency.
        """
        iu, ju = np.asarray(iu).reshape(-1), np.asarray(ju).reshape(-1)
        c = np.asarray(c, dtype=float).reshape(-1)
        if not iu.size == ju.size == c.size:
            raise ConstructionError("iu, ju and c need one entry per edge")
        if c.size and (iu.dtype.kind not in "iu" or ju.dtype.kind not in "iu"):
            raise ConstructionError("edge endpoints must be integers")
        if np.any(iu < 0) or np.any(iu >= ju) or np.any(ju >= n):
            raise ConstructionError(f"edges need 0 <= i < j < n = {n}")
        if np.any(c < 0):
            raise ConstructionError("edge coefficients must be nonnegative")
        order = np.lexsort((ju, iu))
        order = order[c[order] > 0]
        iu, ju, c = iu[order].astype(np.intp), ju[order].astype(np.intp), c[order]
        if np.any((np.diff(iu) == 0) & (np.diff(ju) == 0)):
            raise ConstructionError("a pair i < j may carry one edge only")
        ge = object.__new__(cls)
        object.__setattr__(ge, "loss_kind", loss_kind)
        object.__setattr__(ge, "node_weights", node_weights)
        object.__setattr__(ge, "name", name)
        ge._build((iu, ju, c), n)
        return ge

    def _build(self, edges, n):
        """Shared build step: validate, then store the edges, the factors and the weights."""
        if self.loss_kind not in ("squared", "absolute"):
            raise ConstructionError(f"unknown loss kind {self.loss_kind!r}")
        w = self.node_weights
        w = np.full(n, 1.0 / n) if w is None else np.asarray(w, dtype=float)
        if w.size != n or np.any(w <= 0):
            raise ConstructionError("node_weights must be positive, one per node")
        w = w.copy()
        object.__setattr__(self, "node_weights", w)
        object.__setattr__(self, "_edges", edges)
        factors = ()
        if self.loss_kind == "squared":
            s = 1.0 / np.sqrt(w)
            # (evals, twiddle) for a long enough path, else None
            eig = _path_eigensystem(edges, w) if n >= DCT_MIN_NODES else None
            if eig is None:
                evals, Q = np.linalg.eigh((self.pair_matrix() * s[None, :]) * s[:, None])
                eig = np.maximum(evals, 0.0), Q
            factors = (*eig, s)
            object.__setattr__(self, "_factors", factors)
        for arr in (w, *edges, *factors):
            arr.flags.writeable = False

    def __getattr__(self, name):
        # Reached only when normal lookup fails: the adjacency of an edge-built
        # energy, formed on each read and not kept, read-only like a stored one.
        if name != "adjacency" or not self._edges:
            raise AttributeError(name)
        iu, ju, c = self._edges
        A = np.zeros((self.n_nodes, self.n_nodes))
        A[iu, ju] = c
        A.flags.writeable = False
        return A

    @property
    def n_nodes(self) -> int:
        return self.node_weights.size

    def value(self, u) -> float:
        u = as_point(u, self.n_nodes)
        iu, ju, c = self._edges
        d = u[iu] - u[ju]
        if self.loss_kind == "squared":
            return float((c * d * d).sum())
        return float((c * np.abs(d)).sum())

    def pair_matrix(self) -> np.ndarray:
        """Symmetric quadratic-form matrix K with u' K u = sum_ij A_ij (u_i-u_j)^2."""
        A = self.adjacency
        return np.diag(A.sum(axis=1) + A.sum(axis=0)) - (A + A.T)

    def spectral_factors(self):
        """(evals, Q, s): W^{-1/2} K W^{-1/2} = Q diag(evals) Q' with s = W^{-1/2}.

        Computed once, at construction, for the squared loss: by eigh in
        general, and in closed form for a path of at least DCT_MIN_NODES
        (64) nodes with one coefficient and equal node weights; the class
        docstring gives the measurement behind that size.  Such a path keeps
        no basis: Q, its DCT-II basis, is formed here on each read and not
        kept, as an edge-built energy forms its adjacency.  The arrays are
        read-only; evals and s are shared by every prox of this energy.
        """
        if self._factors is None:
            raise PreconditionError("spectral factors exist for the squared loss only")
        evals, basis, s = self._factors
        if basis.ndim == 1:  # the DCT twiddle of a path
            basis = _dct_basis(self.n_nodes)
            basis.flags.writeable = False
        return evals, basis, s

    def to_functional(self) -> ProperFunctional:
        """View as a convex functional on the weighted node space.

        Requires probability node weights, matching the weighted-space
        conventions of the prox and flow machinery.  The absolute loss gets
        no prox_closed_form, so prox of it raises PreconditionError.
        """
        w = self.node_weights
        if abs(w.sum() - 1.0) > 1e-9:
            raise PreconditionError("to_functional needs probability node weights")
        extra = {}
        if self.loss_kind == "squared":
            iu, ju, c = self._edges
            n = self.n_nodes

            def slope(u):
                u = as_point(u, n)
                flux = c * (u[iu] - u[ju])  # K u = sum over edges of c (u_i - u_j)(e_i - e_j)
                grad_w = 2.0 * (np.bincount(iu, flux, n) - np.bincount(ju, flux, n)) / w
                return float(np.sqrt((w * grad_w * grad_w).sum()))

            extra = dict(prox_closed_form=lambda g, h: graph_prox(self, g, h),
                         prox_iterated=lambda g, k, h: _squared_prox_power(self, g, k, h),
                         slope_norm=slope)
        return ProperFunctional(
            dim=self.n_nodes,
            value=self.value,
            lam=0.0,
            weights=w,
            name=self.name or f"graph-{self.loss_kind}",
            **extra,
        )


def _squared_prox_power(ge: GraphEnergy, gamma: float, k: int, h) -> np.ndarray:
    """k-fold squared-loss prox ((W + 2 gamma K)^{-1} W)^k h in the eigenbasis.

    s Q diag(exp(-k log1p(2 gamma evals))) Q' (h / s): in log space, so the
    power stays exact for tiny steps and huge k.  With an eigh basis, Q' and
    Q are dense products.  On a path, Q' is an orthonormal DCT-II and Q a
    DCT-III, each one FFT (_dct2, _dct3); their normalisations cancel.
    """
    h = as_point(h, ge.n_nodes)
    evals, basis, s = ge._factors
    decay = np.exp(-k * np.log1p(2.0 * gamma * evals))
    if basis.ndim == 1:  # the DCT twiddle of a path
        return s * _dct3(_dct2(h / s, basis) * decay, basis)
    return s * (basis @ ((basis.T @ (h / s)) * decay))


def graph_prox(ge: GraphEnergy, gamma: float, h) -> np.ndarray:
    """Minimizer of F(u) + sum_i w_i (u_i - h_i)^2 / (2 gamma), for the squared loss.

    u = (W + 2 gamma K)^{-1} W h, applied through the spectral factors
    computed when the energy was built.  The absolute loss (graph total
    variation) has no prox here: no solver for it returns a checkable
    certificate, so it raises PreconditionError before any work.
    """
    if ge.loss_kind != "squared":
        raise PreconditionError(
            f"graph_prox of the {ge.loss_kind} loss has no certified solver "
            "(no prox residual or duality-gap certificate)"
        )
    if gamma <= 0:
        raise PreconditionError("gamma must be positive")
    return _squared_prox_power(ge, gamma, 1, h)


def quadratic_map_energy(weights) -> ProperFunctional:
    """Q(u) = (1/2) sum_i w_i u_i^2: the squared weighted L2 norm, exchange-stable."""
    w = np.asarray(weights, dtype=float)
    return replace(quadratic_functional(1.0, w.size, w), name="quadratic-map")


# ---------------------------------------------------------------------------
# exchange-inequality checks


def _value_fn(phi):
    if isinstance(phi, GraphEnergy):
        return phi.value
    if isinstance(phi, ProperFunctional):
        return phi.evaluate
    if callable(phi):
        return phi
    raise PreconditionError(f"cannot evaluate {type(phi).__name__} as a functional")


@dataclass
class ExchangeReport:
    lhs: float
    rhs: float
    slack: float

    def ok(self, tol: float = 1e-9) -> bool:
        return self.slack >= -tol


def p0_convexity_check(phi, u, v, g) -> ExchangeReport:
    """Evaluate the exchange inequality for one (u, v, g) triple.

    slack = F(u) + F(v) - F(u + g(v-u)) - F(v - g(v-u)); nonnegative slack
    is a pass.  g is a P0TestFunction or any scalar callable, called once
    per coordinate of v - u.
    """
    f = _value_fn(phi)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    gv = np.asarray([g(t) for t in (v - u)])
    lhs = f(u + gv) + f(v - gv)
    rhs = f(u) + f(v)
    return ExchangeReport(lhs=float(lhs), rhs=float(rhs), slack=float(rhs - lhs))


@dataclass
class CounterexampleReport:
    lam: float
    lambda_convexity_ok: bool
    n_lambda_samples: int
    exchange: ExchangeReport
    expected_slack: float
    functional: ProperFunctional
    g: P0TestFunction


def counterexample_functional(lam: float) -> ProperFunctional:
    """F(u) = (lam+1)(u_0 + u_1)^2 + (lam/2)(u_0^2 + u_1^2) on two atoms of mass 1/2.

    lam-convex with respect to the weighted norm for every lam >= 0, yet for
    the one-sided g with g(-1) = 0, g(1) = 1/2 the exchange inequality fails
    by exactly 1/2 + lam/4 on the canonical pair u = (1, 0), v = (0, 1).
    """
    if lam < 0:
        raise PreconditionError("lam must be nonnegative")
    w = np.array([0.5, 0.5])

    def val(u0, u1):
        # float_power squares by libm pow, as float ** does (ndarray ** 2 multiplies,
        # which differs in the last bit on about 0.1% of inputs): one point or many
        # rows give the same bits
        sq = np.float_power
        return (lam + 1.0) * sq(u0 + u1, 2.0) + 0.5 * lam * (sq(u0, 2.0) + sq(u1, 2.0))

    return ProperFunctional(
        dim=2,
        value=lambda u: float(val(u[0], u[1])),
        value_rows=lambda U: val(U[:, 0], U[:, 1]),
        lam=lam,
        weights=w,
        domain_hint=(np.array([-3.0, -3.0]), np.array([3.0, 3.0])),
        name=f"exchange-counterexample(lam={lam:g})",
    )


def counterexample_demo(lam: float, rng=None, n_lambda_samples: int = 1000) -> CounterexampleReport:
    """Reproduce the lambda-convex-but-not-exchange-stable example.

    Verifies lambda-convexity by sampling (expected: no violations) and the
    exchange inequality on the canonical triple (expected: slack exactly
    -(1/2 + lam/4)).
    """
    from .convex import check_lambda_convexity, default_triple_sampler

    phi = counterexample_functional(lam)
    rng = np.random.default_rng(0) if rng is None else rng
    sampler = default_triple_sampler(phi, rng)
    conv = check_lambda_convexity(phi, lam, sampler, n_lambda_samples)
    g = p0_family(a=0.1, w=0.1, cap=0.5, one_sided=True)
    exch = p0_convexity_check(phi, np.array([1.0, 0.0]), np.array([0.0, 1.0]), g)
    return CounterexampleReport(
        lam=lam,
        lambda_convexity_ok=conv.ok,
        n_lambda_samples=conv.n_checked,
        exchange=exch,
        expected_slack=-(0.5 + 0.25 * lam),
        functional=phi,
        g=g,
    )


# ---------------------------------------------------------------------------
# L^r contraction of graph flows


@dataclass
class LrContractionReport:
    r: float
    lhs: float
    rhs: float
    allowance: float
    ok: bool


def lr_contraction_checks(ge: GraphEnergy, x, y, t: float, rs,
                          tol: float = 1e-6) -> list:
    """Check that the flow of an exchange-stable graph energy contracts L^r, for each r in rs.

    The flow is completely accretive (Benilan & Crandall 1991), so one pair
    of flows from x and y serves every r; one report per r, in order.  t
    must be finite and >= 0 (S(0) is the identity) and each r in [1, inf];
    otherwise PreconditionError.  Flows are computed in the weighted L^2
    geometry; the solver certificates are converted into an L^r allowance
    through the weighted L^2 -> sup comparison (factor 1/sqrt(min weight)).
    """
    if not (np.isfinite(t) and t >= 0.0):
        raise PreconditionError(f"t must be finite and >= 0, got {t}")
    rs = list(rs)
    for r in rs:
        if not 1.0 <= r <= np.inf:
            raise PreconditionError(f"r must lie in [1, inf], got {r}")
    phi = ge.to_functional()
    x = as_point(x, ge.n_nodes)
    y = as_point(y, ge.n_nodes)
    times = np.array([t]) if t > 0 else np.array([0.0])
    fx = gradient_flow(phi, x, times, tol)
    fy = gradient_flow(phi, y, times, tol)
    ux, uy = fx.trajectory.states[-1], fy.trajectory.states[-1]
    certs = float(fx.certificates[-1].value + fy.certificates[-1].value)
    allowance = certs / np.sqrt(float(np.min(ge.node_weights))) + 1e-12
    reports = []
    for r in rs:
        lhs = weighted_lr_norm(ux - uy, ge.node_weights, r)
        rhs = weighted_lr_norm(x - y, ge.node_weights, r)
        reports.append(LrContractionReport(r=r, lhs=lhs, rhs=rhs, allowance=allowance,
                                           ok=lhs <= rhs + allowance))
    return reports


def lr_contraction_check(ge: GraphEnergy, x, y, t: float, r: float,
                         tol: float = 1e-6) -> LrContractionReport:
    """lr_contraction_checks at the one exponent r."""
    return lr_contraction_checks(ge, x, y, t, (r,), tol)[0]

"""Config-driven experiment runner emitting deterministic CSV tables.

Config files are flat "key = value" lines with '#' comments.  Every run
produces rows (experiment, n, t, metric, lhs, rhs, slack, pass), sorted by
that key, printed with 12 significant digits and newline endings: identical
config plus seed gives byte-identical output.  The exit-code contract is 0
only when every asserted row passes.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import List, Optional

import numpy as np

from .convex import (
    ProperFunctional,
    abs_functional,
    envelope_functional,
    moreau_envelope,
    quadratic_functional,
    weighted_lr_norm,
)
from .energies import (
    GraphEnergy,
    counterexample_demo,
    lr_contraction_checks,
    p0_convexity_check,
    p0_family,
    quadratic_map_energy,
)
from .errors import ConfigError
from .flow import decay_rate_check, energy_bound_check, gradient_flow, metric_derivative
from .semigroup import (
    ResolventOperator,
    crandall_liggett,
    resolvent_from_functional,
    resolvent_iterate,
    semigroup_contraction_check,
)
from .stacking import (
    LIMIT,
    EnergySequence,
    IndexedSequence,
    MatrixHilbertStacking,
    TLpStacking,
    check_stacking_axioms,
    circle_minimizer_fixture,
    equicoercivity_probe,
    escaping_sequence_fixture,
    gamma_liminf_check,
    recovery_sequence,
    stacking_distance,
)
from .transport import (
    EmpiricalMeasure,
    TLpPair,
    TLpPoint,
    interpolation_bound_check,
    load_tlp_point,
    tlp_distance,
    uniform_measure,
)

KINDS = ("bound_suite", "d2c_heat", "resolvent_convergence", "tlp_table", "stacking_audit", "p0_audit")

# CLI subcommand name -> config kind
KIND_BY_COMMAND = {
    "bounds": "bound_suite",
    "d2c": "d2c_heat",
    "resolvents": "resolvent_convergence",
    "tlp": "tlp_table",
    "audit-stacking": "stacking_audit",
    "audit-p0": "p0_audit",
}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    sizes: tuple = (8, 16, 32, 64)
    horizon: float = 0.25
    time_grid: int = 6
    p: float = 2.0
    tolerance: float = 1e-6
    seed: int = 0
    output: Optional[str] = None
    q: float = 4.0
    sampling: str = "equispaced"
    profile: str = "cos"
    point_a: Optional[str] = None
    point_b: Optional[str] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}; expected one of {KINDS}")
        if not self.sizes or list(self.sizes) != sorted(set(self.sizes)) or any(s < 2 for s in self.sizes):
            raise ConfigError("sizes must be one or more strictly increasing integers >= 2")
        if not 0 <= self.horizon < np.inf:
            raise ConfigError("horizon must be finite and nonnegative")
        if self.time_grid < 1:
            raise ConfigError("time_grid must be a positive count")
        if not 1 <= self.p < np.inf:
            raise ConfigError("p must be finite and >= 1")
        if not 0 < self.tolerance < np.inf:
            raise ConfigError("tolerance must be finite and positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if not self.q > 2:  # q = inf is allowed
            raise ConfigError("q must be > 2 (the interpolation rows use p = 1 and r = 2)")
        if self.sampling not in ("equispaced", "uniform"):
            raise ConfigError("sampling must be 'equispaced' or 'uniform'")
        if self.profile not in ("cos", "sin"):
            raise ConfigError("profile must be 'cos' or 'sin'")


# config key -> parser of its value: the type of the field's default, str where it has none
_CONFIG_TYPES = {f.name: str if f.default in (MISSING, None) else type(f.default)
                 for f in fields(ExperimentConfig)}
_CONFIG_TYPES["sizes"] = lambda s: tuple(int(v) for v in s.split(",") if v.strip())


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse the flat key = value grammar; keyword overrides win."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_TYPES[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    values.update({k: v for k, v in overrides.items() if v is not None})
    if "kind" not in values:
        raise ConfigError("config must declare a kind")
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class Row:
    experiment: str
    n: int
    t: float
    metric: str
    lhs: float
    rhs: float
    slack: float
    passed: bool

    def __post_init__(self):
        # a numpy comparison gives numpy.bool_, which json cannot write
        object.__setattr__(self, "passed", bool(self.passed))


def _row_key(r: Row):
    """The order of every table: (experiment, n, t, metric)."""
    return (r.experiment, r.n, r.t, r.metric)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


CSV_HEADER = "experiment,n,t,metric,lhs,rhs,slack,pass"


def rows_to_csv(rows: List[Row]) -> str:
    rows = sorted(rows, key=_row_key)
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.experiment},{r.n},{_fmt(r.t)},{r.metric},{_fmt(r.lhs)},{_fmt(r.rhs)},"
            f"{_fmt(r.slack)},{'true' if r.passed else 'false'}"
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: List[Row]) -> str:
    """The rows as strict JSON: a non-finite lhs, rhs or slack is the CSV's string ("inf", "-inf", "nan")."""
    import json

    def field(r, k):
        x = getattr(r, k)
        return _fmt(x) if k in ("lhs", "rhs", "slack") and not np.isfinite(x) else x

    names = [f.name for f in fields(Row)]
    payload = [{("pass" if k == "passed" else k): field(r, k) for k in names}
               for r in sorted(rows, key=_row_key)]
    return json.dumps(payload, indent=1, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# shared instance builders


def triangle_kernel(s: np.ndarray) -> np.ndarray:
    return np.maximum(1.0 - np.abs(s), 0.0)


KERNEL_SECOND_MOMENT = 1.0 / 6.0  # integral of s^2 * (1 - |s|) over [-1, 1]


def line_measure(n: int, rng=None, sampling: str = "equispaced") -> EmpiricalMeasure:
    """Uniform measure on n points of (0, 1): midpoints, or seeded uniforms."""
    if sampling == "uniform":
        pts = np.sort(rng.uniform(0.0, 1.0, size=n))
    else:
        pts = (np.arange(n) + 0.5) / n
    return uniform_measure(pts[:, None])


def neighborhood_graph_energy(measure: EmpiricalMeasure, eps: float) -> GraphEnergy:
    """Kernel-weighted difference energy, calibrated on the unit ramp.

    Weights are eta(|x_i - x_j| / eps) scaled so that the energy of u(x) = x
    equals the kernel second moment (the continuum value of the limiting
    difference energy on a unit-slope profile).  The calibration agrees with
    the classical 1/(n^2 eps^3) normalization in the bulk and additionally
    absorbs its boundary and quadrature deficits, which otherwise dominate
    at desk-scale sizes.
    """
    x = measure.atoms[:, 0]
    n = x.size
    A = triangle_kernel((x[:, None] - x[None, :]) / eps)
    np.fill_diagonal(A, 0.0)
    second_moment = float(np.sum(A * (x[:, None] - x[None, :]) ** 2))
    if second_moment <= 0:
        raise ConfigError(f"neighborhood graph with eps={eps} has no edges at n={n}")
    A = A * (KERNEL_SECOND_MOMENT / second_moment)
    return GraphEnergy(adjacency=A, loss_kind="squared", node_weights=measure.weights,
                       name=f"neighborhood-{n}")


def bandwidth(n: int) -> float:
    return 2.0 * np.log(n) / n


def fine_grid_dirichlet(measure: EmpiricalMeasure) -> GraphEnergy:
    """Nearest-neighbor difference energy matching the kernel second moment.

    Built from its n - 1 path edges i - i+1 with c = 2 * coef (the
    symmetric adjacency's A_ij + A_ji), with no n x n array.  On
    line_measure(n) with n a power of two the midpoints are dyadic, so
    every spacing, hence every coefficient, is bitwise equal, as are the
    weights; GraphEnergy then takes the closed-form DCT-II factors of the
    path instead of an n-node eigh, and keeps O(n) data: its proxes apply
    the basis by FFT, so neither building nor proxing forms an n x n array.
    """
    x = measure.atoms[:, 0]
    n = x.size
    coef = KERNEL_SECOND_MOMENT / (2.0 * np.diff(x))
    path = np.arange(n - 1)
    return GraphEnergy.from_edges(n, path, path + 1, 2.0 * coef, measure.weights,
                                  loss_kind="squared", name=f"dirichlet-{n}")


@dataclass
class HeatInstance:
    n: int
    measure: EmpiricalMeasure
    functional: ProperFunctional
    initial: np.ndarray
    pair: Optional[TLpPair] = None  # TL^2 pair (measure, the fine measure); None on the fine one


def build_heat_instances(cfg: ExperimentConfig, rng: np.random.Generator):
    """Per-size neighborhood-graph heat setups plus the fine-grid reference."""
    fine_n = 8 * max(cfg.sizes)
    fine_measure = line_measure(fine_n)
    fine_phi = fine_grid_dirichlet(fine_measure).to_functional()
    shape = np.cos if cfg.profile == "cos" else np.sin
    x_inf = shape(np.pi * fine_measure.atoms[:, 0])
    fine = HeatInstance(n=fine_n, measure=fine_measure, functional=fine_phi, initial=x_inf)

    instances = []
    for n in cfg.sizes:
        measure = line_measure(n, rng=rng, sampling=cfg.sampling)
        phi = neighborhood_graph_energy(measure, bandwidth(n)).to_functional()
        pair = TLpPair(measure, fine_measure)
        _, x_n, _ = pair.recovery(x_inf)
        instances.append(HeatInstance(n, measure, phi, x_n, pair))
    return instances, fine


def _time_grid(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.horizon == 0.0:
        return np.array([0.0])
    return np.linspace(0.0, cfg.horizon, cfg.time_grid)


def _matrix_stacking(sizes) -> MatrixHilbertStacking:
    """R^2 under the inner products of A_n = (1 + 1/n) I per size, and of I at LIMIT."""
    mats = {n: (1.0 + 1.0 / n) * np.eye(2) for n in sizes}
    mats[LIMIT] = np.eye(2)
    return MatrixHilbertStacking(mats)


def _falling_rows(experiment: str, metric: str, t: float, ns, values, asserted: bool = True) -> List[Row]:
    """One row per size n: its value must fall below the previous size's.

    The first size has rhs = inf, as every size has when not asserted; such
    a row is evidence and passes.
    """
    rhs = [np.inf, *values[:-1]] if asserted else [np.inf] * len(values)
    return [Row(experiment, n, t, metric, v, r, r - v, v < r) for n, v, r in zip(ns, values, rhs)]


def _counterexample_rows(experiment: str, lams, seed: int, **kwargs) -> List[Row]:
    """counterexample_demo at each lam: its exchange slack against the exact
    value, and its sampled lambda-convexity (lhs 0 when it holds, 1 when not)."""
    rows = []
    for lam in lams:
        rep = counterexample_demo(lam, rng=np.random.default_rng(seed), **kwargs)
        gap = rep.exchange.slack - rep.expected_slack
        ok = rep.lambda_convexity_ok
        rows += [Row(experiment, 2, lam, "counterexample_slack", rep.exchange.slack,
                     rep.expected_slack, gap, abs(gap) <= 1e-9),
                 Row(experiment, 2, lam, "counterexample_lambda_convex", 0.0 if ok else 1.0,
                     0.0, 0.0, ok)]
    return rows


# ---------------------------------------------------------------------------
# bound suite


def _bound_zoo(rng: np.random.Generator):
    """(name, functional, sample points) triples plus the graph energies."""
    zoo = [
        ("quadratic_lam0.5", quadratic_functional(lam=0.5), [np.array([1.0]), np.array([-2.0])]),
        ("quadratic_lam1", quadratic_functional(lam=1.0), [np.array([1.0]), np.array([-2.0])]),
        ("quadratic_lam2", quadratic_functional(lam=2.0), [np.array([1.0]), np.array([0.5])]),
        ("abs", abs_functional(), [np.array([2.0]), np.array([-1.5])]),
    ]
    graphs = [GraphEnergy(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]), loss_kind="squared",
                          name="graph2")]
    zoo.append(("graph2", graphs[0].to_functional(),
                [np.array([1.0, 0.0]), np.array([0.3, -0.7])]))
    for nodes in (5, 16):
        A = rng.random((nodes, nodes))
        A[np.diag_indices(nodes)] = 0.0
        ge = GraphEnergy(adjacency=A, loss_kind="squared", name=f"graph{nodes}")
        graphs.append(ge)
        zoo.append(
            (f"graph{nodes}", ge.to_functional(),
             [rng.normal(size=nodes), rng.normal(size=nodes)])
        )
    return zoo, graphs


def run_bound_suite(cfg: ExperimentConfig) -> List[Row]:
    rng = np.random.default_rng(cfg.seed)
    tol = cfg.tolerance
    zoo, graphs = _bound_zoo(rng)
    times = [0.1, 0.25, 0.5, 1.0]

    def energy_rows(name, phi, flows):
        rows = []
        for flow in flows:
            bounds = energy_bound_check(phi, flow, tol)
            decays = decay_rate_check(phi, flow, np.zeros(phi.dim), tol) if phi.lam >= 0 else ()
            for k, rep in enumerate(bounds):
                rows.append(Row("bounds", phi.dim, rep.t, f"energy_bound:{name}",
                                rep.flow_energy, rep.envelope_value, rep.slack, rep.ok))
                if decays:
                    dec = decays[k]
                    rows.append(Row("bounds", phi.dim, dec.t, f"decay_rate:{name}",
                                    dec.lhs, dec.rhs, dec.rhs - dec.lhs, dec.ok))
        return rows

    def envelope_rows(name, phi, x0s):
        rows = []
        sup = 1.0 / abs(phi.lam) if phi.lam < 0 else np.inf
        for k, x0 in enumerate(x0s):
            g1 = 0.1 + 0.2 * k
            g2 = min(0.7, 0.45 * sup)
            a, b = moreau_envelope(phi, g1, x0), moreau_envelope(phi, g2, x0)
            rows.append(Row("bounds", phi.dim, g1, f"envelope_monotone:{name}",
                            b, a, a - b, b <= a + 1e-9))
            if g1 + g2 < sup:
                nested = moreau_envelope(envelope_functional(phi, g1), g2, x0)
                direct = moreau_envelope(phi, g1 + g2, x0)
                rows.append(Row("bounds", phi.dim, g1 + g2, f"envelope_semigroup:{name}",
                                nested, direct, direct - nested,
                                abs(nested - direct) <= 1e-7))
        return rows

    def contraction_rows(name, phi, flows):
        R = resolvent_from_functional(phi)
        return [Row("bounds", phi.dim, rep.t, f"semigroup_contraction:{name}",
                    rep.lhs, rep.rhs, rep.rhs - rep.lhs, rep.ok)
                for rep in semigroup_contraction_check(R, flows[0], flows[1])
                if rep.t in (0.25, 1.0)]

    def cl_rows():
        phi = quadratic_functional(lam=1.0)
        R = resolvent_from_functional(phi)
        rows = []
        for t in (0.25, 0.5, 1.0):
            for k in range(2, 13):
                n = 2**k
                approx = resolvent_iterate(R, t, n, 1.0)[0]
                err = abs(approx - np.exp(-t))
                # library certificate: exponent clamped at omega <= 0
                bound = 2.0 * t / np.sqrt(n)
                rows.append(Row("bounds", n, t, "cl_certificate:quadratic_lam1",
                                err, bound, bound - err, err <= bound))
        # the post-crossover anchor where the unclamped form also holds
        approx = resolvent_iterate(R, 1.0, 100, 1.0)[0]
        err = abs(approx - np.exp(-1.0))
        bound = 0.2 * np.exp(-4.0)
        rows.append(Row("bounds", 100, 1.0, "cl_sharp_anchor:quadratic_lam1",
                        err, bound, bound - err, err <= bound))
        return rows

    def envelope_limit_rows():
        rows = []
        phi = quadratic_functional(lam=1.0)
        x0 = np.array([1.3])
        target = phi.evaluate(x0)
        prev = None
        for g in (0.5, 0.25, 0.125, 0.0625):
            val = moreau_envelope(phi, g, x0)
            ok = val <= target + 1e-12 and (prev is None or val >= prev - 1e-12)
            rows.append(Row("bounds", 1, g, "envelope_to_value_limit", val, target,
                            target - val, ok))
            prev = val
        return rows

    rows: List[Row] = []
    for name, phi, x0s in zoo:
        # one flow per sample point; the energy, decay and contraction rows all read it
        flows = [gradient_flow(phi, x0, times, tol) for x0 in x0s]
        rows += energy_rows(name, phi, flows)
        rows += envelope_rows(name, phi, x0s)
        rows += contraction_rows(name, phi, flows)
    rows += cl_rows() + _counterexample_rows("bounds", (0.0, 4.0), cfg.seed + 1) + envelope_limit_rows()

    # weighted L^r contraction rows for the graph energies
    rng_lr = np.random.default_rng(cfg.seed + 2)
    for ge in graphs:
        x = rng_lr.normal(size=ge.n_nodes)
        y = rng_lr.normal(size=ge.n_nodes)
        for rep in lr_contraction_checks(ge, x, y, 0.5, (1.0, 2.0, 3.0, 4.0, np.inf), tol):
            rows.append(Row("bounds", ge.n_nodes, 0.5, f"lr_contraction:{ge.name}:r={rep.r:g}",
                            rep.lhs, rep.rhs + rep.allowance, rep.rhs + rep.allowance - rep.lhs,
                            rep.ok))
    return rows


# ---------------------------------------------------------------------------
# discrete-to-continuum heat experiment


def run_d2c_experiment(cfg: ExperimentConfig) -> List[Row]:
    rng = np.random.default_rng(cfg.seed)
    instances, fine = build_heat_instances(cfg, rng)
    times = _time_grid(cfg)
    tolflow = cfg.tolerance

    fine_flow = gradient_flow(fine.functional, fine.initial, times, tolflow)
    fine_speed = None
    if len(times) > 1:
        fine_speed = metric_derivative(fine_flow.trajectory, weights=fine.measure.weights)

    # monotone-decay assertions presume the deterministic equispaced grids;
    # random (seeded-uniform) clouds at desk-scale sizes report evidence only
    assert_decay = cfg.sampling == "equispaced"

    rows: List[Row] = []
    sup_dists, max_gaps = [], []
    for inst in instances:
        flow = gradient_flow(inst.functional, inst.initial, times, tolflow)
        dists = inst.pair.distances(flow.trajectory.states, fine_flow.trajectory.states).tolist()
        gaps = []
        for k, (t, d) in enumerate(zip(times, dists)):
            gap = abs(flow.energies[k] - fine_flow.energies[k])
            gaps.append(gap)
            rows.append(Row("d2c", inst.n, float(t), "tl2_distance", d, np.inf, np.inf, True))
            rows.append(Row("d2c", inst.n, float(t), "energy_gap", gap, np.inf, np.inf, True))
        sup_dists.append(float(np.max(dists)))
        max_gaps.append(float(np.max(gaps)))
        if len(times) > 1:
            speed = metric_derivative(flow.trajectory, weights=inst.measure.weights)
            floor = fine_speed.integral_square * 0.95
            rows.append(Row("d2c", inst.n, cfg.horizon, "speed_integral_lower_bound",
                            speed.integral_square, floor,
                            speed.integral_square - floor,
                            speed.integral_square >= floor))
    ns = [inst.n for inst in instances]
    rows += _falling_rows("d2c", "sup_tl2_distance", cfg.horizon, ns, sup_dists, assert_decay)
    rows += _falling_rows("d2c", "max_energy_gap", cfg.horizon, ns, max_gaps, assert_decay)
    if len(sup_dists) > 1:
        lhs = sup_dists[-1]
        rhs = 0.25 * sup_dists[0]
        # the quarter-decay target presumes a full (>= 8x) equispaced sweep;
        # narrower or randomized sweeps report the ratio without asserting it
        asserted = assert_decay and instances[-1].n >= 8 * instances[0].n
        rows.append(Row("d2c", instances[-1].n, cfg.horizon, "final_vs_first_quarter",
                        lhs, rhs if asserted else np.inf,
                        (rhs - lhs) if asserted else np.inf,
                        (lhs <= rhs) if asserted else True))
    return rows


# ---------------------------------------------------------------------------
# resolvent -> semigroup convergence


def _scaled_identity_resolvent(scale: float, dim: int = 2) -> ResolventOperator:
    """Resolvent of the linear operator x -> scale * x, with exact powers."""

    def resolve(lam, x):
        return x / (1.0 + lam * scale)

    def resolve_iterated(lam, n, x):
        return x * np.exp(-n * np.log1p(lam * scale))

    return ResolventOperator(
        dim=dim,
        omega=-1.0,
        resolve=resolve,
        inf_norm_A=lambda x: scale * float(np.linalg.norm(x)),
        resolve_iterated=resolve_iterated,
        name=f"linear-{scale:g}",
    )


def run_resolvent_convergence(cfg: ExperimentConfig) -> List[Row]:
    rows: List[Row] = []
    times = _time_grid(cfg)
    tol = cfg.tolerance

    # matrix-inner-product family A_n = (1 + 1/n) I
    sizes = cfg.sizes
    stack = _matrix_stacking(sizes)
    z = np.array([1.0, -2.0])
    R_lim = _scaled_identity_resolvent(1.0)
    lam_grid = (0.1, 0.5, 1.0)

    res_dists, semi_dists = [], []
    for n in sizes:
        scale = 1.0 + 1.0 / n
        R_n = _scaled_identity_resolvent(scale)
        worst_res = 0.0
        for lam in lam_grid:
            lhs_pt = R_n.resolve(lam, z)
            rhs_pt = R_lim.resolve(lam, z)
            worst_res = max(worst_res, stacking_distance(stack, n, lhs_pt, LIMIT, rhs_pt))
        res_dists.append(worst_res)
        sup_semi = 0.0
        for t in times:
            un, _ = crandall_liggett(R_n, float(t), z, tol)
            ulim, _ = crandall_liggett(R_lim, float(t), z, tol)
            sup_semi = max(sup_semi, stacking_distance(stack, n, un, LIMIT, ulim))
        semi_dists.append(sup_semi)
    rows += _falling_rows("resolvents", "matrix_resolvent_distance", cfg.horizon, sizes, res_dists)
    rows += _falling_rows("resolvents", "matrix_semigroup_distance", cfg.horizon, sizes, semi_dists)
    C = max(
        (max(sd - 2.0 * tol, 0.0) / rd) if rd > 0 else 0.0
        for sd, rd in zip(semi_dists, res_dists)
    )
    rows.append(Row("resolvents", 0, cfg.horizon, "matrix_fitted_constant", C, np.inf, np.inf, True))
    for n, sd, rd in zip(sizes, semi_dists, res_dists):
        bound = C * rd + 2.0 * tol
        rows.append(Row("resolvents", n, cfg.horizon, "matrix_semigroup_vs_resolvent",
                        sd, bound, bound - sd, sd <= bound + 1e-12))

    # transport-metric heat family: graph proxes converge to the fine-grid prox
    heat_cfg = replace(cfg, sizes=tuple(cfg.sizes[: min(3, len(cfg.sizes))]))
    rng = np.random.default_rng(cfg.seed)
    instances, fine = build_heat_instances(heat_cfg, rng)
    gamma = 0.05
    res_col, semi_col = [], []
    fine_res = fine.functional.prox_closed_form(gamma, fine.initial)
    fine_flow = gradient_flow(fine.functional, fine.initial, times, tol)
    fine_rows = np.vstack([fine_res, fine_flow.trajectory.states])
    for inst in instances:
        rn = inst.functional.prox_closed_form(gamma, inst.initial)
        flow = gradient_flow(inst.functional, inst.initial, times, tol)
        # the prox row first, then the flow's rows at the common times
        graph_rows = np.vstack([rn, flow.trajectory.states])
        d_res, *d_semi = inst.pair.distances(graph_rows, fine_rows).tolist()
        res_col.append(d_res)
        semi_col.append(max([0.0, *d_semi]))
    ns = [inst.n for inst in instances]
    rows += _falling_rows("resolvents", "heat_resolvent_distance", gamma, ns, res_col)
    rows += _falling_rows("resolvents", "heat_semigroup_distance", cfg.horizon, ns, semi_col)
    return rows


# ---------------------------------------------------------------------------
# transport-metric table


def _random_tlp_point(rng: np.random.Generator, n_atoms: int, dim: int, value_scale: float = 1.0) -> TLpPoint:
    atoms = rng.uniform(-1.0, 1.0, size=(n_atoms, dim))
    w = rng.random(n_atoms) + 0.2
    w /= w.sum()
    vals = rng.uniform(-value_scale, value_scale, size=n_atoms)
    return TLpPoint(EmpiricalMeasure(atoms=atoms, weights=w), vals)


def _load_point_record(key: str, path: str) -> TLpPoint:
    """Load a function/measure pair record; a malformed or missing one is a ConfigError."""
    try:
        return load_tlp_point(Path(path).read_text())
    except (ValueError, KeyError, OSError) as exc:  # ConstructionError and bad JSON are ValueErrors
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"{key} = {path}: {detail}") from exc


def run_tlp_table(cfg: ExperimentConfig) -> List[Row]:
    pair = None
    if bool(cfg.point_a) != bool(cfg.point_b):
        given, missing = ("point_a", "point_b") if cfg.point_a else ("point_b", "point_a")
        raise ConfigError(f"{given} is set but {missing} is not; a point pair needs both")
    if cfg.point_a and cfg.point_b:
        pair = (_load_point_record("point_a", cfg.point_a),
                _load_point_record("point_b", cfg.point_b))
    rng = np.random.default_rng(cfg.seed)
    rows: List[Row] = []
    n_triples = 40
    for k in range(n_triples):
        dim = int(rng.integers(1, 3))
        pts = [_random_tlp_point(rng, int(rng.integers(2, 7)), dim) for _ in range(3)]
        for p in (1.0, 2.0, cfg.p):
            dab, _ = tlp_distance(pts[0], pts[1], p)
            dba, _ = tlp_distance(pts[1], pts[0], p)
            rows.append(Row("tlp", k, p, "symmetry_gap", abs(dab - dba), 1e-9,
                            1e-9 - abs(dab - dba), abs(dab - dba) <= 1e-9))
            dbc, _ = tlp_distance(pts[1], pts[2], p)
            dac, _ = tlp_distance(pts[0], pts[2], p)
            rows.append(Row("tlp", k, p, "triangle_inequality", dac, dab + dbc + 1e-9,
                            dab + dbc + 1e-9 - dac, dac <= dab + dbc + 1e-9))
        a = _random_tlp_point(rng, int(rng.integers(2, 7)), dim)
        b = _random_tlp_point(rng, int(rng.integers(2, 7)), dim)
        rep = interpolation_bound_check(a, b, p=1.0, q=cfg.q, r=2.0, C=1.0)
        rows.append(Row("tlp", k, 2.0, "interpolation_bound", rep.lhs, rep.rhs + 1e-9,
                        rep.rhs + 1e-9 - rep.lhs, rep.ok))
    if pair is not None:
        pa, pb = pair
        for p in sorted({1.0, 2.0, cfg.p}):
            d, plan = tlp_distance(pa, pb, p)
            rows.append(Row("tlp", pa.measure.n_atoms, p, "point_pair_distance",
                            d, np.inf, np.inf, True))
            rows.append(Row("tlp", pa.measure.n_atoms, p, "point_pair_stagnation",
                            plan.stagnation_cost, np.inf, np.inf, True))
    return rows


# ---------------------------------------------------------------------------
# stacking audit


def run_stacking_audit(cfg: ExperimentConfig) -> List[Row]:
    """Stacking axioms, Gamma-convergence and equicoercivity evidence.

    Every instance is a fixed grid or fixture, so the rows do not depend on
    cfg.seed.
    """
    rows: List[Row] = []
    sizes = list(cfg.sizes)

    # matrix stacking: fixed vector under A_n = (1 + 1/n) I
    mh = _matrix_stacking(sizes)
    x = np.array([1.0, -2.0])
    seq1 = IndexedSequence(indices=sizes, points=[x] * len(sizes), limit_point=x)
    seq2 = IndexedSequence(indices=sizes, points=[0.5 * x + 1.0 / n for n in sizes],
                           limit_point=0.5 * x)
    rep = check_stacking_axioms(mh, [seq1, seq2], decay_tol=0.5 / sizes[0])
    rows.append(Row("stacking", sizes[-1], 0.0, "matrix_axioms_final_norm_gap",
                    rep.norm_gaps[0][-1], 0.5 / sizes[0],
                    0.5 / sizes[0] - rep.norm_gaps[0][-1], rep.ok))

    # coordinate subspaces: truncations converge to the full vector
    from .stacking import SubspaceStacking

    D = 8
    ss_dims = {n: min(2 + k, D) for k, n in enumerate(sizes)}
    ss_dims[LIMIT] = D
    ss = SubspaceStacking(ambient_dim=D, dims=ss_dims)
    xinf = 1.0 / (np.arange(D) + 1.0) ** 2
    pts = [ss.approximating_point(n, LIMIT, xinf) for n in sizes]
    seq = IndexedSequence(indices=sizes, points=pts, limit_point=xinf)
    repss = check_stacking_axioms(ss, [seq, seq], decay_tol=float(np.linalg.norm(xinf[ss_dims[sizes[-1]]:])) + 1e-9)
    gaps = repss.approx_gaps[0]
    rows.append(Row("stacking", sizes[-1], 0.0, "subspace_axioms_gap_decay",
                    gaps[-1], gaps[0], gaps[0] - gaps[-1], bool(gaps[-1] <= gaps[0])))

    # transport stacking: recovered smooth profile on refining grids
    meas = {n: line_measure(n) for n in sizes}
    fine_n = 4 * max(sizes)
    meas[LIMIT] = line_measure(fine_n)
    tl = TLpStacking(meas, p=cfg.p)
    uinf = np.sin(np.pi * meas[LIMIT].atoms[:, 0])
    pts = [tl.approximating_point(n, LIMIT, uinf) for n in sizes]
    seqree = IndexedSequence(indices=sizes, points=pts, limit_point=uinf)
    reptl = check_stacking_axioms(tl, [seqree, seqree], decay_tol=4.0 / sizes[-1])
    rows.append(Row("stacking", sizes[-1], 0.0, "tlp_axioms_final_approx_gap",
                    reptl.approx_gaps[0][-1], 4.0 / sizes[-1],
                    4.0 / sizes[-1] - reptl.approx_gaps[0][-1], reptl.ok))
    rows.append(Row("stacking", sizes[-1], 0.0, "tlp_zero_convergence",
                    reptl.zero_gaps[-1], reptl.zero_gaps[0],
                    reptl.zero_gaps[0] - reptl.zero_gaps[-1],
                    bool(reptl.zero_gaps[-1] < reptl.zero_gaps[0])))

    # Dirichlet energies over the transport stacking: lower-bound evidence
    energies = {n: neighborhood_graph_energy(meas[n], bandwidth(n)).to_functional() for n in sizes}
    energies[LIMIT] = fine_grid_dirichlet(meas[LIMIT]).to_functional()
    e = EnergySequence(functionals=energies)
    rep_lim = gamma_liminf_check(e, tl, seqree, tol=0.3)
    rows.append(Row("stacking", sizes[-1], 0.0, "gamma_liminf_dirichlet",
                    rep_lim.liminf_estimate, rep_lim.limit_value - 0.3,
                    rep_lim.liminf_estimate - rep_lim.limit_value + 0.3, rep_lim.ok))

    # negative control: energies wrongly divided by the index
    bad = {
        n: (lambda n: (lambda u: energies[n].evaluate(u) / n))(n) for n in sizes
    }
    bad[LIMIT] = energies[LIMIT]
    e_bad = EnergySequence(functionals=bad)
    rep_bad = gamma_liminf_check(e_bad, tl, seqree, tol=1e-3)
    rows.append(Row("stacking", sizes[-1], 0.0, "gamma_liminf_broken_scaling_fails",
                    rep_bad.liminf_estimate, rep_bad.limit_value - 1e-3,
                    rep_bad.limit_value - 1e-3 - rep_bad.liminf_estimate, not rep_bad.ok))

    # recovery sequence over the transport stacking
    rec = recovery_sequence(e, tl, uinf, sizes, tol=0.5)
    rows.append(Row("stacking", sizes[-1], 0.0, "recovery_limsup",
                    rec.limsup_estimate, rec.limit_value + 0.5,
                    rec.limit_value + 0.5 - rec.limsup_estimate, rec.ok))
    rows.append(Row("stacking", sizes[-1], 0.0, "recovery_stagnation_decay",
                    rec.stagnation_costs[-1], rec.stagnation_costs[0],
                    rec.stagnation_costs[0] - rec.stagnation_costs[-1],
                    bool(np.all(np.diff(rec.stagnation_costs) < 0))))

    # equicoercivity probes: bounded flow states are Cauchy in the tail
    flow_pts = []
    for n in sizes:
        phi = energies[n]
        fl = gradient_flow(phi, pts[sizes.index(n)], np.array([0.0, cfg.horizon or 0.25]),
                           cfg.tolerance)
        flow_pts.append((n, fl.trajectory.states[-1]))
    cbound = max(energies[n].evaluate(xn) for n, xn in flow_pts) + 1e-9
    rep_eq = equicoercivity_probe(e, tl, cbound, flow_pts, tol=0.2)
    rows.append(Row("stacking", sizes[-1], 0.0, "equicoercivity_heat_tail_cauchy",
                    rep_eq.max_tail_distance, 0.2, 0.2 - rep_eq.max_tail_distance,
                    rep_eq.tail_cauchy))

    s_esc, e_esc, cands = escaping_sequence_fixture(sizes)
    rep_esc = equicoercivity_probe(e_esc, s_esc, 1.0, cands, tol=0.5)
    rows.append(Row("stacking", sizes[-1], 0.0, "equicoercivity_escaping_fails",
                    rep_esc.max_tail_distance, 0.5, rep_esc.max_tail_distance - 0.5,
                    not rep_esc.tail_cauchy))

    s_c, e_c, mins = circle_minimizer_fixture(sizes)
    rep_c = equicoercivity_probe(e_c, s_c, 0.0, mins, tol=0.05,
                                 limit_candidate=np.array([0.0]))
    rows.append(Row("stacking", sizes[-1], 0.0, "circle_minimizers_do_not_converge",
                    rep_c.limit_distances[-1], 0.05,
                    rep_c.limit_distances[-1] - 0.05, not rep_c.limit_attained))
    return rows


# ---------------------------------------------------------------------------
# exchange-stability audit


def run_p0_audit(cfg: ExperimentConfig) -> List[Row]:
    rng = np.random.default_rng(cfg.seed)
    rows: List[Row] = []
    g_sym = p0_family(a=0.3, w=0.4)
    g_cap = p0_family(a=0.2, w=0.2, cap=0.8)
    tol = cfg.tolerance

    # derivative and value invariants of the family, sampled
    for j, g in enumerate((g_sym, g_cap)):
        xs = np.linspace(-3.0, 3.0, 241)
        dv = np.array([g.derivative(float(t)) for t in xs])
        vals = np.asarray(g(xs))
        ok = (
            float(dv.min()) >= -1e-12
            and float(dv.max()) <= 1.0 + 1e-12
            and bool(np.all(np.abs(vals) <= np.abs(xs) + 1e-12))
            and bool(np.all(vals * xs >= -1e-15))
            and abs(g(g.a / 2.0)) == 0.0
        )
        rows.append(Row("p0", j, 0.0, "g_family_invariants", float(dv.max()), 1.0,
                        1.0 - float(dv.max()), ok))
        # composition contracts every weighted L^p norm
        w = np.full(5, 0.2)
        u = rng.normal(size=5) * 2.0
        for p in (1.0, 2.0, 4.0):
            lhs, rhs = weighted_lr_norm(g(u), w, p), weighted_lr_norm(u, w, p)
            rows.append(Row("p0", j, p, "g_composition_norm_bound", lhs, rhs,
                            rhs - lhs, lhs <= rhs + 1e-12))

    for k in range(12):
        nodes = 5
        A = rng.random((nodes, nodes))
        A[np.diag_indices(nodes)] = 0.0
        ge = GraphEnergy(adjacency=A, loss_kind="squared")
        u = rng.normal(size=nodes) * 2.0
        v = rng.normal(size=nodes) * 2.0
        rep = p0_convexity_check(ge, u, v, g_sym)
        rows.append(Row("p0", k, 0.0, "exchange_graph_squared", rep.lhs, rep.rhs,
                        rep.slack, rep.ok(tol)))
        geabs = GraphEnergy(adjacency=A, loss_kind="absolute")
        repa = p0_convexity_check(geabs, u, v, g_cap)
        rows.append(Row("p0", k, 0.0, "exchange_graph_absolute", repa.lhs, repa.rhs,
                        repa.slack, repa.ok(tol)))
        Q = quadratic_map_energy(np.full(nodes, 1.0 / nodes))
        repq = p0_convexity_check(Q, u, v, g_sym)
        rows.append(Row("p0", k, 0.0, "exchange_quadratic_map", repq.lhs, repq.rhs,
                        repq.slack, repq.ok(tol)))
        # exact scaling / additivity of the exchange slack
        c = 2.5
        scaled = p0_convexity_check(lambda z: c * ge.value(z), u, v, g_sym)
        rows.append(Row("p0", k, 0.0, "exchange_scaling_exact",
                        scaled.slack, c * rep.slack, scaled.slack - c * rep.slack,
                        abs(scaled.slack - c * rep.slack) <= 1e-9))
        summed = p0_convexity_check(lambda z: ge.value(z) + Q.evaluate(z), u, v, g_sym)
        rows.append(Row("p0", k, 0.0, "exchange_sum_exact",
                        summed.slack, rep.slack + repq.slack,
                        summed.slack - rep.slack - repq.slack,
                        abs(summed.slack - rep.slack - repq.slack) <= 1e-9))

    return rows + _counterexample_rows("p0", (0.0, 1.0, 4.0), cfg.seed + 7, n_lambda_samples=400)


RUNNERS = {
    "bound_suite": run_bound_suite,
    "d2c_heat": run_d2c_experiment,
    "resolvent_convergence": run_resolvent_convergence,
    "tlp_table": run_tlp_table,
    "stacking_audit": run_stacking_audit,
    "p0_audit": run_p0_audit,
}


def run_experiment(cfg: ExperimentConfig) -> List[Row]:
    return sorted(RUNNERS[cfg.kind](cfg), key=_row_key)

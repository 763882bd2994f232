"""Gradient flows of lambda- and exchange-stable convex energies, proximal
and Moreau-envelope machinery, exact transport distances between
function/measure pairs, stackings of normed spaces, and convergence
experiment harnesses — all at finite, empirical-measure scale."""

from .convex import (
    ProperFunctional,
    abs_functional,
    check_lambda_convexity,
    constant_functional,
    default_triple_sampler,
    envelope_functional,
    kappa,
    moreau_envelope,
    prox,
    quadratic_functional,
    weighted_lr_norm,
)
from .energies import (
    GraphEnergy,
    P0TestFunction,
    counterexample_demo,
    counterexample_functional,
    graph_prox,
    lr_contraction_check,
    lr_contraction_checks,
    p0_convexity_check,
    p0_family,
    quadratic_map_energy,
)
from .errors import (
    ConfigError,
    ConstructionError,
    IntervalError,
    PreconditionError,
    SolverDiagnosticError,
)
from .experiments import ExperimentConfig, parse_config, run_experiment, rows_to_csv
from .flow import (
    FlowResult,
    decay_rate_check,
    energy_bound_check,
    evi_residual,
    gradient_flow,
    metric_derivative,
)
from .semigroup import (
    Certificate,
    ResolventOperator,
    Trajectory,
    check_accretive,
    crandall_liggett,
    eps_approximate_solution,
    resolvent_from_functional,
    resolvent_iterate,
    semigroup_contraction_check,
)
from .stacking import (
    CircleStacking,
    EnergySequence,
    IndexedSequence,
    MatrixHilbertStacking,
    Stacking,
    SubspaceStacking,
    TLpStacking,
    check_stacking_axioms,
    equicoercivity_probe,
    gamma_liminf_check,
    recovery_sequence,
    stacking_distance,
)
from .transport import (
    EmpiricalMeasure,
    TLpPoint,
    TransportPlan,
    barycentric_map,
    dump_tlp_point,
    interpolation_bound_check,
    load_tlp_point,
    solve_transport,
    tlp_distance,
    tlp_distances,
    uniform_measure,
    wasserstein,
)

__version__ = "0.1.0"

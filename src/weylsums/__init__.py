"""weylsums: a computational laboratory for polynomial exponential sums.

Exact integer/rational cores (polynomial families, exponent calculus,
fixed-point phase arithmetic) drive floating-point kernels (sums,
completion majorants, discrepancy, box censuses) and a deterministic
Monte Carlo experiment harness.
"""

from .errors import BudgetError, ConfigError, Inapplicable, InvariantViolation
from .polyfam import (
    IntPolynomial,
    PolynomialFamily,
    CaseLabel,
    classical_family,
    augmented_family,
    classify_case,
    degree_stats,
    parse_family,
    shift_coefficients,
    wronskian,
)
from .expsum import (
    TorusPoint,
    WeightSeq,
    SumTrace,
    CompletionResult,
    weyl_sum,
    short_interval_sum,
    completion_naive,
    completion_fft,
    reconstruct_prefix,
    sup_linear_coeff,
    vinogradov_count,
    moment_integral,
    exact_moment_grid,
)
from .exponents import (
    Rational,
    ExponentReport,
    s_of,
    gamma_star,
    gamma_general,
    gamma_YL,
    gamma_XL,
    gamma_NL,
    gamma_tilde,
    gamma_tilde_classical,
    disc_gamma,
    disc_gamma_star,
    self_improve_map,
    fixed_point,
    best_bound,
)
from .discrepancy import (
    DiscrepancyResult,
    exact_discrepancy,
    brute_force_discrepancy,
    erdos_turan_bound,
    erdos_turan_bound_poly,
    poly_discrepancy,
    short_interval_discrepancy,
)
from .census import (
    BoxGrid,
    CensusResult,
    ProjectionSpec,
    ProjectionResult,
    grid_sides,
    census,
    counting_bound,
    markov_check,
    project_union,
    per_box_projection_bound,
    projection_reference,
)
from .experiments import (
    ExperimentConfig,
    RunRecord,
    metric_sweep,
    exponent_fit,
    dimension_scan,
    write_csv,
    write_jsonl,
)

__version__ = "0.1.0"

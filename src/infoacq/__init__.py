"""Solvers for information-acquisition problems under f-information costs."""

from .core import (
    ChoiceRule,
    DecisionProblem,
    Kernel,
    Simplex,
    ValidationError,
    apply_garbling,
    detect_symmetries,
    normalize_binary,
    unconditional_distribution,
    validate_problem,
)
from .costs import (
    CostModel,
    Encoder,
    Entropy,
    build_encoder,
    chi2_cost,
    conjugate_gradient,
    conjugate_value,
    csiszar_cost,
    mutual_information_cost,
    neighborhood_hw_cost,
    nested_shannon_cost,
    numeric_conjugate,
    perceptual_csiszar_cost,
    posterior_separable_cost,
    primal_cost,
    scale,
    shannon_kl_entropy,
)
from .divergence import csiszar_spec, f_divergence, f_mean, posterior_separable_spec
from .solver import (
    MultiplierBox,
    Solution,
    SolveOptions,
    SolverError,
    chi2_multiplier,
    duality_certificate,
    multiplier_bounds,
    reduce_solution,
    reduce_support,
    solve,
    solve_best_response,
    solve_mutual_information,
    solve_perceptual,
    statewise_multiplier,
)
from .transform import (
    Transform,
    chi2,
    conjugate_check,
    risk_indices,
    scale_transform,
    shannon,
    shift_transform,
    tabulated,
)

__version__ = "0.1.0"

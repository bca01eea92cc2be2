"""Exact analysis of carries chains and colored riffle shuffles.

The package computes, entirely in rational arithmetic: transition matrices
of carries chains over positive and negative bases, their eigenvector
matrices and stationary laws, closed-form moments, and the digit-word
constructions that identify the carries of an n-fold addition with descent
statistics of composed riffle shuffles on colored permutations.
"""

from .colored import (
    ColoredPermutation,
    compose,
    dash_descent_count,
    descent_count,
    descent_histograms,
    enumerate_group,
    inverse,
    negate_colors,
)
from .moments import (
    MomentReport,
    covariance_conditional,
    has_quadratic_eigenfunction,
    mean_conditional,
    moments_oracle,
    stationary_moments,
    variance_conditional,
)
from .process import (
    CarriesTrace,
    DEFAULT_SEED,
    ProcessParams,
    carry_slope,
    derive_carry_set,
    derive_p,
    digit_expansion,
    digit_value,
    make_process,
    original_step,
    process_from_digit_set,
    realized_carry_set,
    simulate_trace,
    step_carry,
)
from .ratmat import RationalMatrix
from .shuffle import (
    MultiDigitWord,
    ShuffleTrace,
    bar_map,
    bijection_minus,
    bijection_plus,
    f_map,
    gessel_coefficients,
    gsr_to_permutation,
    sample_sequence,
    sharp_compose,
    shuffle_probability,
    star_map,
    trace_from_words,
    unbar_map,
    unstar_map,
)
from .spectral import (
    EigenSystem,
    descent_statistics,
    duality_check_left,
    duality_check_right,
    eigen_system,
    eigen_values,
    left_eigen_matrix,
    left_eigen_oracle,
    right_eigen_matrix,
    right_eigen_oracle,
    stationary_fixed_point,
    stirling_first,
    stirling_frobenius,
    symmetry_check,
    transition_matrix,
    transition_oracle,
)

__version__ = "0.1.0"

"""Exact computational toolkit for exterior forms.

Sparse exterior algebra over the rationals, subspace-adapted decompositions
and main parts, the linear theory of wedge multiplication by a 2-form
(rank, kernel, solving Omega ^ beta = kappa), a symbolic differential-forms
layer for the recurrence d omega = beta ^ omega, and a small text DSL.
"""

from .algebra import (
    ExtForm,
    Vector,
    alpha,
    basis_vector,
    constant_form,
    covector,
    evaluate,
    interior,
    interior_division,
    iterated_interior,
    make_form,
    pairing,
    scalar_of,
    wedge,
    wedge_all,
)
from .dsl import (
    DslError,
    FormFile,
    FormSource,
    load_form_file,
    parse_form,
    parse_form_file,
    print_form,
    print_scalar,
)
from .subspace import (
    AdaptedFrame,
    Decomposition,
    Subspace,
    adapted_cobase,
    annihilator,
    decompose,
    extract_derivative,
    main_part,
    span,
)
from .symbolic import (
    DiffForm,
    ScalarExpr,
    classify_theorem_sets,
    cosymplectic_check,
    eval_at,
    example_catalog,
    exterior_derivative,
    frobenius_residual,
    lee_solve,
    lee_verify,
    rank_at,
    wedge_d,
    wedge_d_all,
)
from .wedge_solver import (
    KernelProfile,
    LambdaMatrix,
    construct_kernel_element,
    kernel2,
    kernel_main_profile,
    lambda_matrix,
    lambda_report,
    rank2,
    rank2_pair_kernel,
    solve_wedge,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

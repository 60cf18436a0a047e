"""Exact central generators for enveloping algebras of nilpotent centralizers.

Given a weakly monotone composition lam of N, the package models the
centralizer of the associated Jordan nilpotent inside gl_N, constructs the
N generators of the center of its enveloping algebra as sums of column
determinants in exact arithmetic, and verifies centrality, invariance of
the top symbols, restriction to the affine slice, algebraic independence,
and the free-algebra symbol-determinant expansions.
"""

from .centralizer import (
    BasisIndex,
    basis_element,
    basis_list,
    nilpotent_matrix,
    structure_constants,
    verify_centralizer,
)
from .composition import (
    Composition,
    SubComposition,
    enumerate_mu,
    invariant_degrees,
    min_length,
    monotone_compositions,
    shift,
)
from .enveloping import (
    PbwElement,
    cdet_mu,
    central_element,
    filtration_degree,
    pbw_algebra,
    product_sum,
    verify_central,
)
from .freealg import (
    FreeElement,
    TSymbol,
    binomial_z_expansion,
    expansion_identity,
    loop_weight,
    t_symbol,
    verify_graded_image,
    z_polynomial,
)
from .invariants import (
    Polynomial,
    elementary_invariant,
    top_symbol,
    verify_invariant,
)
from .linalg import column_determinant
from .slice import (
    PVar,
    jacobian_independence,
    restrict,
    verify_slice_coordinates,
)

__version__ = "0.1.0"

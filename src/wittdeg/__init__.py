"""Exact Witt-group-valued degrees of polynomial endomorphisms of punctured
affine space, with unimodular-row completability obstructions.

The public surface re-exports the main types and operations of each layer:
exact fields and square classes, sparse polynomials, Groebner bases,
symmetric forms and Witt invariants, the degree pipeline, Koszul duality
verification, and unimodular rows.
"""

from .errors import (
    AlgebraError,
    ArityMismatch,
    DegenerateForm,
    EvenModulus,
    EvenN,
    FactorBoundExceeded,
    InternalError,
    JobFileError,
    NonCanonicalForm,
    NotFiniteLength,
    NotOriginPreserving,
    NotSquareSystem,
    ParseError,
    RingMismatch,
    SupportNotOrigin,
    UnknownVariable,
    ZeroScalar,
)
from .fields import (
    FACTOR_BOUND,
    FieldSpec,
    hilbert_symbol,
    legendre,
    relevant_places,
    square_class,
    square_class_mul,
)
from .orders import GREVLEX, LEX, MonomialOrder, by_name as order_by_name
from .poly import (
    Poly,
    Ring,
    det,
    format_monomial,
    format_poly,
    jacobian_det,
    jacobian_matrix,
    parse_poly,
)
from .groebner import (
    GroebnerBasis,
    QuotientAlgebra,
    buchberger,
    contains_one_with_certificate,
    normal_form,
    standard_monomials,
    supported_only_at_origin,
)
from .witt import (
    DiagForm,
    GramForm,
    WittInvariants,
    diag_form,
    diagonalize,
    diagonalize_with_transform,
    invariants,
    is_witt_zero,
    negate,
    orthogonal_sum,
    parse_diag,
    tensor,
    witt_class_display,
    witt_equal,
)
from .degree import (
    DegreeReport,
    Endo,
    bezoutian,
    degree_of,
    diagonal_bezoutian_identity,
    gram_form,
    power_endo,
    univariate_power_form,
    univariate_tensor_oracle,
    validate,
)
from .koszul import (
    DualityData,
    KoszulComplex,
    build_duality,
    build_koszul,
    dual_differential_sign,
    generic_duality,
    negated_level,
    pairing_matrix,
    resolve_dual_signs,
    symmetry_sign,
    verify_chain_map,
    verify_symmetry,
    wedge_basis,
)
from .umrow import (
    AlgebraPresentation,
    UnimodularRow,
    apply_elementary,
    build_section,
    compose_with_endo,
    is_unimodular,
    obstruction_report,
    universal_row,
)

__version__ = "0.1.0"

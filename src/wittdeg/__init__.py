"""Exact Witt-group-valued degrees of polynomial endomorphisms of punctured
affine space, with unimodular-row completability obstructions.

The package namespace re-exports exactly the names that the layers share
with one another (each is imported by some other module of the package):
exact fields and square classes, sparse polynomials, Groebner bases,
symmetric forms and Witt invariants, the degree pipeline, Koszul duality
verification, and unimodular rows.  Everything else is imported from its
defining module, e.g. ``wittdeg.witt.witt_equal``.
"""

from .errors import (
    AlgebraError,
    ArityMismatch,
    DegenerateForm,
    EvenModulus,
    EvenN,
    ExponentBoundExceeded,
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
    FieldSpec,
    square_class,
    square_class_mul,
    square_classes,
)
from .orders import GREVLEX, MonomialOrder
from .poly import (
    Poly,
    Ring,
    det,
    format_monomial,
    jacobian_det,
    parse_poly,
)
from .groebner import (
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
    invariants,
    is_witt_zero,
    parse_diag,
    tensor,
    witt_class_display,
)
from .degree import (
    DegreeReport,
    Endo,
    degree_of,
)
from .koszul import (
    dual_differential_sign,
    generic_duality,
    resolve_dual_signs,
    symmetry_sign,
    verify_chain_map,
    verify_symmetry,
)
from .umrow import (
    AlgebraPresentation,
    UnimodularRow,
    compose_with_endo,
    is_unimodular,
    obstruction_report,
)

__version__ = "0.1.0"

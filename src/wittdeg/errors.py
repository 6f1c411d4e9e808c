"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for every domain error raised by this package."""


class ZeroScalar(AlgebraError):
    """An operation that needs a nonzero scalar received zero."""


class EvenModulus(AlgebraError):
    """Characteristic 2 is outside the supported scope."""


class FactorBoundExceeded(AlgebraError):
    """An integer exceeded the documented trial-division bound."""


class ParseError(AlgebraError):
    """Malformed polynomial or scalar text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariable(ParseError):
    """An identifier that is not a declared ring variable."""

    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable '{name}'", position)
        self.name = name


class RingMismatch(AlgebraError):
    """Operands live in different polynomial rings."""


class NotSquareSystem(AlgebraError):
    """A square system (n polynomials in n variables) was required."""


class NotFiniteLength(AlgebraError):
    """The quotient algebra is not finite-dimensional over the field."""


class SupportNotOrigin(AlgebraError):
    """The zero set of the ideal is not concentrated at the origin."""


class NotOriginPreserving(AlgebraError):
    """An endomorphism image has a nonzero constant term."""


class DegenerateForm(AlgebraError):
    """A symmetric form that must be nondegenerate has determinant zero."""


class NonCanonicalForm(AlgebraError):
    """A diagonal form entry is not a canonical square-class representative."""


class ArityMismatch(AlgebraError):
    """Row length and endomorphism arity disagree."""


class EvenN(AlgebraError):
    """The row-level obstruction is only defined for odd row length."""


class InternalError(AlgebraError):
    """Invariant violated; indicates a bug, not bad input."""


class JobFileError(AlgebraError):
    """Malformed job or row file."""


class ExponentBoundExceeded(AlgebraError):
    """A monomial exceeded the exponent bound of the packed kernel
    (orders.BOUND, and under GREVLEX the total degree as well)."""

"""Exception types shared across the package, and the base of its
read-only records."""


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


class DigitLimitExceeded(AlgebraError):
    """A number to print has more digits than the interpreter converts to
    text (CPython's int-to-str limit, ``sys.get_int_max_str_digits()``)."""


class Frozen:
    """Base of the read-only records, whose fields are their ``__slots__``.

    This is the one constructor of every record: it takes the fields in
    slot order, by position or by name, raises TypeError for a field that
    is missing, given twice or unknown, and sets each once with
    object.__setattr__.  A record that checks its fields, or works them
    out from its arguments, does so in its own __init__, which ends by
    calling this one: `fields.FieldSpec` fixes its non-residue there, and
    `poly.Ring` its packing.  Assigning or deleting an attribute raises
    AttributeError.  A record compares by identity; a value record sets
    ``__eq__ = Frozen._same_fields`` and compares field by field, which
    also makes it unhashable; a key record (`orders.MonomialOrder`,
    `fields.FieldSpec`, `poly.Ring`) defines ``__eq__`` and ``__hash__`` on
    the fields it is built from."""

    __slots__ = ()

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:
            # the fields after the positional ones, in slot order: one that
            # is missing leaves values short, and what is left in named is
            # unknown or given by position too
            values += tuple([named.pop(n) for n in names[len(values) :] if n in named])
            if named:
                cls = type(self).__name__
                raise TypeError(f"{cls}: unknown or repeated fields {[*named]}")
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _same_fields(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

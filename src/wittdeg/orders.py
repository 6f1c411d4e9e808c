"""Monomial orders on exponent tuples.

Variable precedence is declaration order (earlier variables are larger).
A key function maps an exponent tuple to a sort key; larger key = larger
monomial, and the constant monomial is minimal (well-foundedness).
"""

from __future__ import annotations

from operator import neg

from .errors import AlgebraError


class MonomialOrder:
    """A named total, multiplicative, well-founded order on monomials."""

    __slots__ = ("name", "key")

    def __init__(self, name, key):
        self.name = name
        self.key = key

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


def _grevlex_key(exps):
    # total degree, ties broken by the reversed negated tuple: the monomial
    # whose rightmost differing exponent is smaller wins
    return (sum(exps), tuple(map(neg, reversed(exps))))


GREVLEX = MonomialOrder("grevlex", _grevlex_key)
LEX = MonomialOrder("lex", tuple)

_BY_NAME = {"grevlex": GREVLEX, "lex": LEX}


def by_name(name: str) -> MonomialOrder:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise AlgebraError(f"unknown monomial order {name!r}") from None

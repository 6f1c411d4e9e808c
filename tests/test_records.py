"""The read-only records and their one constructor, errors.Frozen.__init__.

Every record of the package is built here from a real run: the degree
pipeline's stages, the field, ring and monomial order they work over and
the packings of that ring and of its doubled ring, and a row.  A record
without its own __init__ takes the fields of its ``__slots__``; one with
its own __init__ (which checks the fields or works them out, then calls
Frozen's) takes the fields of its signature.  The records sampled are
checked against every ``Frozen`` subclass that a module of the package
defines.
"""

import importlib
import inspect
import pkgutil

import pytest

import wittdeg
from wittdeg.degree import Endo, degree_of, dual_ring
from wittdeg.errors import Frozen
from wittdeg.fields import FieldSpec
from wittdeg.groebner import QuotientAlgebra
from wittdeg.orders import GREVLEX, LEX, MonomialOrder, Packing, PairPacking
from wittdeg.poly import Ring
from wittdeg.umrow import UnimodularRow
from wittdeg.witt import DiagForm, GramForm, WittInvariants

from conftest import counterexample_endo, universal_row

VALUES = (GramForm, DiagForm, WittInvariants)
# the records that are dict keys: equal fields make an equal key
KEYS = (MonomialOrder, FieldSpec, Ring)


def _records(field):
    """One record of each class, each made by the package."""
    rep = degree_of(counterexample_endo(field))
    qa = rep.quotient
    row = universal_row(field, 2)
    ring = qa.ring
    return (
        ring.field,
        ring,
        ring.order,
        ring.packing,
        dual_ring(ring).packing,
        counterexample_endo(field),
        qa.gb,
        qa,
        rep.gram,
        rep.diag,
        rep.invariants,
        rep,
        row,
    )


def _fields(cls) -> tuple:
    """The names a record's constructor takes."""
    if cls.__init__ is Frozen.__init__:
        return cls.__slots__
    return tuple(inspect.signature(cls).parameters)


def _required(cls) -> int:
    """How many of those fields have no default (a ring's order has one)."""
    if cls.__init__ is Frozen.__init__:
        return len(cls.__slots__)
    params = inspect.signature(cls).parameters.values()
    return sum(p.default is p.empty for p in params)


def _package_records() -> set:
    """Every Frozen subclass that a module of the package defines, found
    once every module is imported."""
    for module in pkgutil.iter_modules(wittdeg.__path__):
        importlib.import_module(f"wittdeg.{module.name}")
    found, todo = set(), [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("wittdeg."):
                found.add(cls)
    return found


def test_every_record_class_is_sampled(Q):
    classes = {type(r) for r in _records(Q)}
    assert classes == _package_records()
    # only the records that check their fields or work them out keep an
    # __init__
    own = {cls for cls in classes if cls.__init__ is not Frozen.__init__}
    assert own == {
        FieldSpec,
        Ring,
        MonomialOrder,
        Packing,
        PairPacking,
        Endo,
        QuotientAlgebra,
        GramForm,
        DiagForm,
        UnimodularRow,
    }


def test_a_record_builds_the_same_by_position_and_by_name(Q, F7):
    for field in (Q, F7):
        for record in _records(field):
            cls = type(record)
            names = _fields(cls)
            values = [getattr(record, n) for n in names]
            by_position = cls(*values)
            by_name = cls(**dict(zip(names, values)))
            mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
            for built in (by_position, by_name, mixed):
                for slot in cls.__slots__:
                    assert getattr(built, slot) == getattr(record, slot), (cls, slot)


def test_a_missing_extra_repeated_or_unknown_field_is_a_type_error(Q):
    for record in _records(Q):
        cls = type(record)
        names = _fields(cls)
        values = [getattr(record, n) for n in names]
        named = dict(zip(names, values))
        bad = (
            lambda: cls(*values[: _required(cls) - 1]),  # missing, by position
            lambda: cls(**dict(list(named.items())[1:])),  # missing, by name
            lambda: cls(*values, None),  # extra
            lambda: cls(*values, bogus=None),  # unknown
            lambda: cls(*values, **{names[0]: values[0]}),  # given twice
        )
        for build in bad:
            with pytest.raises(TypeError):
                build()


def test_no_field_is_assigned_or_deleted(Q):
    for record in _records(Q):
        for slot in type(record).__slots__:
            value = getattr(record, slot)
            with pytest.raises(AttributeError, match="read-only"):
                setattr(record, slot, None)
            with pytest.raises(AttributeError, match="read-only"):
                delattr(record, slot)
            assert getattr(record, slot) is value
        with pytest.raises(AttributeError):
            record.extra = None


def test_no_container_field_changes_in_place(Q):
    # the fields that hold containers are read-only too: the grading that
    # buchberger read, the quotient's divisibility steps and the Hasse map
    rep = degree_of(counterexample_endo(Q))
    degrees, steps = rep.quotient.gb.degrees, rep.quotient._steps
    assert degrees == (2, 2, 1) and len(steps) == 3
    for fixed in (degrees, steps):
        with pytest.raises(TypeError):
            fixed[0] = fixed[0]
        with pytest.raises(TypeError):
            del fixed[0]
        with pytest.raises(AttributeError):
            fixed.append(fixed[0])
    hasse = rep.invariants.hasse
    assert hasse == {"inf": 1, "2": 1} and dict(hasse) == hasse
    with pytest.raises(TypeError):
        hasse["2"] = -1
    with pytest.raises(TypeError):
        del hasse["2"]
    with pytest.raises(AttributeError):
        hasse.update({"3": -1})
    assert hasse == {"inf": 1, "2": 1}
    # an order's pairing is made with it: LEX pairs into itself, GREVLEX
    # into a block order of two copies of it
    assert LEX.pairs is LEX and GREVLEX.pairs._block is GREVLEX
    assert MonomialOrder("grevlex", True).pairs == GREVLEX.pairs


def test_value_records_compare_by_field_and_the_rest_by_identity(Q, F7):
    records, others = _records(Q), _records(F7)
    for record, other in zip(records, others):
        cls = type(record)
        names = _fields(cls)
        copy = cls(*[getattr(record, n) for n in names])
        if cls in VALUES:
            # equal fields make equal values, another field another value;
            # a value is no key
            assert copy == record and not copy != record
            assert record != other
            assert record.__eq__(object()) is NotImplemented
            with pytest.raises(TypeError):
                hash(record)
        elif cls is QuotientAlgebra:
            # a dict: it compares as its table, which a lookup fills, and
            # is no key
            fresh = cls(*[getattr(record, n) for n in names])
            assert copy == fresh and copy is not fresh
            var = copy.ring.packing.var
            copy[next(s + v for s in copy.keys for v in var if s + v not in copy)]
            assert copy != fresh
            with pytest.raises(TypeError):
                hash(record)
        elif cls in KEYS:
            # a field, a ring or an order is a key: a copy is equal, hashes
            # the same and finds the same entry
            assert copy == record and not copy != record
            assert hash(copy) == hash(record)
            assert {copy: 1}[record] == 1
            if cls is MonomialOrder:
                # the block order an order pairs into is another, which is
                # not paired again
                assert record.pairs != record and record.pairs.pairs is None
            else:
                assert record != other
        else:
            assert record == record and copy != record
            assert hash(record) == hash(record) != hash(copy)
            assert {record: 1, copy: 2}[record] == 1

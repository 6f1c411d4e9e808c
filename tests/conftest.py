import contextlib
import io
import math
import random
import re
from fractions import Fraction
from itertools import islice, product
from operator import neg
from pathlib import Path

import pytest

from wittdeg import degree
from wittdeg.cli import run
from wittdeg.degree import Endo, bezoutian, dual_ring
from wittdeg.errors import (
    AlgebraError,
    DegenerateForm,
    ExponentBoundExceeded,
    FactorBoundExceeded,
    InternalError,
    NotFiniteLength,
    ParseError,
    UnknownVariable,
)
from wittdeg.fields import (
    FACTOR_BOUND,
    FieldSpec,
    MR_PROVEN_BOUND,
    SMALL_PRIME_BOUND,
    _hilbert,
    _valuation,
    is_prime,
)
from wittdeg.groebner import GroebnerBasis
from wittdeg.orders import BOUND, GREVLEX, PairPacking
from wittdeg.poly import (
    Poly,
    Ring,
    _clear,
    _divisor,
    _ratios,
    det,
    parse_poly,
)
from wittdeg.umrow import UnimodularRow
from wittdeg.witt import GramForm


@pytest.fixture
def Q():
    return FieldSpec.rationals()


@pytest.fixture
def F5():
    return FieldSpec.prime_field(5)


@pytest.fixture
def F7():
    return FieldSpec.prime_field(7)


@pytest.fixture(scope="session")
def documented_degree_runs():
    """Every documented job run once under each order by the CLI, for the
    tests that read its output and those that read its quotient:
    {(job, order name): (exit code, stdout, stderr, quotient)}.

    job is the file's path from the repository root, where the runs start,
    and each run is `run(["--json", "degree", job])` for grevlex, the
    default, and `run(["--order", "lex", "--json", "degree", job])` for
    lex.  quotient is the QuotientAlgebra whose Gram form the run built,
    with the normal-form table as that build left it, or None when no Gram
    form was built.  quadrics7 takes about 2 s under each order, so each
    test that reads these runs would otherwise pay for four.
    """
    root = Path(__file__).resolve().parent.parent
    gram_from_quotient = degree._gram_from_quotient
    built = []

    def recorded(endo, qa):
        built.append(qa)
        return gram_from_quotient(endo, qa)

    runs = {}
    jobs = sorted(str(p.relative_to(root)) for p in root.glob("docs/jobs/*.job"))
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(root)
        patch.setattr(degree, "_gram_from_quotient", recorded)
        for job, order in product(jobs, ("grevlex", "lex")):
            argv = ["--json", "degree", job]
            if order == "lex":
                argv[:0] = ["--order", "lex"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            qa = built.pop() if built else None
            runs[job, order] = (code, out.getvalue(), err.getvalue(), qa)
    return runs


def make_ring(field, *names):
    return Ring(tuple(names), field)


def monomial_key(packing, exps):
    """The key of x^exps in packing.  The package never packs a monomial of
    a doubled ring from its exponents, so its key x^a u^b is made here from
    the halves, half.pack(a) << W | half.pack(b) (orders.PairPacking)."""
    if type(packing) is PairPacking:
        half, m = packing.half, packing.half.n
        return half.pack(exps[:m]) << half.width | half.pack(exps[m:])
    return packing.pack(exps)


def poly(ring, terms):
    """The polynomial of ring with terms {exponent tuple: nonzero scalar},
    each tuple packed, so that an exponent past the bound raises
    ExponentBoundExceeded."""
    return Poly(ring, {monomial_key(ring.packing, e): c for e, c in terms.items()})


def monomial(ring, exps, c=1):
    """The polynomial c * x^exps of ring, zero when c is."""
    c = ring.field.canon(c)
    return Poly(ring, {monomial_key(ring.packing, exps): c} if c else {})


def monomial_nf(qa, a):
    """NF(x^a) in the QuotientAlgebra qa, on exponent tuples with canonical
    scalars: the entry of its normal-form table, which fills it if missing,
    its basis positions mapped back to their keys, read as exact values."""
    nums, den = qa[qa.ring.packing.pack(a)]
    nums = {qa.keys[k]: v for k, v in nums.items()}
    return Poly(qa.ring, _ratios(nums, den)).terms


def certificate(gb):
    """The unit certificate of the GroebnerBasis gb as polynomials with
    canonical scalars (its integer cofactors read as exact values), or
    None."""
    if gb.cofactors is None:
        return None
    nums, den = gb.cofactors
    return tuple(Poly(gb.ring, _ratios(c, den)) for c in nums)


def equivalent(inv1, inv2):
    """Equality of two WittInvariants, the Hasse maps compared over the union
    of their places: a place one map lacks counts as +1."""
    if (
        inv1.field != inv2.field
        or inv1.rank != inv2.rank
        or inv1.signature != inv2.signature
        or inv1.signed_discriminant != inv2.signed_discriminant
    ):
        return False
    places = set(inv1.hasse) | set(inv2.hasse)
    return all(inv1.hasse.get(v, 1) == inv2.hasse.get(v, 1) for v in places)


def make_endo(field, names, texts):
    ring = Ring(tuple(names), field)
    return Endo(ring=ring, images=tuple(parse_poly(t, ring) for t in texts))


def in_order(polys, order):
    """The polynomials, which share a ring, in that ring declared in the
    given monomial order."""
    ring = polys[0].ring
    ring = Ring(ring.variables, ring.field, order)
    return [poly(ring, p.terms) for p in polys]


def reordered(endo, order):
    """endo with its ring declared in the given monomial order."""
    images = tuple(in_order(endo.images, order))
    return Endo(ring=images[0].ring, images=images)


def counterexample_endo(field):
    """x1 -> x1^2 - x2^2, x2 -> x1*x2, x3 -> x3."""
    return make_endo(field, ("x1", "x2", "x3"), ("x1^2 - x2^2", "x1*x2", "x3"))


def power_endo(field, ms):
    """The separated-variable endomorphism x_i -> x_i^{m_i}."""
    ring = Ring(tuple(f"x{i + 1}" for i in range(len(ms))), field)
    images = tuple(
        monomial(ring, tuple(m if j == i else 0 for j in range(len(ms))))
        for i, m in enumerate(ms)
    )
    return Endo(ring=ring, images=images)


def universal_row(field, n):
    """The tautological row (x_1,...,x_n) over
    k[x_1..x_n, y_1..y_n]/(sum x_i y_i - 1), through which every unimodular
    row of length n factors."""
    names = tuple(f"x{i + 1}" for i in range(n)) + tuple(
        f"y{i + 1}" for i in range(n)
    )
    ring = Ring(names, field)
    gens = ring.gens()
    xs, ys = gens[:n], gens[n:]
    rel = ring.zero()
    for x, y in zip(xs, ys):
        rel = rel + x * y
    rel = rel - ring.one()
    return UnimodularRow(ring=ring, relations=(rel,), entries=tuple(xs))


def deriv(p, i):
    """The partial derivative of p by the i-th variable of its ring."""
    field = p.ring.field
    terms = {}
    for e, c in p.terms.items():
        c = field.canon(c * e[i])
        if c:
            terms[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c
    return poly(p.ring, terms)


def jacobian_det(images):
    """The determinant of the Jacobian matrix (d images[i] / d x_j); a
    system that is not square raises det's NotSquareSystem."""
    nvars = images[0].ring.nvars
    return det([[deriv(p, j) for j in range(nvars)] for p in images])


def diagonal_bezoutian_identity(endo):
    """The oracle of `bezoutian`: Delta(x, x) == det(Jacobian) exactly."""
    delta = bezoutian(endo)
    xs = list(endo.ring.gens())
    return delta.substitute(xs + xs) == jacobian_det(list(endo.images))


def hilbert(a, b, place):
    """The Hilbert symbol (a, b) at place, for nonzero rationals a, b:
    fields._hilbert on a * den(a)^2 and b * den(b)^2, their integer square
    classes."""
    return _hilbert(a.numerator * a.denominator, b.numerator * b.denominator, place)


def reference_pair_classes(field, pairs):
    """The oracle of `fields._pair_classes`: its trial-division version,
    which divides every number by the primes found so far and then by
    every odd number up to SMALL_PRIME_BOUND, and finds each number's
    primes of odd exponent by dividing it again by every prime found."""
    if not field.is_rationals:
        p, r = field.modulus, field.nonresidue
        h = (p - 1) // 2
        return [1 if pow(n * d, h, p) == 1 else r for n, d in pairs], ()
    shared, part, odd = [], {}, set()  # part: n -> its squarefree part
    for n in sorted({abs(x) for pair in pairs for x in pair}):
        m = n
        for p in shared:  # divide out the primes found so far
            m = _valuation(m, p)[1]
        d, tested = 2, False
        while m > 1:  # trial-divide the part left
            if d * d > m:
                d = m  # what is left is prime
            elif d > SMALL_PRIME_BOUND and not tested:
                # the part left has no prime below the bound: test it once
                tested, r = True, math.isqrt(m)
                if m < MR_PROVEN_BOUND and is_prime(m):
                    d = m
                elif r * r == m and r < MR_PROVEN_BOUND and is_prime(r):
                    d = r
                elif m > FACTOR_BOUND:
                    raise FactorBoundExceeded(
                        f"{m}, the part of {n} left after the primes below"
                        f" {SMALL_PRIME_BOUND}, is no proven prime or prime"
                        f" square and exceeds the trial-division bound"
                        f" {FACTOR_BOUND}"
                    )
            if m % d == 0:
                shared.append(d)
                m = _valuation(m, d)[1]
            d += 1 if d == 2 else 2
        mine = [p for p in shared if _valuation(n, p)[0] % 2]
        odd.update(mine)
        part[n] = math.prod(mine)
    # a/b and ab lie in one class, and a, b are coprime
    return [
        part[n] * part[d] if n > 0 else -part[-n] * part[d] for n, d in pairs
    ], tuple(sorted(odd))


def random_poly(rng, ring, max_degree=3, max_terms=4, coeff_range=3):
    """Random sparse polynomial with small integer coefficients."""
    n = ring.nvars
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(n)] += 1
        c = rng.randint(-coeff_range, coeff_range)
        p = p + monomial(ring, exps, c)
    return p


def random_unit(rng, field, bound=20):
    if field.is_rationals:
        num = rng.choice([k for k in range(-bound, bound + 1) if k])
        den = rng.randint(1, bound)
        return Fraction(num, den)
    return rng.randint(1, field.modulus - 1)


def is_canonical_scalar(field, x) -> bool:
    """The one scalar representation: over Q an int, or a Fraction with
    denominator > 1; over F_p an int in [0, p).  Never a float or a bool."""
    if field.is_rationals:
        return type(x) is int or (type(x) is Fraction and x.denominator > 1)
    return type(x) is int and 0 <= x < field.modulus


def basis_of(polys):
    """A GroebnerBasis whose entries are the given nonzero polynomials, in
    list order: an arbitrary divisor list for normal_form, not necessarily
    a Groebner basis, and with no grading (degrees None)."""
    q = polys[0].ring.field.modulus
    entries = tuple(_divisor(_clear(p.packed)[0], q) for p in polys)
    return GroebnerBasis(
        generators=tuple(polys), entries=entries, cofactors=None, degrees=None
    )


def exact(field, num, den=1):
    """The canonical scalar num / den: how a test reads an int entry of a
    GramForm over its den, or a pivot pair (num, den) of witt._eliminate,
    as the exact value it stands for."""
    return field.canon(Fraction(num, den))


def exact_rows(g):
    """The sparse rows of the GramForm g with each entry read by exact."""
    field, den = g.field, g.den
    return tuple({j: exact(field, v, den) for j, v in row.items()} for row in g.rows)


def dense(g, fmt=lambda x: x):
    """The d x d matrix of the GramForm g, each entry read by exact and
    passed through fmt; zero is formatted once and shared by every empty
    position."""
    d = len(g.rows)
    zero = fmt(g.field.zero)
    out = []
    for row in exact_rows(g):
        line = [zero] * d
        for j, x in row.items():
            line[j] = fmt(x)
        out.append(line)
    return out


def canonical_gram(field, rows):
    """Sparse GramForm of a dense matrix of ints/Fractions: the entries made
    canonical, zeros left out, and the rest written as ints over their
    least common denominator.  A short row is rejected here, since sparse
    rows cannot tell it from trailing zeros; a long row reaches GramForm as
    an out-of-range column."""
    if any(len(row) < len(rows) for row in rows):
        raise DegenerateForm("Gram matrix is not square")
    sparse = [
        {j: c for j, c in enumerate(map(field.canon, row)) if c} for row in rows
    ]
    den = math.lcm(1, *(Fraction(c).denominator for row in sparse for c in row.values()))
    sparse = tuple({j: int(c * den) for j, c in row.items()} for row in sparse)
    return GramForm(field=field, rows=sparse, den=den)


# -- references for removed or rewritten kernels --------------------------------


def _reference_add(p, other):
    """The former Poly.__add__ loop, kept verbatim."""
    field = p.ring.field
    terms = dict(p.terms)
    for e, c in other.terms.items():
        s = field.add(terms.get(e, field.zero), c)
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return poly(p.ring, terms)


def _reference_mul(p, other):
    """The former Poly.__mul__ loop, kept verbatim but for the product of
    two scalars, which canon makes canonical."""
    field = p.ring.field
    terms: dict = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in other.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = field.add(terms.get(e, field.zero), field.canon(c1 * c2))
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return poly(p.ring, terms)


def _grevlex_key(exps):
    # total degree, ties broken by the reversed negated tuple: the monomial
    # whose rightmost differing exponent is smaller wins
    return (sum(exps), tuple(map(neg, reversed(exps))))


def order_key(order):
    """The sort key of an exponent tuple under order: larger key = larger
    monomial.  It works on tuples, independent of the packed comparison
    it checks.  Under the block order GREVLEX.pairs of a dual ring the
    first half of the tuple is compared first, each half by GREVLEX."""
    if order is GREVLEX.pairs:
        return lambda e: (
            _grevlex_key(e[: len(e) // 2]),
            _grevlex_key(e[len(e) // 2 :]),
        )
    return _grevlex_key if order is GREVLEX else tuple


def leading(p):
    """(exponents, coefficient) of the largest term of p in its ring's order,
    found on exponent tuples with the order's key: independent of the
    packed comparison."""
    terms = p.terms
    e = max(terms, key=order_key(p.ring.order))
    return e, terms[e]


def _reference_exact_div(p, divisor):
    """The former Poly.exact_div loop, kept verbatim but for the quotient
    of two scalars, which canon makes canonical."""
    field = p.ring.field
    de, dc = leading(divisor)
    quot = p.ring.zero()
    rem = p
    while not rem.is_zero:
        re_, rc = leading(rem)
        qe = tuple(a - b for a, b in zip(re_, de))
        if any(x < 0 for x in qe):
            raise InternalError("inexact polynomial division")
        q = monomial(p.ring, qe, field.canon(Fraction(rc) / dc))
        quot = _reference_add(quot, q)
        rem = _reference_add(rem, -_reference_mul(q, divisor))
    return quot


def reference_divide(p, divisors):
    """The former public multivariate division, kept verbatim but for the
    inlined divisibility test and the quotient of two scalars, which canon
    makes canonical.  It runs on Poly arithmetic alone, so it shares no code
    with the division kernel `poly._reduce`."""
    ring = p.ring
    field = ring.field
    leads = [leading(d) for d in divisors]
    quots = [ring.zero() for _ in divisors]
    rem = ring.zero()
    cur = p
    while not cur.is_zero:
        ce, cc = leading(cur)
        for k, (de, dc) in enumerate(leads):
            if all(a <= b for a, b in zip(de, ce)):
                mono = monomial(
                    ring,
                    tuple(a - b for a, b in zip(ce, de)),
                    field.canon(Fraction(cc) / dc),
                )
                quots[k] = quots[k] + mono
                cur = cur - mono * divisors[k]
                break
        else:
            t = monomial(ring, ce, cc)
            rem = rem + t
            cur = cur - t
    return quots, rem


def divided_differences(endo):
    """The Bezoutian's divided-difference matrix in the doubled ring, built
    the former way: two substitutions and an exact division per entry."""
    n = endo.n
    ring2 = dual_ring(endo.ring)
    gens = ring2.gens()
    xs, us = list(gens[:n]), list(gens[n:])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            upper = endo.images[i].substitute(us[:j] + xs[j:])
            lower = endo.images[i].substitute(us[: j + 1] + xs[j + 1 :])
            row.append(_reference_exact_div(upper - lower, xs[j] - us[j]))
        rows.append(row)
    return rows


def box_standard_keys(gb):
    """The former standard_monomials, kept verbatim but for its return
    value: every key of the box under the pure-power leads, each tested
    against every lead.  The ascending standard keys, or the error the
    box construction raises."""
    ring = gb.ring
    n = ring.nvars
    packing = ring.packing
    leads = [d[0] for d in gb.entries]
    if packing.one in leads:
        return ()
    box = [None] * n
    for e in map(packing.unpack, leads):
        nz = [i for i, x in enumerate(e) if x]
        if len(nz) == 1:
            i = nz[0]
            if box[i] is None or e[i] < box[i]:
                box[i] = e[i]
    missing = [ring.variables[i] for i in range(n) if box[i] is None]
    if missing:
        raise NotFiniteLength(
            "no pure power of "
            + ", ".join(missing)
            + " among the leading monomials"
        )
    packing.pack([b - 1 for b in box])
    box_keys = [packing.one]
    for var, b in zip(packing.var, box):
        box_keys = [key + k * var for key in box_keys for k in range(b)]
    pad, guard, target = packing.pad, packing.guard, packing.target
    return tuple(
        sorted(
            key
            for key in box_keys
            if not any((key + pad - d) & guard == target for d in leads)
        )
    )


def format_poly_reference(p):
    """The former format_poly, kept verbatim as the reference for the
    printer on GREVLEX key fields: each printed key unpacked to its
    exponent tuple, and in a ring of another order each key unpacked for
    the GREVLEX sort key too."""
    if p.is_zero:
        return "0"
    ring = p.ring
    names = ring.variables
    packing = ring.packing
    unpack = packing.unpack
    key = None if packing.order is GREVLEX else lambda k: _grevlex_key(unpack(k))
    packed = p.packed
    pieces = []
    for k in sorted(packed, key=key, reverse=True):
        # the sign is read off the text of the scalar, so no Fraction is
        # compared or negated (over F_p a scalar lies in [0, p): never "-")
        c = str(packed[k])
        if c[0] == "-":
            pieces.append(" - ")
            c = c[1:]
        else:
            pieces.append(" + ")
        mono = "*".join(
            [v if e == 1 else f"{v}^{e}" for v, e in zip(names, unpack(k)) if e]
        )
        if not mono:
            pieces.append(c)
        elif c == "1":
            pieces.append(mono)
        else:
            pieces.append(f"{c}*{mono}")
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


_TOKEN_RE = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^])|(\S)")

# the token after the last: every group empty
_END = ("", "", "", "")


def _position(text: str, i: int) -> int:
    """Where the i-th token of text starts; len(text) for the end."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    return len(text) if m is None else m.start()


def _int(digits: str, text: str, i: int) -> int:
    """The int of the digits of token i of text."""
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ParseError(
            f"number of {len(digits)} digits", _position(text, i)
        ) from None


def _expected(what: str, text: str, tokens: list, i: int) -> ParseError:
    """The error for token i of text where the grammar wants what."""
    got = "".join(tokens[i])
    return ParseError(f"expected {what}, got {got!r}", _position(text, i))


def reference_parse_poly(text: str, ring: Ring) -> Poly:
    """The former parse_poly, kept verbatim as the reference for the parser
    on packed keys: each term's exponents built as a list and packed at the
    term's end, where pack checks the GREVLEX total degree."""
    field = ring.field
    pack = ring.packing.pack
    index = {v: i for i, v in enumerate(ring.variables)}
    nvars = ring.nvars
    tokens = _TOKEN_RE.findall(text)
    end = len(tokens)
    tokens.append(_END)
    terms: dict = {}
    try:
        negate = tokens[0][2] == "-"
        i = 1 if negate else 0
        while True:
            exps = [0] * nvars
            num, name, _, _ = tokens[i]
            if num:  # coeff ("*" factor)*
                c = _int(num, text, i)
                i += 1
                if tokens[i][2] == "/":
                    i += 1
                    den = tokens[i][0]
                    if not den:
                        raise _expected("denominator", text, tokens, i)
                    den = _int(den, text, i)
                    if not den:
                        raise ParseError("zero denominator", _position(text, i))
                    c = field.canon(Fraction(c, den))
                    i += 1
                else:
                    c = field.from_int(c)
                more = tokens[i][2] == "*"
                i += more
            elif name:  # factor ("*" factor)*
                c = field.one
                more = True
            else:
                raise _expected("coefficient or variable", text, tokens, i)
            while more:  # factor := var ("^" nat)?
                name = tokens[i][1]
                if not name:
                    raise _expected("variable", text, tokens, i)
                k = index.get(name)
                if k is None:
                    raise UnknownVariable(name, _position(text, i))
                at = i
                if tokens[i + 1][2] == "^":
                    i += 2
                    exp = tokens[i][0]
                    if not exp:
                        raise _expected("exponent", text, tokens, i)
                    exp = exps[k] + _int(exp, text, i)
                else:
                    exp = exps[k] + 1
                exps[k] = exp
                if exp > BOUND:
                    raise ExponentBoundExceeded(
                        f"exponent {exp} of {name} is above {BOUND}"
                        f" (at position {_position(text, at)})"
                    )
                i += 1
                more = tokens[i][2] == "*"
                i += more
            key = pack(exps)
            if negate:
                c = field.neg(c)
            old = terms.get(key)
            c = c if old is None else field.add(old, c)
            if c:
                terms[key] = c
            elif old is not None:
                del terms[key]
            op = tokens[i][2]
            if op == "+" or op == "-":
                negate = op == "-"
                i += 1
            elif i == end:
                return Poly(ring, terms)
            else:
                raise _expected("'+' or '-'", text, tokens, i)
    except AlgebraError:
        for m in _TOKEN_RE.finditer(text):
            if m.group(4):
                raise ParseError(
                    f"unexpected character {m.group(4)!r}", m.start()
                ) from None
        raise

"""Seeded job streams for the three benchmark workloads.

A stream is an endless, deterministic sequence of jobs: the same workload
and seed always give the same jobs in the same order.  Jobs are handed to
the program as job and row files only; the extra fields of :class:`Job`
(family, parameters, oracle data) stay on the benchmark side.

Every stream cycles through a fixed list of slots, so any prefix a timed
run gets through holds each family in the same proportion.

Polynomials are built here with a small integer-coefficient helper rather
than with ``wittdeg.poly``, so that generating inputs shares no code with
the program under test.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

WORKLOADS = ("structured-q", "generic", "rows")
PRIME = 10007
FP = f"F{PRIME}"

# The relation of S_3 = k[x, y] / (x1*y1 + x2*y2 + x3*y3 - 1).
ROW_VARS = ("x1", "x2", "x3", "y1", "y2", "y3")
ROW_RELATION = "x1*y1 + x2*y2 + x3*y3 - 1"


@dataclass
class Job:
    """One program invocation plus what the oracles need to check it.

    ``argv`` names files by key; the runner writes ``files`` into a job
    directory and substitutes the paths.  ``twin`` is the index of the
    other-field run of the same map, when the workload has one.
    """

    index: int
    family: str
    field: str
    argv: tuple[str, ...]
    files: dict[str, str]
    params: dict = field(default_factory=dict)
    twin: int | None = None


# -- integer polynomials as {exponent tuple: int} ------------------------------


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _scale(a: dict, c: int) -> dict:
    return {e: c * v for e, v in a.items() if c * v}


def _mono(n: int, exps: dict[int, int], c: int = 1) -> dict:
    e = [0] * n
    for i, k in exps.items():
        e[i] += k
    return {tuple(e): c}


def _fmt(p: dict, names) -> str:
    """Text the program's parser reads, e.g. ``3*x1^2*x2 - x1 + 2``."""
    if not p:
        return "0"
    out = []
    for e, c in sorted(p.items(), key=lambda t: (-sum(t[0]), [-x for x in t[0]])):
        mono = "*".join(
            v if k == 1 else f"{v}^{k}" for v, k in zip(names, e) if k
        )
        a = abs(c)
        body = mono if a == 1 and mono else f"{a}*{mono}" if mono else str(a)
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append(("- " if c < 0 else "+ ") + body)
    return " ".join(out)


def _job_text(field_name: str, names, maps) -> str:
    lines = [f"field = {field_name}", f"vars = {', '.join(names)}"]
    lines += [f"map {v} = {m}" for v, m in zip(names, maps)]
    return "\n".join(lines) + "\n"


def _degree_job(index, family, field_name, names, polys, params) -> Job:
    text = _job_text(field_name, names, [_fmt(p, names) for p in polys])
    return Job(
        index=index,
        family=family,
        field=field_name,
        argv=("--json", "degree", "{job}"),
        files={"job": text},
        params=params,
    )


def _unit(rng: random.Random, bound: int = 3) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _sparse(support: random.Random, coef: random.Random, n, maxdeg, nterms) -> dict:
    """Random terms: monomials drawn from ``support``, coefficients from
    ``coef``, so a fixed support generator gives a fixed shape."""
    p: dict = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(support.randint(0, maxdeg)):
            e[support.randrange(n)] += 1
        p = _add(p, {tuple(e): _unit(coef)})
    return p


def _triangular_polys(support, coef, ms, lead, maxdeg, nterms):
    """x_i^{m_i} + sum_{j<i} x_j * g_ij: the origin is the only zero."""
    n = len(ms)
    polys = []
    for i in range(n):
        p = _mono(n, {i: ms[i]}, lead)
        for j in range(i):
            tail = _sparse(support, coef, n, maxdeg, nterms)
            p = _add(p, _mul(_mono(n, {j: 1}), tail))
        polys.append(p)
    return polys


# -- structured-q --------------------------------------------------------------
#
# Every slot has a fixed size and shape; the seed sets signs, small
# coefficients and the order of exponents, which leave the size and most of
# the cost alone.


def _staircase(rng, index, k):
    """(a*x*y, y*z + b*x^k, x*z + c*y^k + d*z^k) over Q, signs seeded."""
    a, b, c, d = (rng.choice((1, -1)) for _ in range(4))
    polys = [
        _mono(3, {0: 1, 1: 1}, a),
        _add(_mono(3, {1: 1, 2: 1}), _mono(3, {0: k}, b)),
        _add(
            _mono(3, {0: 1, 2: 1}),
            _add(_mono(3, {1: k}, c), _mono(3, {2: k}, d)),
        ),
    ]
    return _degree_job(
        index, "staircase", "Q", ("x", "y", "z"), polys, {"k": k}
    )


def _power(rng, index, choices):
    """Separated powers x_i -> x_i^{m_i}; the tensor oracle knows the class."""
    ms = list(rng.choice(choices))
    rng.shuffle(ms)
    n = len(ms)
    names = tuple(f"x{i + 1}" for i in range(n))
    polys = [_mono(n, {i: m}) for i, m in enumerate(ms)]
    return _degree_job(index, "power", "Q", names, polys, {"ms": ms})


def _complex_power(m: int, a: int, b: int):
    """Real and imaginary parts of (a + i*b) * (x + i*y)^m in (x, y, t)."""
    re: dict = {}
    im: dict = {}
    for s in range(m + 1):
        # the term C(m, s) * x^(m-s) * (i*y)^s, where i^s cycles 1, i, -1, -i
        mono = _mono(3, {0: m - s, 1: s}, comb(m, s))
        unit = [(1, 0), (0, 1), (-1, 0), (0, -1)][s % 4]
        re = _add(re, _scale(mono, unit[0]))
        im = _add(im, _scale(mono, unit[1]))
    return _add(_scale(re, a), _scale(im, -b)), _add(_scale(im, a), _scale(re, b))


def _realified(rng, index, m, j):
    """(Re c*z^m, Im c*z^m, t^j) with z = x + i*y and c one of ±1, ±i,
    ±1±i: length m^2 * j and signature m * (j odd), by the
    Eisenbud-Levine-Khimshiashvili theorem."""
    a, b = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
    a, b = rng.choice((1, -1)) * a, rng.choice((1, -1)) * b
    re, im = _complex_power(m, a, b)
    polys = [re, im, _mono(3, {2: j})]
    return _degree_job(
        index, "realified", "Q", ("x", "y", "t"), polys, {"m": m, "j": j}
    )


def _triangular(rng, index, n, m):
    """Triangular systems with a fixed tail support per (n, m) and seeded
    coefficients.  The tails have lower degree than x_i^m, so the length
    is m^n and the real local degree, hence the signature, is that of the
    pure power map: 1 for odd m, 0 for even m."""
    names = tuple(f"x{i + 1}" for i in range(n))
    support = random.Random(f"triangular-shape:{n}:{m}")
    polys = _triangular_polys(support, rng, [m] * n, 1, m - 2, 3)
    return _degree_job(
        index, "triangular", "Q", names, polys, {"n": n, "m": m}
    )


_STRUCTURED_SLOTS = (
    lambda rng, i: _staircase(rng, i, 8),
    lambda rng, i: _power(rng, i, [(4, 4, 4), (3, 4, 5)]),
    lambda rng, i: _realified(rng, i, 5, 2),
    lambda rng, i: _triangular(rng, i, 3, 3),
    lambda rng, i: _staircase(rng, i, 9),
    lambda rng, i: _power(rng, i, [(9, 9), (8, 10)]),
    lambda rng, i: _realified(rng, i, 4, 3),
    lambda rng, i: _triangular(rng, i, 2, 8),
)


def _structured_q(seed):
    rng = random.Random(f"structured-q:{seed}")
    for index in itertools.count():
        yield _STRUCTURED_SLOTS[index % len(_STRUCTURED_SLOTS)](rng, index)


# -- generic -------------------------------------------------------------------

# (family, variables, degree): length is degree^variables by Bezout.  Every
# F_p twin succeeds and the cheap families rank first, so the median job is
# one of the costliest F_p jobs; four quadrics come three times, so it falls
# inside their cluster of F_p times however many Q twins succeed.
_GENERIC_SLOTS = (
    ("quadrics3", 3, 2),
    ("quadrics4", 4, 2),
    ("cubics3", 3, 3),
    ("quartics2", 2, 4),
    ("quadrics4", 4, 2),
    ("sextics2", 2, 6),
    ("quadrics4", 4, 2),
)


def _det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for r in range(k + 1, n):
            f = m[r][k] / m[k][k]
            for c in range(k, n):
                m[r][c] -= f * m[k][c]
    return det


def _binary_resultant(f: dict, g: dict, d: int) -> int:
    """Sylvester resultant of two binary forms of degree d: zero iff they
    share a projective root, i.e. the map is not finite over that field."""
    a = [f.get((d - i, i), 0) for i in range(d + 1)]
    b = [g.get((d - i, i), 0) for i in range(d + 1)]
    rows = [[0] * i + a + [0] * (d - 1 - i) for i in range(d)]
    rows += [[0] * i + b + [0] * (d - 1 - i) for i in range(d)]
    return int(_det(rows))


def _common_coordinate_zero(polys: list, n: int, d: int) -> bool:
    """Whether no form has an x_i^d term for some i, so that all of them
    vanish at the i-th coordinate point.  With coefficients in [-5, 5]
    this happens to one map of three ternary cubics in about 440."""
    return any(
        all(tuple(d * (k == i) for k in range(n)) not in p for p in polys)
        for i in range(n)
    )


def _generic(seed):
    """Each dense map runs over F_p and then, as its twin, over Q.

    Maps with a common zero over Q or mod p are redrawn: they are not
    finite, so they are not generic.  Binary maps are screened by their
    resultant.  In more variables only common zeros at a coordinate point
    are screened; other common zeros have negligible probability."""
    rng = random.Random(f"generic:{seed}")
    index = 0
    for family, n, d in itertools.cycle(_GENERIC_SLOTS):
        names = tuple(f"x{i + 1}" for i in range(n))
        monos = [e for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
        while True:
            polys = []
            for _ in range(n):
                p = {e: rng.randint(-5, 5) for e in monos}
                polys.append({e: c for e, c in p.items() if c})
            if n == 2:
                if _binary_resultant(*polys, d) % PRIME:
                    break
            elif not _common_coordinate_zero(polys, n, d):
                break
        params = {"n": n, "d": d}
        for k, fld in enumerate((FP, "Q")):
            job = _degree_job(index + k, family, fld, names, polys, params)
            job.twin = index + 1 - k
            yield job
        index += 2


# -- rows ----------------------------------------------------------------------

# (exponents of the triangular endomorphism, shape number): each slot has a
# fixed monomial support, drawn once from the shape number, and runs over Q
# and over F_p with seeded coefficients.  The exponent patterns with x1^2 in
# the first and x2^2 in the second entry are left out: their Buchberger runs
# range from 0.1 s to well over a minute.  Shape 1 comes twice, so the
# median job falls inside the cluster of its Q times instead of at the gap
# between two clusters.
_ROW_SLOTS = (
    ((1, 1, 2), 0),
    ((1, 2, 2), 1),
    ((1, 2, 2), 1),
    ((2, 1, 2), 2),
    ((1, 2, 2), 3),
    ((2, 1, 2), 4),
    ((1, 2, 1), 5),
)


def _rows(seed):
    """The tautological row over S_3 composed with distinct endomorphisms."""
    rng = random.Random(f"rows:{seed}")
    seen: set = set()
    names = ROW_VARS[:3]
    index = 0
    for (ms, shape), fld in itertools.cycle(
        [(slot, fld) for slot in _ROW_SLOTS for fld in ("Q", FP)]
    ):
        while True:
            support = random.Random(f"rows-shape:{shape}")
            lead = rng.choice((1, -1, 2, -2, 3))
            polys = _triangular_polys(support, rng, ms, lead, 1, 2)
            images = tuple(_fmt(p, names) for p in polys)
            if (fld, images) not in seen:
                seen.add((fld, images))
                break
        row = (
            f"field = {fld}\nvars = {', '.join(ROW_VARS)}\n"
            f"rel = {ROW_RELATION}\nrow = {', '.join(names)}\n"
        )
        yield Job(
            index=index,
            family="row",
            field=fld,
            argv=("--json", "row", "compose", "{row}", "{endo}"),
            files={"row": row, "endo": _job_text(fld, names, images)},
            params={"images": list(images)},
        )
        index += 1


# Jobs per pass through a workload's slots.
CYCLE = {
    "structured-q": len(_STRUCTURED_SLOTS),
    "generic": 2 * len(_GENERIC_SLOTS),
    "rows": 2 * len(_ROW_SLOTS),
}


def jobs(workload: str, seed: int):
    """The endless job stream of a workload."""
    if workload == "structured-q":
        return _structured_q(seed)
    if workload == "generic":
        return _generic(seed)
    if workload == "rows":
        return _rows(seed)
    raise ValueError(f"unknown workload {workload!r}")

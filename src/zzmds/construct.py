"""Build complete code descriptions: vector family, duplication, field, and
the zigzag coefficient table for each supported scheme.

Schemes (the tags are also the config-file tokens):

  cons3    r=2, no duplication, GF(3): the cons4 table with s=1, whose
           coefficients 1 and 2 make GF(3) the smallest field that keeps
           two simultaneous column erasures solvable.
  cons4    r=2 with s-fold duplication over GF(q).  A prefix-parity test of
           the row index gives copy t the value a^t / a^(t+1) (odd q,
           s <= q-1) or a^(t+1) / a^(-t-1) (even q, s <= q-2), a the
           primitive element.
  weightw  r=2, block-weight-w families.  The coefficient exponent packs w
           prefix parities of the row into an integer, over GF(2^w+1) when
           that is a prime power, else GF(2^(w+1)).
  r3       r=3, standard basis + zero vector over a prime field q >= 2(m+1).
           Parity s>=1 coefficients are products of per-step factors a^l
           taken along the shift orbit of the column's unit vector.
  table    caller-supplied coefficient table.

The first parity (index 0) always uses unit coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

from .gf import Field, field_create, gf9, is_prime
from .perms import (VectorFamily, make_family, standard_basis_family, to_digits,
                    unit_vector, weight_w_family)

SCHEMES = ("cons3", "cons4", "weightw", "r3", "table")

# Brute-force MDS verification solves dense-ish systems per erasure pattern;
# keep instances at desk scale.
MAX_VERIFY_CELLS = 4096

# Building a code takes time and memory in proportion to its p*k cells per
# stripe.  Twice the largest code in the tests and README (cons4 m=10 s=6,
# 67,584 cells); cons3 m=24 would hold 419 million.
MAX_CODE_CELLS = 2 ** 17


class CodeSpecError(ValueError):
    """Incompatible (scheme, family, field, duplication) combination."""


@dataclass(frozen=True)
class CodeSpec:
    """One fully-determined code: permutation family, field, coefficients.

    Systematic columns are ordered family-index major, copy minor: column
    j*s + t is the t-th copy of family member j.  Parity node i sits at
    global node index k + i.
    """

    family: VectorFamily
    field: Field
    scheme: str
    s: int
    coeffs: tuple  # [parity-1][row][column] for parity indices 1..r-1

    @property
    def r(self) -> int:
        return self.family.r

    @property
    def m(self) -> int:
        return self.family.m

    @property
    def p(self) -> int:
        return self.family.p

    @property
    def base_k(self) -> int:
        return self.family.size

    @property
    def k(self) -> int:
        return self.family.size * self.s

    @property
    def n(self) -> int:
        return self.k + self.r

    def family_index(self, col: int) -> int:
        return col // self.s

    def coefficient(self, row: int, col: int, sidx: int) -> int:
        if sidx == 0:
            return 1
        return self.coeffs[sidx - 1][row][col]

    def access_rows(self, col: int, sidx: int):
        """Rows of col that a single-column rebuild recovers through parity sidx."""
        return self.family.access_set(self.family_index(col), sidx)

    @cached_property
    def plan(self):
        """The code compiled into tables and gather lists (`zzmds.plan`),
        built on first use and kept for the life of this spec."""
        from .plan import CodePlan
        return CodePlan(self)

    def __repr__(self):
        return (f"CodeSpec(scheme={self.scheme}, m={self.m}, r={self.r}, "
                f"s={self.s}, k={self.k}, n={self.n}, field={self.field.token})")


def is_standard_basis(family: VectorFamily) -> bool:
    """Zero vector first, then the m unit vectors in order."""
    expected = tuple(unit_vector(family.m, family.r, i) for i in range(family.m + 1))
    return family.vectors == expected and family.zero_index == 0


def block_width(family: VectorFamily):
    """The w of a block-weight family: one 1 in each of w equal blocks; None if not."""
    w = family.vectors[0].weight
    if w < 2 or family.m % w or family.zero_index is not None:
        return None
    block = family.m // w
    for v in family.vectors:
        sup = v.support()
        if len(sup) != w:
            return None
        if any(not (b * block + 1 <= pos <= (b + 1) * block) for b, pos in enumerate(sup)):
            return None
    return w


def smallest_prime_at_least(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def default_field(scheme: str, s: int = 1, m: int = None, w: int = None) -> Field:
    if scheme == "cons3":
        return field_create("prime", 3)
    if scheme == "cons4":
        q = max(3, s + 1)
        if q % 2 == 0:
            q += 1
        while not is_prime(q):
            q += 2
        return field_create("prime", q)
    if scheme == "weightw":
        n = 2 ** w + 1
        if is_prime(n):
            return field_create("prime", n)
        if n == 9:
            return gf9()
        return field_create("binary-extension", w + 1)
    if scheme == "r3":
        return field_create("prime", smallest_prime_at_least(2 * (m + 1)))
    raise CodeSpecError(f"no default field for scheme {scheme!r}")


def _prefix_vectors(family: VectorFamily):
    """Running digit-wise sums u_j of the family vectors (mod r)."""
    r = family.r
    acc = [0] * family.m
    out = []
    for v in family.vectors:
        acc = [(a + b) % r for a, b in zip(acc, v.digits)]
        out.append(tuple(acc))
    return out


def _build_cons4(family, field, s):
    p = family.p
    a = field.primitive
    even_q = field.char == 2
    prefixes = _prefix_vectors(family)
    table = [[0] * (family.size * s) for _ in range(p)]
    for row in range(p):
        rd = to_digits(row, 2, family.m)
        for j in range(family.size):
            hit = sum(x * y for x, y in zip(rd, prefixes[j])) % 2
            for t in range(s):
                if even_q:
                    e = -t - 1 if hit else t + 1
                else:
                    e = t + 1 if hit else t
                table[row][j * s + t] = field.pow(a, e)
    return (tuple(tuple(r) for r in table),)


def _build_weightw(family, field, s):
    """Coefficient a^e of (row, vector): bit b of e, most significant first,
    is the parity of the row's digits from the start of block b through the
    vector's 1 in that block."""
    w = block_width(family)
    block, exp, order = family.m // w, field.exp, field.q - 1
    ones = [[pos - 1 for pos in v.support()] for v in family.vectors]
    table = []
    for digits in product(range(2), repeat=family.m):
        # parities[i]: the parity of the digits from i's block start through i
        parities, acc = [], 0
        for i, d in enumerate(digits):
            acc = d if i % block == 0 else acc ^ d
            parities.append(acc)
        row = []
        for positions in ones:
            e = 0
            for i in positions:
                e = 2 * e + parities[i]
            row.append(exp[e % order])
        table.append(tuple(row))
    return (tuple(table),)


def _build_r3(family, field, s):
    """Coefficient a^(l*c) of (row, vector l) in parity sidx: c counts the
    steps i < sidx of the orbit row + i*v with v.(row + i*v) = 0, where
    v.(row + i*v) = v.row + i*(v.v)."""
    r, exp, order = family.r, field.exp, field.q - 1
    terms = [[(i, d) for i, d in enumerate(v.digits) if d] for v in family.vectors]
    steps = [v.dot_vec(v) for v in family.vectors]
    tables = ([], [])
    for digits in product(range(r), repeat=family.m):
        rows = ([], [])
        for l, (nonzero, step) in enumerate(zip(terms, steps)):
            dot = sum(d * digits[i] for i, d in nonzero) % r
            hits = 0
            for i, row in enumerate(rows):     # parity i + 1 adds orbit step i
                hits += (dot + i * step) % r == 0
                row.append(exp[l * hits % order])
        for table, row in zip(tables, rows):
            table.append(tuple(row))
    return tuple(tuple(table) for table in tables)


_BUILDERS = {"cons3": _build_cons4, "cons4": _build_cons4,
             "weightw": _build_weightw, "r3": _build_r3}


def _validate_scheme(scheme, family, field, s):
    q = field.q
    if scheme == "cons3":
        if family.r != 2 or s != 1:
            raise CodeSpecError("cons3 needs r=2 and no duplication")
        if not is_standard_basis(family):
            raise CodeSpecError("cons3 needs the standard-basis family")
        if (field.char, field.degree) != (3, 1):
            raise CodeSpecError("cons3 is defined over gf(3)")
    elif scheme == "cons4":
        if family.r != 2:
            raise CodeSpecError("cons4 needs r=2")
        if not is_standard_basis(family):
            raise CodeSpecError("cons4 needs the standard-basis family")
        if q < 3:
            raise CodeSpecError("cons4 needs a field of size at least 3")
        limit = q - 2 if field.char == 2 else q - 1
        if not 1 <= s <= limit:
            raise CodeSpecError(f"duplication s={s} exceeds the {field.token} limit s<={limit}")
    elif scheme == "weightw":
        if family.r != 2 or s != 1:
            raise CodeSpecError("weightw needs r=2 and no duplication")
        if block_width(family) is None:
            raise CodeSpecError("weightw needs a block-weight vector family")
    elif scheme == "r3":
        if family.r != 3 or s != 1:
            raise CodeSpecError("r3 needs r=3 and no duplication")
        if not is_standard_basis(family):
            raise CodeSpecError("r3 needs the standard-basis family")
        if field.degree != 1 or q < 2 * (family.m + 1):
            raise CodeSpecError(f"r3 needs a prime field of size >= {2 * (family.m + 1)}")
    elif scheme != "table":
        raise CodeSpecError(f"unknown scheme {scheme!r}")


def build_code(scheme: str, family: str = "standard", m: int = None, r: int = None,
               s: int = 1, w: int = None, vectors=None, field: Field = None,
               coefficients=None) -> CodeSpec:
    """Assemble a CodeSpec.

    family is 'standard', 'weightw', or 'explicit' (with `vectors` either a
    list of RVector or a comma-separated digit-string form).  When `field`
    is omitted the scheme's smallest sufficient field is used.
    """
    if scheme not in SCHEMES:
        raise CodeSpecError(f"unknown scheme {scheme!r}")
    if r is None:
        r = 3 if scheme == "r3" else 2
    # r^m rows alone past the bound: refuse before the family is built
    if m is not None and r >= 2 and (m >= MAX_CODE_CELLS.bit_length() or r ** m > MAX_CODE_CELLS):
        raise CodeSpecError(f"code too large: more than {MAX_CODE_CELLS} cells per stripe")

    try:
        if family == "standard":
            if m is None:
                raise CodeSpecError("standard family needs m")
            fam = standard_basis_family(m, r)
        elif family == "weightw":
            if m is None or w is None:
                raise CodeSpecError("weightw family needs m and w")
            fam = weight_w_family(m, w)
        elif family == "explicit":
            if vectors is None:
                raise CodeSpecError("explicit family needs vectors")
            if isinstance(vectors, str):
                from .perms import parse_vector_list
                vectors = parse_vector_list(vectors, r)
            fam = make_family(vectors)
            if fam.r != r:
                raise CodeSpecError("explicit vectors disagree with r")
        else:
            raise CodeSpecError(f"unknown family kind {family!r}")
    except CodeSpecError:
        raise
    except ValueError as e:
        raise CodeSpecError(str(e)) from None
    if fam.p * fam.size * s > MAX_CODE_CELLS:
        raise CodeSpecError(f"code too large: more than {MAX_CODE_CELLS} cells per stripe")

    if field is None:
        if scheme == "table":
            raise CodeSpecError("table scheme needs an explicit field")
        bw = w
        if scheme == "weightw":
            bw = block_width(fam)
            if bw is None:
                raise CodeSpecError("weightw needs a block-weight vector family")
        field = default_field(scheme, s=s, m=fam.m, w=bw)

    if s < 1:
        raise CodeSpecError("duplication factor must be at least 1")
    _validate_scheme(scheme, fam, field, s)

    if scheme == "table":
        if coefficients is None:
            raise CodeSpecError("table scheme needs coefficients")
        k = fam.size * s
        coeffs = tuple(tuple(tuple(row) for row in t) for t in coefficients)
        if len(coeffs) != fam.r - 1 or any(
                len(t) != fam.p or any(len(row) != k for row in t) for t in coeffs):
            raise CodeSpecError("coefficient table must be (r-1) x p x k")
        for t in coeffs:
            for row in t:
                for c in row:
                    field.check(c)
    else:
        coeffs = _BUILDERS[scheme](fam, field, s)

    spec = CodeSpec(fam, field, scheme, s, coeffs)
    for sidx in range(1, spec.r):
        for row in range(spec.p):
            for col in range(spec.k):
                if spec.coefficient(row, col, sidx) == 0:
                    raise CodeSpecError(
                        f"zero coefficient at row {row}, column {col}, parity {sidx}")
    return spec


class MdsReport(NamedTuple):
    is_mds: bool
    failing_pattern: tuple  # node indices, or None
    patterns_checked: int

    def __bool__(self):
        return self.is_mds


def verify_mds(spec: CodeSpec) -> MdsReport:
    """Exhaustively check decodability of every pattern of at most r erasures.

    Each pattern is judged by the rank of its surviving parity equations
    (`CodePlan.decodable`), the same equations and elimination the decoder
    solves; `tests/oracles.py` checks the verdicts by exhaustive search.
    """
    if spec.p * spec.k > MAX_VERIFY_CELLS:
        raise ValueError(f"instance too large for exhaustive verification "
                         f"(p*k = {spec.p * spec.k} > {MAX_VERIFY_CELLS})")
    checked = 0
    for size in range(1, spec.r + 1):
        for pattern in combinations(range(spec.n), size):
            checked += 1
            if not spec.plan.decodable(pattern):
                return MdsReport(False, pattern, checked)
    return MdsReport(True, None, checked)

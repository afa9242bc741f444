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

The first parity (index 0) always uses unit coefficients.  Every other
coefficient is a power of the field's primitive element, so none is zero.

A command builds its code once, from its config or manifest: the vector
family, the field and the coefficient table.  Each scheme computes its
table in bulk: the rows' digits are big ints with one byte lane per row,
and the parities and dot products that pick a coefficient are XORs, shifts
and sums of those ints, so each column of the table is one lookup per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .gf import Field, field_create, gf9, is_prime
from .perms import VectorFamily, make_family, standard_basis_family, weight_w_family

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
    global node index k + i.  Every coefficient is a nonzero element of
    `field`; `build_code` makes no other, and nothing checks a spec built
    by hand.
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

    def coefficient(self, row: int, col: int, sidx: int) -> int:
        if sidx == 0:
            return 1
        return self.coeffs[sidx - 1][row][col]

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
    m = family.m
    expected = [(0,) * m] + [(0,) * i + (1,) + (0,) * (m - 1 - i) for i in range(m)]
    return family.zero_index == 0 and [v.digits for v in family.vectors] == expected


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
        return field_create("prime", smallest_prime_at_least(max(3, s + 1)))
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


def _digit_columns(r: int, m: int) -> list:
    """columns[i]: digit i of every row x in [0, r^m), one byte lane per row
    of a big int: a run of r^(m-1-i) of each digit value, the whole repeated
    r^i times.  The schemes' radix is 2 or 3, so sums of a few scaled
    columns stay inside their lanes."""
    return [int.from_bytes(b"".join(bytes([d]) * r ** (m - 1 - i) for d in range(r)) * r ** i,
                           "little") for i in range(m)]


def _build_cons4(family, field, s):
    """Coefficient of copy t of vector j at a row: a^t or a^(t+1) (odd q),
    a^(t+1) or a^(-t-1) (even q), as the row's digits against the sum of
    vectors 0..j have even or odd parity.  That parity, in every row at
    once, is the previous vector's XOR the digit columns of vector j's ones."""
    a = field.primitive
    even_q = field.char == 2
    digits = _digit_columns(2, family.m)
    hits, columns = 0, []
    for v in family.vectors:
        for column, d in zip(digits, v.digits):
            if d:
                hits ^= column
        lanes = hits.to_bytes(family.p, "little")
        for t in range(s):
            e = (t + 1, -t - 1) if even_q else (t, t + 1)
            values = field.pow(a, e[0]), field.pow(a, e[1])
            columns.append([values[h] for h in lanes])
    return (tuple(zip(*columns)),)


def _build_weightw(family, field, s):
    """Coefficient a^e of (row, vector): bit b of e, most significant first,
    is the parity of the row's digits from the start of block b through the
    vector's 1 in that block.  Those parities, in every row at once, are
    running XORs of the digit columns, each shifted to its block's bit, so
    a vector's e is the sum of its ones' columns."""
    w = family.vectors[0].weight      # `_validate_scheme` checked the blocks
    block = family.m // w
    scaled = []
    for i, column in enumerate(_digit_columns(2, family.m)):
        parities = column if i % block == 0 else parities ^ column
        scaled.append(parities << w - 1 - i // block)
    powers = (field.exp * (2 ** w // (field.q - 1) + 1))[:2 ** w]   # a^(e mod q-1)
    columns = [[powers[e] for e in sum(scaled[pos - 1] for pos in v.support()).to_bytes(
        family.p, "little")] for v in family.vectors]
    return (tuple(zip(*columns)),)


def _build_r3(family, field, s):
    """Coefficient a^(l*c) of (row, vector l) in parity sidx: c counts the
    steps i < sidx of the orbit row + i*v with v.(row + i*v) = 0, where
    v.(row + i*v) = v.row + i*(v.v).  So c depends on the row only through
    v.row mod r, which the digit columns give for every row at once."""
    r, exp, order = family.r, field.exp, field.q - 1
    digits = _digit_columns(r, family.m)
    residues = (bytes(range(r)) * (256 // r + 1))[:256]
    tables = [[] for _ in range(r - 1)]
    for l, v in enumerate(family.vectors):
        dots = sum(d * column for column, d in zip(digits, v.digits)).to_bytes(
            family.p, "little").translate(residues)
        step, hits = v.dot_vec(v), [0] * r
        for i, table in enumerate(tables):     # parity i + 1 adds orbit step i
            hits = [h + ((dot + i * step) % r == 0) for dot, h in enumerate(hits)]
            values = [exp[l * h % order] for h in hits]
            table.append([values[dot] for dot in dots])
    return tuple(tuple(zip(*table)) for table in tables)


_BUILDERS = {"cons3": _build_cons4, "cons4": _build_cons4,
             "weightw": _build_weightw, "r3": _build_r3}


def _validate_scheme(scheme, family, field, s, width):
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
        if width is None:
            raise CodeSpecError("weightw needs a block-weight vector family")
    elif scheme == "r3":
        if family.r != 3 or s != 1:
            raise CodeSpecError("r3 needs r=3 and no duplication")
        if not is_standard_basis(family):
            raise CodeSpecError("r3 needs the standard-basis family")
        if field.degree != 1 or q < 2 * (family.m + 1):
            raise CodeSpecError(f"r3 needs a prime field of size >= {2 * (family.m + 1)}")


def build_code(scheme: str, family: str = "standard", m: int = None, r: int = None,
               s: int = 1, w: int = None, vectors=None, field: Field = None) -> CodeSpec:
    """Assemble a CodeSpec.

    family is 'standard', 'weightw', or 'explicit' (with `vectors` either a
    list of RVector or a comma-separated digit-string form).  When `field`
    is omitted the scheme's smallest sufficient field is used.
    """
    if scheme not in _BUILDERS:
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

    # weightw reads its w from the family, not from the config
    width = block_width(fam) if scheme == "weightw" else None
    if field is None:
        if scheme == "weightw" and width is None:
            raise CodeSpecError("weightw needs a block-weight vector family")
        field = default_field(scheme, s=s, m=fam.m, w=width)

    if s < 1:
        raise CodeSpecError("duplication factor must be at least 1")
    _validate_scheme(scheme, fam, field, s, width)

    return CodeSpec(fam, field, scheme, s, _BUILDERS[scheme](fam, field, s))


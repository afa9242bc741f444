"""Radix-r digit vectors, the row permutations x -> x + i*v, and access sets.

Row indices in [0, r^m - 1] are identified with their base-r digit strings,
most significant digit first (digit 1 is the most significant).  All digit
arithmetic is modulo r.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


def to_digits(x: int, r: int, m: int):
    """Base-r digits of x, most significant first."""
    if not 0 <= x < r ** m:
        raise ValueError(f"row index {x} out of range for r={r}, m={m}")
    out = [0] * m
    for i in range(m - 1, -1, -1):
        out[i] = x % r
        x //= r
    return tuple(out)


def from_digits(digits, r: int) -> int:
    v = 0
    for d in digits:
        v = v * r + d % r
    return v


@dataclass(frozen=True)
class RVector:
    """A length-m vector over Z_r, used to define one column's permutations."""

    digits: tuple
    r: int

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("radix must be at least 2")
        if not self.digits:
            raise ValueError("empty vector")
        if any(not 0 <= d < self.r for d in self.digits):
            raise ValueError(f"digits {self.digits} out of range for radix {self.r}")

    @property
    def m(self) -> int:
        return len(self.digits)

    @property
    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    @property
    def admissible(self) -> bool:
        """Zero, or with digit gcd coprime to r (so every access set has r^(m-1) rows)."""
        if self.is_zero:
            return True
        g = self.r
        for d in self.digits:
            g = gcd(g, d)
        return g == 1

    @property
    def weight(self) -> int:
        return sum(1 for d in self.digits if d)

    def support(self):
        """1-indexed positions of nonzero digits."""
        return tuple(i + 1 for i, d in enumerate(self.digits) if d)

    def dot(self, x: int) -> int:
        """Inner product with the digit string of row index x, mod r."""
        xd = to_digits(x, self.r, self.m)
        return sum(a * b for a, b in zip(xd, self.digits)) % self.r

    def dot_vec(self, other: "RVector") -> int:
        return sum(a * b for a, b in zip(self.digits, other.digits)) % self.r

    def __str__(self):
        return "".join(str(d) for d in self.digits)


def unit_vector(m: int, r: int, position: int) -> RVector:
    """The vector with a single 1 at the given 1-indexed position (0 = zero vector)."""
    digits = [0] * m
    if position:
        digits[position - 1] = 1
    return RVector(tuple(digits), r)


def access_set(v: RVector, s: int, special_zero: bool = False):
    """Rows of a column rebuilt through parity s.

    For nonzero v these are the rows x with x.v = -s (mod r); the designated
    zero vector instead uses the all-ones functional with a positive sign,
    x.(1,..,1) = s.  Either way the sets over s partition the rows and each
    has r^(m-1) members for admissible v.
    """
    if not 0 <= s < v.r:
        raise ValueError(f"parity index {s} out of range for r={v.r}")
    return access_sets(v, special_zero)[s]


def access_sets(v: RVector, special_zero: bool = False) -> tuple:
    """The access sets of v for parities 0..r-1, from one walk over the rows'
    digits: the functional's value on every row, built digit by digit."""
    r = v.r
    if v.is_zero:
        if not special_zero:
            raise ValueError("zero vector requires the special flag (all-ones access sets)")
        functional, sign = (1,) * v.m, 1
    elif not v.admissible:
        raise ValueError(f"vector {v} is not admissible (digit gcd shares a factor with r)")
    else:
        functional, sign = v.digits, -1
    dots = [0]
    for d_v in functional:
        dots = [a + d * d_v for a in dots for d in range(r)]
    sets = [[] for _ in range(r)]
    for x, dot in enumerate(dots):
        sets[sign * dot % r].append(x)
    return tuple(map(frozenset, sets))


def pair_constant(v: RVector, u: RVector) -> int:
    """The pair constant v.(v-u) - 1 mod r deciding whether transfer sets coincide."""
    diff = RVector(tuple((a - b) % v.r for a, b in zip(v.digits, u.digits)), v.r)
    return (v.dot_vec(diff) - 1) % v.r


def access_union(v: RVector, u: RVector, v_is_zero: bool = False):
    """All rows read in column u across parities when rebuilding column v.

    One pass: row x is rebuilt through the single parity s whose access set
    holds it, and contributes the row x + s*(v - u) of column u.
    """
    r, m = v.r, v.m
    if not v_is_zero and (v.is_zero or not v.admissible):
        raise ValueError(f"vector {v} is not admissible here")
    diff = tuple((a - b) % r for a, b in zip(v.digits, u.digits))
    out = set()
    for x in range(r ** m):
        xd = to_digits(x, r, m)
        if v_is_zero:
            s = sum(xd) % r
        else:
            s = -sum(a * b for a, b in zip(xd, v.digits)) % r
        out.add(from_digits(((a + s * d) % r for a, d in zip(xd, diff)), r))
    return frozenset(out)


@dataclass(frozen=True)
class VectorFamily:
    """An ordered set of same-shape vectors, at most one of them zero."""

    vectors: tuple
    zero_index: object = None  # int or None

    def __post_init__(self):
        if not self.vectors:
            raise ValueError("empty family")
        r, m = self.vectors[0].r, self.vectors[0].m
        for v in self.vectors:
            if v.r != r or v.m != m:
                raise ValueError("family vectors must share radix and length")
        if len(set(self.vectors)) != len(self.vectors):
            raise ValueError("family vectors must be distinct")
        zeros = [i for i, v in enumerate(self.vectors) if v.is_zero]
        if zeros and (self.zero_index is None or zeros != [self.zero_index]):
            raise ValueError("zero vector allowed only as the designated zero member")
        if self.zero_index is not None and not self.vectors[self.zero_index].is_zero:
            raise ValueError("designated zero member is not the zero vector")
        for v in self.vectors:
            if not v.admissible:
                raise ValueError(f"vector {v} is not admissible")

    @property
    def r(self) -> int:
        return self.vectors[0].r

    @property
    def m(self) -> int:
        return self.vectors[0].m

    @property
    def p(self) -> int:
        return self.r ** self.m

    @property
    def size(self) -> int:
        return len(self.vectors)

    def is_zero(self, idx: int) -> bool:
        return idx == self.zero_index

    def access_set(self, idx: int, s: int):
        return access_set(self.vectors[idx], s, special_zero=self.is_zero(idx))


def make_family(vectors) -> VectorFamily:
    """Build a family, designating a single zero vector automatically."""
    vectors = tuple(vectors)
    zeros = [i for i, v in enumerate(vectors) if v.is_zero]
    if len(zeros) > 1:
        raise ValueError("at most one zero vector per family")
    return VectorFamily(vectors, zeros[0] if zeros else None)


def standard_basis_family(m: int, r: int) -> VectorFamily:
    """The zero vector followed by the m unit vectors: the largest family whose
    rebuild reads exactly r^(m-1) rows from every surviving column."""
    if m < 1 or r < 2:
        raise ValueError("need m >= 1 and r >= 2")
    return VectorFamily(tuple(unit_vector(m, r, i) for i in range(m + 1)), 0)


def weight_w_family(m: int, w: int) -> VectorFamily:
    """All binary vectors with exactly one 1 in each of w equal blocks of [1, m]."""
    if w < 2:
        raise ValueError("need w >= 2")
    if m % w:
        raise ValueError(f"w={w} must divide m={m}")
    block = m // w
    vectors = []
    counters = [0] * w
    while True:
        digits = [0] * m
        for b in range(w):
            digits[b * block + counters[b]] = 1
        vectors.append(RVector(tuple(digits), 2))
        b = w - 1
        while b >= 0 and counters[b] == block - 1:
            counters[b] = 0
            b -= 1
        if b < 0:
            break
        counters[b] += 1
    return VectorFamily(tuple(vectors), None)


def parse_vector_list(text: str, r: int):
    """Parse the comma-separated digit-string form, e.g. "00,10,01"."""
    vectors = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ValueError("empty vector in list")
        try:
            digits = tuple(int(ch) for ch in part)
        except ValueError:
            raise ValueError(f"bad vector token {part!r}") from None
        vectors.append(RVector(digits, r))
    return vectors


def format_vector_list(vectors) -> str:
    return ",".join(str(v) for v in vectors)

"""Exact arithmetic over small finite fields.

Elements are canonical integers in [0, q).  For a prime field the integer is
the residue itself.  For an extension field GF(p^w) it encodes the residue
polynomial's coefficient vector, constant term first, read as a base-p
integer (so for GF(2^w) the integer IS the coefficient bit-vector).

Everything here is computed on small ints, with no floating point anywhere.
`add`, `sub` and `mul` are structural: the single definition of the
arithmetic.  A field walks its primitive element's powers once, with `mul`,
into `exp` and `log`.  `pow`, `inv` and a compiled code's product table
(`zzmds.plan`) read them; tests check each against `mul`.
"""

from __future__ import annotations


class FieldError(ValueError):
    """Invalid field construction or misuse of field elements."""


MAX_PRIME = 65521
MAX_BINARY_DEGREE = 8

# Monic modulus x^w + (low part); low part keyed by degree, coefficient of
# x^j at tuple index j.  All are primitive, so x generates the nonzero
# elements (verified at construction time).
_BINARY_MODULI = {
    2: (1, 1),                   # x^2 + x + 1
    3: (1, 1, 0),                # x^3 + x + 1
    4: (1, 1, 0, 0),             # x^4 + x + 1
    5: (1, 0, 1, 0, 0),          # x^5 + x^2 + 1
    6: (1, 1, 0, 0, 0, 0),       # x^6 + x + 1
    7: (1, 0, 0, 1, 0, 0, 0),    # x^7 + x^3 + 1
    8: (1, 0, 1, 1, 1, 0, 0, 0),  # x^8 + x^4 + x^3 + x^2 + 1
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """GF(char^degree) with a fixed modulus polynomial and primitive element."""

    def __init__(self, char: int, degree: int = 1, modulus=None):
        if not is_prime(char):
            raise FieldError(f"characteristic {char} is not prime")
        if degree < 1:
            raise FieldError("degree must be positive")
        self.char = char
        self.degree = degree
        self.q = char ** degree
        if degree == 1:
            if modulus is not None:
                raise FieldError("prime fields take no modulus")
            self.modulus = None
        else:
            modulus = tuple(int(c) % char for c in modulus)
            if len(modulus) != degree:
                raise FieldError("modulus low part must have one coefficient per degree")
            self.modulus = modulus
            if not self._modulus_irreducible():
                raise FieldError(f"modulus {modulus} + x^{degree} is reducible over GF({char})")
        # exp[i] = primitive^i; exp lists 1..q-1 once each, so sorting its
        # indices by value gives log, with log[exp[i]] = i.  0 has no log.
        self.primitive, self.exp = self._primitive_powers()
        self.log = (None, *sorted(range(self.q - 1), key=self.exp.__getitem__))

    # -- construction helpers -------------------------------------------------

    def _digits(self, a: int):
        out = []
        for _ in range(self.degree):
            out.append(a % self.char)
            a //= self.char
        return out

    def _from_digits(self, digits) -> int:
        v = 0
        for c in reversed(digits):
            v = v * self.char + c
        return v

    def _poly_divisible(self, divisor) -> bool:
        # True if the monic modulus is divisible by the monic `divisor`
        # (coefficient list, low first, leading 1 included).
        p = self.char
        rem = list(self.modulus) + [1]
        d = len(divisor) - 1
        while len(rem) - 1 >= d:
            lead = rem[-1]
            if lead:
                shift = len(rem) - 1 - d
                for j, c in enumerate(divisor):
                    rem[shift + j] = (rem[shift + j] - lead * c) % p
            rem.pop()
        return all(c == 0 for c in rem)

    def _modulus_irreducible(self) -> bool:
        p, w = self.char, self.degree
        if w in (2, 3):
            # No roots in GF(p) is enough for degree 2 and 3.
            for x in range(p):
                acc = 1
                val = 0
                for c in self.modulus:
                    val = (val + c * acc) % p
                    acc = acc * x % p
                if (val + acc) % p == 0:   # + leading x^w term
                    return False
            return True
        # Trial division by every monic polynomial of degree 1..w//2.
        for d in range(1, w // 2 + 1):
            for low in range(p ** d):
                divisor = []
                t = low
                for _ in range(d):
                    divisor.append(t % p)
                    t //= p
                divisor.append(1)
                if self._poly_divisible(divisor):
                    return False
        return True

    def _primitive_powers(self):
        """(g, (g^0, ..., g^(q-2))) for the first g of 1, 2, ... (prime field)
        or for g = x (extension field) whose powers reach 1 only after q - 1
        structural multiplications."""
        candidates = range(1, self.char) if self.degree == 1 else (self.char,)
        for g in candidates:
            powers = [1]
            acc = g
            while acc != 1:
                powers.append(acc)
                acc = self.mul(acc, g)
            if len(powers) == self.q - 1:
                return g, tuple(powers)
        if self.degree > 1:
            raise FieldError("x is not primitive for the chosen modulus")
        raise FieldError("no primitive root found")

    # -- element operations ---------------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.q:
            raise FieldError(f"{a!r} is not an element of {self.token}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a + b) % self.char
        da, db = self._digits(a), self._digits(b)
        return self._from_digits([(x + y) % self.char for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        if self.degree == 1:
            return (a - b) % self.char
        da, db = self._digits(a), self._digits(b)
        return self._from_digits([(x - y) % self.char for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        p = self.char
        if self.degree == 1:
            return a * b % p
        if a == 0 or b == 0:
            return 0
        w = self.degree
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * w - 1)
        for i, ca in enumerate(da):
            if ca:
                for j, cb in enumerate(db):
                    prod[i + j] = (prod[i + j] + ca * cb) % p
        for t in range(2 * w - 2, w - 1, -1):
            c = prod[t]
            if c:
                prod[t] = 0
                for j, mj in enumerate(self.modulus):
                    prod[t - w + j] = (prod[t - w + j] - c * mj) % p
        return self._from_digits(prod[:w])

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("division by zero")
        return self.pow(a, -1)

    def pow(self, a: int, e: int) -> int:
        """a**e with a signed exponent, reduced mod q-1 for nonzero a."""
        self.check(a)
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise FieldError("negative power of zero")
        return self.exp[self.log[a] * e % (self.q - 1)]

    def elements(self):
        return range(self.q)

    @property
    def token(self) -> str:
        if self.degree == 1:
            return f"gf({self.char})"
        if self.char == 2:
            return f"gf(2^{self.degree})"
        return f"gf({self.q})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and self.char == other.char
                and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.char, self.degree, self.modulus))

    def __repr__(self):
        return f"Field({self.token})"


def field_create(kind: str, parameter: int) -> Field:
    """Make a field from a (kind, parameter) pair.

    kind 'prime': parameter is a prime <= 65521.
    kind 'binary-extension': parameter is the degree w in [1, 8]; w=1
    degenerates to GF(2).
    """
    if kind == "prime":
        if not is_prime(parameter):
            raise FieldError(f"{parameter} is not prime")
        if parameter > MAX_PRIME:
            raise FieldError(f"prime {parameter} exceeds the supported maximum {MAX_PRIME}")
        return Field(parameter)
    if kind == "binary-extension":
        if not 1 <= parameter <= MAX_BINARY_DEGREE:
            raise FieldError(f"extension degree must be in [1, {MAX_BINARY_DEGREE}]")
        if parameter == 1:
            return Field(2)
        return Field(2, parameter, _BINARY_MODULI[parameter])
    raise FieldError(f"unknown field kind {kind!r}")


def gf9() -> Field:
    """GF(9) as GF(3)[y]/(y^2 + y + 2); y is primitive."""
    return Field(3, 2, (2, 1))


def field_from_token(token: str) -> Field:
    """Parse a field descriptor token: gf(p), gf(2^w), or gf(9)."""
    tok = token.strip().lower()
    if not (tok.startswith("gf(") and tok.endswith(")")):
        raise FieldError(f"bad field token {token!r}")
    body = tok[3:-1]
    if "^" in body:
        base, _, exp = body.partition("^")
        if base.strip() != "2":
            raise FieldError(f"only characteristic-2 extensions use the gf(2^w) form: {token!r}")
        return field_create("binary-extension", int(exp))
    n = int(body)
    if n == 9:
        return gf9()
    if n > 2 and n & (n - 1) == 0:  # power of two: gf(4) means gf(2^2)
        return field_create("binary-extension", n.bit_length() - 1)
    return field_create("prime", n)

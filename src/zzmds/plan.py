"""A code compiled once into integers: arithmetic tables, gather lists, and the
one kernel that runs them over stripes.

Everything here follows from the structural `Field` and `CodeSpec` alone,
never from the data, so it is built once per spec (`CodeSpec.plan`, on first
use) instead of once per stripe or cell.

A node column is laid out as its node file (`zzmds.files`, which defines
the column form): over T stripes, row x of every stripe is the row vector
col[x*T:(x+1)*T], and stripe t is the strided col[t::T].  A gather list
computes one output column: entry x lists the (node, row, coefficient)
terms of output row x, the field sum of coefficient * column[node][row].  A
term is the same in every stripe, so the kernel applies it once to the row
vector of all stripes.  Encode, syndrome, rebuild (the decode of one node)
and decode are all gather lists; they differ only in the cells they read and
the coefficients they read them with.  `repair` is decode plus the check of
the parity left over.

This is the library's interface to every operation, for any number of
stripes (one stripe is T = 1).  Columns come from `files.zero_column` or
`files.as_column` and must hold field symbols; lost nodes are None.  The
plan checks neither the column form nor the symbols (the command line's
reader, `files.read_columns`, does), and `decode` and `repair` fill in
`cols` in place.

An erasure pattern's surviving parity equations are solved by the one
Gauss-Jordan elimination here, on the same tables: its pivot rows are the
pattern's decode map, and their number is the rank `verify_mds` checks.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import cached_property, reduce
from operator import xor
from typing import NamedTuple

from .files import as_column, zero_column

# Fields up to this size get materialised q x q tables (two of at most 65536
# entries).  Larger ones, which only explicit prime-field configs reach, read
# the same rows computed on access instead.
TABLE_MAX_Q = 256


class SingularMatrixError(ValueError):
    """The surviving columns do not determine the erased ones."""


class RebuildPlan(NamedTuple):
    """What a single-node rebuild reads: the exact set of cells touched per
    surviving node."""

    erased: int
    access: dict                  # node index -> sorted tuple of rows read

    @property
    def cells_read(self) -> int:
        return sum(len(rows) for rows in self.access.values())

    def cells_in(self, node: int) -> int:
        return len(self.access.get(node, ()))

    def ratio(self, spec) -> Fraction:
        """Fraction of the surviving array read; a full parity recompute
        reads every information cell and reports 1."""
        if self.erased >= spec.k:
            return Fraction(1)
        return Fraction(self.cells_read, spec.p * (spec.n - 1))


class _Computed:
    """op(a, b) read as rows[a][b], for fields too large to tabulate."""

    __slots__ = ("op", "a")

    def __init__(self, op, a=None):
        self.op, self.a = op, a

    def __getitem__(self, i):
        if self.a is None:
            return _Computed(self.op, i)
        return self.op(self.a, i)


def _mul_table(field):
    """The q x q product table, through the field's discrete logarithms."""
    q, exp, log = field.q, field.exp, field.log
    return [[0] * q] + [[0] + [exp[(log[a] + log[b]) % (q - 1)] for b in range(1, q)]
                        for a in range(1, q)]


def row_arithmetic(field, mul, add):
    """The field's two row primitives, (lift, total), chosen once per field.

    lift(row, c) turns the row vector c * row into a summand, and
    total(summands, t) returns their field sum as a row vector of t symbols.
    For q <= 256 the product c * row is one translate of the row.
    - Characteristic 2: a summand is the translated row read as one big
      int, and the sum is their XOR.
    - Other fields whose digits fit several to a byte lane with room for
      L >= 2 terms (odd primes up to 127, GF(9)): the translate also spreads
      each symbol's base-char digits over the lane, one bit field each, and
      summands are added as big ints.  Every L terms, and at the end, one
      translate reduces each field mod char.
    - Every other field: the summands are the products themselves, summed
      cell by cell; a prime field adds them as integers and reduces mod q
      once.
    """
    q, char, degree = field.q, field.char, field.degree
    bits = 8 // degree
    terms = (2 ** bits - 1) // (char - 1)
    big_ints = q <= TABLE_MAX_Q and (char == 2 or terms >= 2)
    if q <= TABLE_MAX_Q:
        mask, pad = 2 ** bits - 1, bytes(256 - q)
        lanes = (bytes(sum(a // char ** i % char << bits * i for i in range(degree))
                       for a in range(q)) + pad if big_ints and char > 2 else bytes(range(256)))
        tables = [bytes(row).translate(lanes) + pad for row in mul]

    if not big_ints:
        def lift(row, c):
            if q <= TABLE_MAX_Q:
                return row.translate(tables[c])
            return list(map(mul[c].__getitem__, row))

        def total(parts, t):
            if degree == 1:
                return as_column(q, [sum(v) % q for v in zip(bytes(t), *parts)])
            acc = [0] * t
            for part in parts:
                acc = [add[a][b] for a, b in zip(acc, part)]
            return as_column(q, acc)
        return lift, total

    def lift(row, c):
        return int.from_bytes(row.translate(tables[c]), "little")

    if char == 2:
        def total(parts, t):
            return reduce(xor, parts, 0).to_bytes(t, "little")
        return lift, total

    final = bytes(sum((v >> bits * i & mask) % char * char ** i for i in range(degree))
                  for v in range(256))
    reduced = final.translate(lanes)

    def total(parts, t):
        acc = sum(parts[:terms])
        for i in range(terms, len(parts), terms - 1):
            acc = (int.from_bytes(acc.to_bytes(t, "little").translate(reduced), "little")
                   + sum(parts[i:i + terms - 1]))
        return acc.to_bytes(t, "little").translate(final)
    return lift, total


class CodePlan:
    """Tables, gather lists and decode maps of one CodeSpec."""

    def __init__(self, spec):
        field = spec.field
        q = field.q
        # A copy, so that spec -> plan -> spec is no reference cycle and a
        # spec that goes out of use frees its plan at once.
        self.spec, self.field = replace(spec), field
        self.p, self.k, self.r, self.n = spec.p, spec.k, spec.r, spec.n
        if q <= TABLE_MAX_Q:
            self.add = [[field.add(a, b) for b in range(q)] for a in range(q)]
            self.mul = _mul_table(field)
        else:
            self.add, self.mul = _Computed(field.add), _Computed(field.mul)
        self.neg = [field.neg(a) for a in range(q)]
        self._lift, self._total = row_arithmetic(field, self.mul, self.add)
        self._targets = {}    # node -> (gather list, RebuildPlan)
        self._decoders = {}   # erased pattern -> gather lists of its systematic columns

    # -- the kernel -----------------------------------------------------------

    def run(self, gathers, cols, nstripes: int) -> list:
        """Apply one gather list per output column to every stripe of the node
        columns `cols`; returns the output columns.  Each term is applied
        once, to its row vector of all stripes.  Only the cells the terms
        name are read, so lost nodes may be None in `cols`."""
        t, lift, total = nstripes, self._lift, self._total
        outs = []
        for gather in gathers:
            out = zero_column(self.field.q, t * self.p)
            for x, terms in enumerate(gather):
                out[x * t:(x + 1) * t] = total(
                    [lift(cols[node][row * t:(row + 1) * t], c) for node, row, c in terms], t)
            outs.append(out)
        return outs

    # -- operations -----------------------------------------------------------

    def encode(self, cols, nstripes: int) -> list:
        """The r parity columns of the k information columns."""
        return self.run(self.parity, cols, nstripes)

    def syndrome(self, cols, nstripes: int) -> list:
        """Per parity, recomputed minus stored parity; all zero exactly on
        consistent stripes."""
        return self.run(self._syndrome, cols, nstripes)

    def rebuild_plan(self, node: int) -> RebuildPlan:
        return self._target(node)[1]

    def decode(self, cols, nstripes: int, erased):
        """Fill in, in place, the entries of `cols` for the erased nodes from
        the surviving columns.

        Erased systematic columns come from the pattern's decode map, then
        erased parities are encoded again.  Raises SingularMatrixError when
        the surviving columns do not determine the erased ones.
        """
        erased = tuple(sorted(erased))
        lost = [c for c in erased if c < self.k]
        parities = [c for c in erased if c >= self.k]
        if lost:
            if erased not in self._decoders:
                self._decoders[erased] = self._decoder(erased)
            for node, col in zip(lost, self.run(self._decoders[erased], cols, nstripes)):
                cols[node] = col
        gathers = [self.parity[c - self.k] for c in parities]
        for node, col in zip(parities, self.run(gathers, cols, nstripes)):
            cols[node] = col

    def repair(self, cols, nstripes: int, erased=()):
        """Decode the e erased columns of `cols`, then, while e < r, check
        every stripe with the parity left over.  While e + 2 <= r, each
        inconsistent stripe is corrected in place by the first surviving node
        j whose decode with the erasures makes it consistent; two such answers
        would differ in at most e + 2 < r + 1 columns, so there is only one.
        Each candidate j is tried once, on the inconsistent stripes not yet
        corrected, gathered into columns of their own.  Returns
        ({stripe: corrected node}, the first uncorrectable stripe or None)."""
        erased = tuple(erased)
        e = len(erased)
        self.decode(cols, nstripes, erased)
        fixed = {}
        if e >= self.r:
            return fixed, None
        bad = self._inconsistent(cols, nstripes)
        candidates = [j for j in range(self.n) if j not in erased] if e + 2 <= self.r else []
        for j in candidates:
            if not bad:
                break
            nodes, count = erased + (j,), len(bad)
            trial = [None if node in nodes else self._stripes(col, bad, nstripes)
                     for node, col in enumerate(cols)]
            self.decode(trial, count, nodes)
            still = set(self._inconsistent(trial, count))
            for i, t in enumerate(bad):
                if i not in still:
                    for node in nodes:
                        cols[node][t::nstripes] = trial[node][i::count]
                    fixed[t] = j
            bad = [t for i, t in enumerate(bad) if i in still]
        return fixed, (bad[0] if bad else None)

    def _inconsistent(self, cols, nstripes: int) -> list:
        """The stripes of `cols` with a nonzero syndrome, in order."""
        syndromes = self.syndrome(cols, nstripes)
        zero = zero_column(self.field.q, self.p)
        return [t for t in range(nstripes)
                if any(s[t::nstripes] != zero for s in syndromes)]

    def _stripes(self, col, stripes, nstripes: int):
        """The column of the given stripes of `col`, a column of nstripes."""
        count = len(stripes)
        out = zero_column(self.field.q, count * self.p)
        for i, t in enumerate(stripes):
            out[i::count] = col[t::nstripes]
        return out

    # -- construction ---------------------------------------------------------

    @cached_property
    def _zigzags(self) -> list:
        """zigzags[v][s][z]: the row of a column with family vector v that
        feeds set z of parity s, z - s*v digit by digit, built by one product
        over the digits."""
        r = self.r
        out = []
        for vector in self.spec.family.vectors:
            per_parity = []
            for sidx in range(r):
                rows = [0]
                for d_v in vector.digits:
                    rows = [a * r + (d - sidx * d_v) % r for a in rows for d in range(r)]
                per_parity.append(rows)
            out.append(per_parity)
        return out

    @cached_property
    def parity(self) -> list:
        """Per parity, the gather list of its zigzag sets: entry z lists the
        members of set z, one (column, row, coefficient) per information
        column, in column order."""
        spec, s, zigzags = self.spec, self.spec.s, self._zigzags
        out = []
        for sidx in range(self.r):
            sets = []
            for z in range(self.p):
                members = []
                for col in range(self.k):
                    y = zigzags[col // s][sidx][z]
                    members.append((col, y, spec.coefficient(y, col, sidx)))
                sets.append(members)
            out.append(sets)
        return out

    @cached_property
    def _syndrome(self) -> list:
        minus_one = self.neg[1]
        return [[terms + [(self.k + sidx, z, minus_one)] for z, terms in enumerate(gather)]
                for sidx, gather in enumerate(self.parity)]

    def _target(self, node: int):
        if node not in self._targets:
            self._targets[node] = self._build_target(node)
        return self._targets[node]

    def _build_target(self, j: int):
        """(gather list, RebuildPlan) for one node.  A parity is encoded
        again from every information cell.  Row x of a systematic column is
        read through the one parity s whose access set holds it:
        x = inv(c_x) * (parity cell - sum of the other cells of its set), with
        inv(c_x) folded into every coefficient."""
        p, k, mul, neg = self.p, self.k, self.mul, self.neg
        if j >= k:
            return self.parity[j - k], RebuildPlan(j, {c: tuple(range(p)) for c in range(k)})
        gather = [None] * p
        touched = {}
        for sidx, sets in enumerate(self.parity):
            rows = self.spec.access_rows(j, sidx)
            for z, members in enumerate(sets):
                _, x, cx = members[j]
                if x not in rows:
                    continue
                ic = self.field.inv(cx)
                minus_ic = mul[neg[ic]]
                terms = [(k + sidx, z, ic)]
                terms += [(col, y, minus_ic[c]) for col, y, c in members if col != j]
                gather[x] = terms
                for node, row, _ in terms:
                    touched.setdefault(node, set()).add(row)
        access = {node: tuple(sorted(rows)) for node, rows in touched.items()}
        return gather, RebuildPlan(j, access)

    def _equations(self, erased):
        """(rows, U): one sparse row ({column: coefficient}) per surviving
        parity cell, in parity order, saying that its zigzag set minus the
        parity cell sums to zero.  The U cells of the erased systematic
        columns are the unknowns, columns [0, U); surviving cell (node, row)
        is column U + node * p + row."""
        p, k = self.p, self.k
        slot = {col: i for i, col in enumerate(c for c in erased if c < k)}
        unknowns = len(slot) * p
        minus_one = self.neg[1]
        rows = []
        for sidx, sets in enumerate(self.parity):
            if k + sidx in erased:
                continue
            for z, members in enumerate(sets):
                row = {unknowns + (k + sidx) * p + z: minus_one}
                for col, y, c in members:
                    row[slot[col] * p + y if col in slot else unknowns + col * p + y] = c
                rows.append(row)
        return rows, unknowns

    def _eliminate(self, rows, unknowns: int) -> dict:
        """Gauss-Jordan on sparse rows, pivoting only on the unknown columns
        [0, unknowns); the rows are consumed.  Returns {unknown: pivot row}:
        its own coefficient 1, no other pivot's unknown.  A row left with no
        unknown is dropped, so the rank is the number of pivots."""
        add, mul, neg = self.add, self.mul, self.neg

        def subtract(row, f, pivot):
            """row -= f * pivot, which clears the pivot's unknown from row."""
            mrow = mul[neg[f]]
            for col, c in pivot.items():
                v = add[row.get(col, 0)][mrow[c]]
                if v:
                    row[col] = v
                else:
                    del row[col]

        pivots = {}
        for row in rows:
            for u in [u for u in row if u in pivots]:
                subtract(row, row[u], pivots[u])
            free = [u for u in row if u < unknowns]
            if not free:
                continue
            u = min(free)
            scale = mul[self.field.inv(row[u])]
            row = {col: scale[c] for col, c in row.items()}
            for prow in pivots.values():
                if u in prow:
                    subtract(prow, prow[u], row)
            pivots[u] = row
        return pivots

    def decodable(self, erased) -> bool:
        """Whether the surviving columns determine the erased ones: full
        rank of the pattern's equations in its unknowns."""
        rows, unknowns = self._equations(erased)
        return len(self._eliminate(rows, unknowns)) == unknowns

    def _decoder(self, erased):
        """Gather lists of the erased systematic columns, each cell a
        combination of surviving cells.  One node is read through its
        rebuild gather.  Otherwise each unknown u's pivot row reads
        u + sum(c * s) = 0 over surviving cells s, so u = sum(-c * s)."""
        if len(erased) == 1:
            return [self._target(erased[0])[0]]
        p, neg = self.p, self.neg
        rows, unknowns = self._equations(erased)
        pivots = self._eliminate(rows, unknowns)
        if len(pivots) < unknowns:
            raise SingularMatrixError(f"erasure pattern {list(erased)} is not decodable")
        cells = [[(*divmod(col - unknowns, p), neg[c])
                  for col, c in sorted(pivots[u].items()) if col != u]
                 for u in range(unknowns)]
        return [cells[i:i + p] for i in range(0, unknowns, p)]

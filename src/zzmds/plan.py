"""A code compiled once into integers: arithmetic tables, gather lists, and the
one kernel that runs them over stripes.

Everything here follows from the structural `Field` and `CodeSpec` alone,
never from the data, so it is built once per spec (`CodeSpec.plan`, on first
use) instead of once per stripe or cell.  Each command builds its own spec,
so it compiles only what it runs: the field tables (add, mul, neg, inv and
the row primitives) always; the zigzag lists and the coefficient table's
columns read at them; then the parity gathers for encode, syndromes and
decode maps, or one node's rebuild gather.  Each is built in bulk, never
with a call per cell or per byte value: the tables from the field's `exp`,
`log`, `char` and `degree` by translates, slices and whole-table
comprehensions, and the gathers by `zip` transposes of whole columns.

A node column is laid out as its node file (`zzmds.files`, which defines
the column form): over T stripes, row x of every stripe is the row vector
col[x*T:(x+1)*T], and stripe t is the strided col[t::T].  A gather list
computes one output column: entry x lists the (node, row, coefficient)
terms of output row x, the field sum of coefficient * column[node][row].  A
term is the same in every stripe, so the kernel applies it once to the row
vector of all stripes.  Encode, syndrome, rebuild (the decode of one node)
and decode are all gather lists; they differ only in the cells they read and
the coefficients they read them with.  `repair` is decode plus the check of
the parity left over, and locates a corrupted column by trial decodes that
the syndromes prune.  With nothing erased, syndrome 0 is nonzero exactly on
a corrupted systematic column's bad rows, and every other syndrome only on
the sets that its zigzag permutation maps them to, while a corrupted parity
leaves only its own syndrome nonzero; so the syndromes' nonzero cells name
the column.

This is the library's interface to every operation, for any number of
stripes (one stripe is T = 1).  Columns come from `files.zero_column` or
`files.as_column` and must hold field symbols; lost nodes are None.  The
plan checks neither the column form nor the symbols (`files.read_columns`,
the one reader of an encoded directory's node files, does), and `decode`
and `repair` fill in `cols` in place.

A decode of several nodes runs syndrome first.  With the erased columns
read as zero, the syndrome cell of each surviving zigzag set is the known
part of that set's equation, so the erased cells are combinations of
syndrome cells alone.  The one sparse elimination here, forward only,
brings the pattern's equations in its erased cells to triangular form, on
the same tables; the number of pivot rows is the rank `verify_mds` checks.
The pattern's decode map is these pivot rows as a back-substitution: each
erased cell reads syndrome cells and the later erased cells, which the
kernel has solved first.  The zigzag sets split the erased cells into
independent blocks, and each cell reads only its own block's cells (687
terms per stripe for three lost columns of r3 m=3).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import cached_property, reduce
from itertools import repeat
from operator import or_, xor
from typing import NamedTuple

from .files import as_column, symbol_width, zero_column
from .perms import access_sets

# Fields up to this size get materialised q x q tables (two of at most 65536
# entries).  Larger ones, which only explicit prime-field configs reach, read
# the same rows computed on access instead.
TABLE_MAX_Q = 256

# Maps every nonzero byte to 1: a syndrome's bytes as lanes of 0/1.
_NONZERO = bytes([0] + [1] * 255)

# Every byte value twice, for `_plus`.
_RAMP = bytes(range(256)) * 2


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


def _plus(c: int) -> bytes:
    """The translate table that adds c to every byte (mod 256)."""
    return _RAMP[c:c + 256]


def _positional(digit: bytes, count: int, weight: int) -> bytes:
    """The table over strings of `count` indices into `digit`, least
    significant first, whose entry sums digit[e_i] * weight**i: one translate
    of the table so far per value of the next, more significant, index."""
    out = digit
    for i in range(1, count):
        out = b"".join(out.translate(_plus(d * weight ** i)) for d in digit)
    return out


def _add_table(field):
    """The q x q sum table, digit by digit.  With a = t*size + a' and b =
    u*size + b' (a', b' below size = char^i), a + b = ((t + u) % char) *
    size + (a' + b'), so row a is the rows of a' shifted by each top digit in
    turn: a rotation of one concatenation per row of a'."""
    char, rows, size = field.char, [b"\0"], 1
    for _ in range(field.degree):
        joined = [b"".join(row.translate(_plus(v * size)) for v in range(char)) * 2
                  for row in rows]
        rows = [row[t * size:(t + char) * size] for t in range(char) for row in joined]
        size *= char
    return [list(row) for row in rows]


def _mul_table(field):
    """The q x q product table, through the field's discrete logarithms: row
    a is exp read from log a on, indexed by log b, so one translate of the
    logs of 1..q-1."""
    q, log = field.q, field.log
    powers, logs, pad = bytes(field.exp) * 2, bytes(log[1:]), bytes(257 - q)
    return [[0] * q] + [[0, *logs.translate(powers[e:e + q - 1] + pad)] for e in logs]


def _negations(field) -> list:
    """neg[a] = -a, digit by digit."""
    char, neg = field.char, [0]
    for i in range(field.degree):
        neg = [d * char ** i + x for d in (0, *range(char - 1, 0, -1)) for x in neg]
    return neg


def _inverses(field) -> list:
    """inv[a] = 1/a, exp read backwards at log a (inv[0] is 0)."""
    exp = field.exp
    backwards = exp[:1] + exp[:0:-1]
    return [0, *[backwards[e] for e in field.log[1:]]]


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
    The lane tables are built by `_positional` from one digit's table.
    """
    q, char, degree = field.q, field.char, field.degree
    bits = 8 // degree
    terms = (2 ** bits - 1) // (char - 1)
    big_ints = q <= TABLE_MAX_Q and (char == 2 or terms >= 2)
    if q <= TABLE_MAX_Q:
        pad = bytes(256 - q)
        lanes = (_positional(bytes(range(char)), degree, 2 ** bits) + pad
                 if big_ints and char > 2 else bytes(range(256)))
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

    # each bits-wide field of a byte reduced mod char, as a digit of the result
    field_digits = (bytes(range(char)) * (2 ** bits // char + 1))[:2 ** bits]
    final = _positional(field_digits, degree, char)
    final *= 256 // len(final)
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
            self.add, self.mul = _add_table(field), _mul_table(field)
        else:
            self.add, self.mul = _Computed(field.add), _Computed(field.mul)
        self.neg, self.inv = _negations(field), _inverses(field)
        self._lift, self._total = row_arithmetic(field, self.mul, self.add)
        self._targets = {}    # node -> (gather list, RebuildPlan)
        self._decoders = {}   # erased pattern -> its decode map, a chain of gather lists

    # -- the kernel -----------------------------------------------------------

    def run(self, gathers, cols, nstripes: int) -> list:
        """Apply one gather list per output column to every stripe of the node
        columns `cols`; returns the output columns.  Each term is applied
        once, to its row vector of all stripes.  Only the cells the terms
        name are read, so lost nodes may be None in `cols`.  A term's node
        len(cols) + i names output i of this call.  The outputs are filled
        last first, each from its last row up, so such a term may read a row
        of a later output or a later row of its own, which is already
        computed."""
        t, lift, total = nstripes, self._lift, self._total
        outs = [zero_column(self.field.q, t * self.p) for _ in gathers]
        src = [*cols, *outs]
        for gather, out in zip(reversed(gathers), reversed(outs)):
            for x in reversed(range(len(gather))):
                out[x * t:(x + 1) * t] = total(
                    [lift(src[node][row * t:(row + 1) * t], c) for node, row, c in gather[x]], t)
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

        Erased systematic columns come from the pattern's decode map, a chain
        of gather lists that each read the previous one's output (and the
        last, its own solved rows), the first reading `cols`.  Erased
        parities are then encoded again.  Raises SingularMatrixError when
        the surviving columns do not determine the erased ones.
        """
        erased = tuple(sorted(erased))
        lost = [c for c in erased if c < self.k]
        parities = [c for c in erased if c >= self.k]
        if lost:
            if erased not in self._decoders:
                self._decoders[erased] = self._decoder(erased)
            out = cols
            for gathers in self._decoders[erased]:
                out = self.run(gathers, out, nstripes)
            for node, col in zip(lost, out):
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
        corrected, gathered into columns of their own.  With nothing erased,
        the syndromes first rule out every (j, stripe) pair whose trial could
        not pass (`_explained`), so j is tried only on the stripes it could
        explain, and not at all when there are none.  Returns
        ({stripe: corrected node}, the first uncorrectable stripe or None)."""
        erased = tuple(erased)
        e = len(erased)
        self.decode(cols, nstripes, erased)
        fixed = {}
        if e >= self.r:
            return fixed, None
        syndromes = self.syndrome(cols, nstripes)
        bad = self._inconsistent(syndromes, nstripes)
        if not bad or e + 2 > self.r:
            return fixed, (bad[0] if bad else None)
        if not e:
            explained = self._explained(syndromes, nstripes)
        for j in range(self.n):
            if not bad:
                break
            if j in erased:
                continue
            tries = bad
            if not e:
                tries = [t for t in bad if explained[j][t]]
                if not tries:
                    continue
            nodes, count = erased + (j,), len(tries)
            trial = [None if node in nodes else self._stripes(col, tries, nstripes)
                     for node, col in enumerate(cols)]
            self.decode(trial, count, nodes)
            still = set(self._inconsistent(self.syndrome(trial, count), count))
            for i, t in enumerate(tries):
                if i not in still:
                    for node in nodes:
                        cols[node][t::nstripes] = trial[node][i::count]
                    fixed[t] = j
            bad = [t for t in bad if t not in fixed]
        return fixed, (bad[0] if bad else None)

    def _inconsistent(self, syndromes, nstripes: int) -> list:
        """The stripes with a nonzero syndrome, in order.  Every row extent of
        every syndrome is read as one big int and OR-ed into one, whose lane t
        is nonzero exactly when stripe t is inconsistent."""
        width = symbol_width(self.field.q)
        size = nstripes * width
        acc = 0
        for s in syndromes:
            extents = memoryview(s).cast("B")
            for x in range(self.p):
                acc |= int.from_bytes(extents[x * size:(x + 1) * size], "little")
        for _ in range(width - 1):
            acc |= acc >> 8       # a lane's high byte into its low byte
        return [t for t, v in enumerate(acc.to_bytes(size, "little")[::width]) if v]

    def _lane_masks(self, syndromes, nstripes: int) -> list:
        """masks[s][z]: syndrome s at set z of every stripe as one int whose
        lane t (a symbol's bytes) is 1 when that cell of stripe t is nonzero
        and 0 when it is zero."""
        width = symbol_width(self.field.q)
        size = nstripes * width
        ones = int.from_bytes((b"\1" + bytes(width - 1)) * nstripes, "little")
        masks = []
        for s in syndromes:
            flat = bytes(s).translate(_NONZERO)
            rows = []
            for z in range(self.p):
                v = int.from_bytes(flat[z * size:(z + 1) * size], "little")
                for i in range(1, width):
                    v |= v >> 8 * i
                rows.append(v & ones)
            masks.append(rows)
        return masks

    def _explained(self, syndromes, nstripes: int) -> list:
        """Per node, one byte per stripe, nonzero on the inconsistent stripes
        whose syndromes (nothing erased) it could explain as its one
        corrupted column; a trial of the node on any other stripe cannot
        pass.  The tests below are big-int operations on `_lane_masks`.

        An error E in systematic column j leaves syndrome 0 equal to E (its
        coefficients are 1), and syndrome s >= 1 at set z equal to c * E[y],
        for the row y of j that feeds set z with coefficient c, never zero.
        So j explains stripe t only if, in lane t, masks[s][z] equals
        masks[0][y] for every s >= 1 and z.  Parity k + s explains stripe t
        only if every other syndrome is zero there."""
        masks = self._lane_masks(syndromes, nstripes)
        anywhere = [reduce(or_, rows) for rows in masks]
        inconsistent, syndrome0 = reduce(or_, anywhere), masks[0]
        ruled_out = []
        for j in range(self.k):
            acc = 0
            for sidx in range(1, self.r):
                for mask, members in zip(masks[sidx], self.parity[sidx]):
                    _, y, _ = members[j]
                    acc |= mask ^ syndrome0[y]
            ruled_out.append(acc)
        for sidx in range(self.r):
            ruled_out.append(reduce(or_, anywhere[:sidx] + anywhere[sidx + 1:]))
        width = symbol_width(self.field.q)
        return [(inconsistent & ~acc).to_bytes(nstripes * width, "little")[::width]
                for acc in ruled_out]

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
        feeds set z of parity s, z - s*v digit by digit; parity 0 is the
        identity.  Built from the last digit up, one comprehension per digit:
        each value of the digit, rotated by -s*v there, heads a copy of the
        list so far.  Parity -s's list inverts parity s's: it maps row x to
        its set x + s*v."""
        r, p = self.r, self.p
        rings = [[(d + o) % r for d in range(r)] for o in range(r)]
        out = []
        for vector in self.spec.family.vectors:
            per_parity = [list(range(p))]
            for sidx in range(1, r):
                rows, weight = [0], 1
                for d_v in reversed(vector.digits):
                    rows = [c + x for c in [b * weight for b in rings[-sidx * d_v % r]]
                            for x in rows]
                    weight *= r
                per_parity.append(rows)
            out.append(per_parity)
        return out

    @cached_property
    def _columns(self) -> list:
        """columns[s][col]: information column col's part in parity s, as
        (rows, coefficients), both indexed by set z: its zigzag list, and the
        coefficient table's column col read at those rows."""
        s, k, zigzags = self.spec.s, self.k, self._zigzags
        out = [[(zigzags[col // s][0], (1,) * self.p) for col in range(k)]]
        for sidx, table in enumerate(self.spec.coeffs, 1):
            rows = [zigzags[col // s][sidx] for col in range(k)]
            out.append([(ys, [by_row[y] for y in ys]) for ys, by_row in zip(rows, zip(*table))])
        return out

    @cached_property
    def parity(self) -> list:
        """Per parity, the gather list of its zigzag sets: entry z lists the
        members of set z, one (column, row, coefficient) per information
        column, in column order.  This is `_columns` transposed."""
        return [list(zip(*(zip(repeat(col), ys, cs) for col, (ys, cs) in enumerate(columns))))
                for columns in self._columns]

    @cached_property
    def _syndrome(self) -> list:
        minus_one = self.neg[1]
        return [[(*terms, (self.k + sidx, z, minus_one)) for z, terms in enumerate(gather)]
                for sidx, gather in enumerate(self.parity)]

    def _target(self, node: int):
        if node not in self._targets:
            self._targets[node] = self._build_target(node)
        return self._targets[node]

    def _build_target(self, j: int):
        """(gather list, RebuildPlan) for one node.  A parity is encoded
        again from every information cell.  Row x of a systematic column is
        read through the one parity s whose access set holds it, from its
        set z = x + s*v: x = inv(c_x) * (parity cell - sum of the other cells
        of the set), with -inv(c_x) folded into every other coefficient.  The
        access sets come from one walk over the rows, and each parity's
        terms are gathered column by column from `_columns`, then transposed
        into rows; the parity gathers themselves are not needed."""
        p, k, r, inv, neg, mul = self.p, self.k, self.r, self.inv, self.neg, self.mul
        if j >= k:
            return self.parity[j - k], RebuildPlan(j, {c: tuple(range(p)) for c in range(k)})
        family, v = self.spec.family, j // self.spec.s
        gather, touched = [None] * p, {}
        for sidx, rows in enumerate(access_sets(family.vectors[v], family.is_zero(v))):
            columns, forward = self._columns[sidx], self._zigzags[v][-sidx % r]
            zs = [forward[x] for x in rows]
            inverses = [inv[columns[j][1][z]] for z in zs]
            scales = [mul[neg[ic]] for ic in inverses]
            parts = [zip(repeat(k + sidx), zs, inverses)]
            touched[k + sidx] = zs
            for col, (ys, cs) in enumerate(columns):
                if col != j:
                    read = [ys[z] for z in zs]
                    touched.setdefault(col, set()).update(read)
                    parts.append(zip(repeat(col), read,
                                     [scale[cs[z]] for scale, z in zip(scales, zs)]))
            for x, terms in zip(rows, zip(*parts)):
                gather[x] = terms
        access = {node: tuple(sorted(rows)) for node, rows in touched.items()}
        return gather, RebuildPlan(j, access)

    def _equations(self, erased):
        """(rows, U): one sparse row ({column: coefficient}) per surviving
        parity cell, in parity order, saying that its zigzag set minus the
        parity cell sums to zero.  The U cells of the erased systematic
        columns are the unknowns, columns [0, U).  The rest of the set is
        known: it is the set's syndrome cell with the erased columns read as
        zero, column U + a * p + z with coefficient 1 for set z of the a-th
        surviving parity."""
        p, k = self.p, self.k
        slot = {col: i for i, col in enumerate(c for c in erased if c < k)}
        unknowns = len(slot) * p
        alive = [sidx for sidx in range(self.r) if k + sidx not in erased]
        rows = []
        for a, sidx in enumerate(alive):
            for z, members in enumerate(self.parity[sidx]):
                row = {slot[col] * p + y: c for col, y, c in members if col in slot}
                row[unknowns + a * p + z] = 1
                rows.append(row)
        return rows, unknowns

    def _eliminate(self, rows, unknowns: int) -> dict:
        """Forward elimination on sparse rows, pivoting only on the unknown
        columns [0, unknowns); the rows are consumed.  Each row in turn has
        its first unknown cleared by that unknown's pivot row, until its
        first unknown has none and the row, scaled, becomes it.  Returns
        {unknown: pivot row}: its own coefficient 1 and, of the other
        unknowns, only later ones.  A row left with no unknown is dropped, so
        the rank is the number of pivots."""
        add, mul, neg = self.add, self.mul, self.neg
        pivots = {}
        for row in rows:
            while free := [u for u in row if u < unknowns]:
                u = min(free)
                if u not in pivots:
                    scale = mul[self.inv[row[u]]]
                    pivots[u] = {col: scale[c] for col, c in row.items()}
                    break
                mrow = mul[neg[row[u]]]
                for col, c in pivots[u].items():      # row -= row[u] * pivot
                    v = add[row.get(col, 0)][mrow[c]]
                    if v:
                        row[col] = v
                    else:
                        del row[col]
        return pivots

    def decodable(self, erased) -> bool:
        """Whether the surviving columns determine the erased ones: full
        rank of the pattern's equations in its unknowns."""
        rows, unknowns = self._equations(erased)
        return len(self._eliminate(rows, unknowns)) == unknowns

    def _decoder(self, erased):
        """The decode map of a pattern: gather lists that `decode` chains to
        give its erased systematic columns.  One node is read through its
        rebuild gather alone.  Otherwise the map is two gathers.  The first
        computes the surviving parities' syndromes with the erased columns
        read as zero.  The second is a back-substitution: each unknown u's
        pivot row reads u + sum(c * later unknown) + sum(c * syndrome cell)
        = 0, so u's terms are the negated coefficients, read off the
        syndromes and off the output rows of later unknowns, which `run`
        fills first.  The zigzag sets split the unknowns into independent
        blocks, so each unknown reads only its own block's cells."""
        if len(erased) == 1:
            return [[self._target(erased[0])[0]]]
        p, neg = self.p, self.neg
        rows, unknowns = self._equations(erased)
        pivots = self._eliminate(rows, unknowns)
        if len(pivots) < unknowns:
            raise SingularMatrixError(f"erasure pattern {list(erased)} is not decodable")
        syndrome = [[[term for term in terms if term[0] not in erased] for terms in gather]
                    for sidx, gather in enumerate(self._syndrome) if self.k + sidx not in erased]
        # known column unknowns + a*p + z is input a, row z; unknown v is
        # row v % p of output v // p, which follows the inputs
        inputs = len(syndrome) * p
        solve = [[(*divmod(col - unknowns if col >= unknowns else inputs + col, p), neg[c])
                  for col, c in sorted(pivots[u].items()) if col != u]
                 for u in range(unknowns)]
        return [syndrome, [solve[i:i + p] for i in range(0, unknowns, p)]]

"""Brute-force reference computations the tests check the library against.

Everything here recomputes results from first principles: explicit set
construction, definitional sums, exhaustive search.  None of it calls the
code paths under test beyond reading plain data (vectors, coefficients).
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd


def power(field, a, e):
    """a**e by square-and-multiply over the structural `Field.mul`, with a
    signed exponent reduced mod q-1 for nonzero a (Fermat)."""
    if a == 0:
        if e < 0:
            raise ValueError("negative power of zero")
        return 0 if e else 1
    e %= field.q - 1
    out, base = 1, a
    while e:
        if e & 1:
            out = field.mul(out, base)
        base = field.mul(base, base)
        e >>= 1
    return out


def digits_of(x, r, m):
    out = [0] * m
    for i in range(m - 1, -1, -1):
        out[i] = x % r
        x //= r
    return tuple(out)


def int_of(digits, r):
    v = 0
    for d in digits:
        v = v * r + d
    return v


def shift(x, vd, i, r, m):
    """Row x moved by i*v, recomputed digit by digit."""
    xd = digits_of(x, r, m)
    return int_of([(a + i * b) % r for a, b in zip(xd, vd)], r)


def dot_rows(x, vd, r, m):
    xd = digits_of(x, r, m)
    return sum(a * b for a, b in zip(xd, vd)) % r


def explicit_access_set(vd, s, r, m, zero_special=False):
    if zero_special:
        return frozenset(x for x in range(r ** m)
                         if dot_rows(x, (1,) * m, r, m) == s)
    return frozenset(x for x in range(r ** m)
                     if dot_rows(x, vd, r, m) == (-s) % r)


def explicit_transfer(vd, ud, i, r, m, v_zero=False):
    """f_u^-i(f_v^i(X_v^i)) with every step spelled out."""
    xs = explicit_access_set(vd, i, r, m, zero_special=v_zero)
    moved = {shift(x, vd, i, r, m) for x in xs}
    neg_u = tuple((-c) % r for c in ud)
    return frozenset(shift(y, neg_u, i, r, m) for y in moved)


def perm_apply(v, i, x):
    """Row x moved by i*v, the zigzag permutation of parity i."""
    return shift(x, v.digits, i, v.r, v.m)


def perm_unapply(v, i, x):
    """Row x moved back by i*v: the inverse of `perm_apply`."""
    return shift(x, v.digits, -i, v.r, v.m)


def intersection_size(v, u, i, j):
    """The closed form of |f_u^-i(f_v^i(X_v^i)) n f_u^-j(f_v^j(X_v^j))|.

    The two sets are cosets of the same subgroup: identical when
    (i-j) * (v.(v-u) - 1) = 0 mod r, disjoint otherwise.  Both vectors must
    be nonzero and admissible.
    """
    r = v.r
    for w in (v, u):
        if not any(w.digits) or gcd(r, *w.digits) != 1:
            raise ValueError("closed form applies to nonzero admissible vectors only")
    pair = (sum(a * (a - b) for a, b in zip(v.digits, u.digits)) - 1) % r
    return r ** (v.m - 1) if (i - j) * pair % r == 0 else 0


def orthogonality_violations(family):
    """The (v index, u index, parity i) triples with f_u^i(X_v^0) !=
    f_v^i(X_v^i), by explicit sets over every ordered pair of members; an
    orthogonal family has none."""
    r, m = family.r, family.m
    out = []
    for vi, v in enumerate(family.vectors):
        zero = vi == family.zero_index
        base = explicit_access_set(v.digits, 0, r, m, zero_special=zero)
        for ui, u in enumerate(family.vectors):
            if ui == vi:
                continue
            for i in range(r):
                left = {shift(x, u.digits, i, r, m) for x in base}
                right = {shift(x, v.digits, i, r, m)
                         for x in explicit_access_set(v.digits, i, r, m, zero_special=zero)}
                if left != right:
                    out.append((vi, ui, i))
    return out


def support(vd):
    return {i + 1 for i, d in enumerate(vd) if d}


def support_difference(vd, ud):
    return len(support(vd) - support(ud))


def overlap_r2(vd, ud, m):
    """|f_v(X_v) n f_u(X_v)| over F_2 by explicit sets."""
    xs = explicit_access_set(vd, 0, 2, m)
    fv = {shift(x, vd, 1, 2, m) for x in xs}
    fu = {shift(x, ud, 1, 2, m) for x in xs}
    return len(fv & fu)


def copy_index(spec, col):
    """Which copy of its family vector systematic column col is."""
    return col % spec.s


def vector_for(spec, col):
    """Digits of the family vector behind systematic column col."""
    return spec.family.vectors[col // spec.s].digits


def zigzag_index(spec, row, col, sidx):
    """Which parity-sidx set the cell (row, col) belongs to: row moved by sidx
    times its column's vector."""
    return shift(row, vector_for(spec, col), sidx, spec.r, spec.m)


def source_row(spec, zidx, col, sidx):
    """The row of column col that feeds parity-sidx set zidx: the inverse of
    `zigzag_index`."""
    return shift(zidx, vector_for(spec, col), -sidx, spec.r, spec.m)


def ratio_formula_terms(spec):
    """Rows read in column u beyond the p/r minimum when rebuilding column v,
    for each ordered pair of family members of an s = 1 code: the union over
    parities i of f_u^-i(f_v^i(X_v^i)), by explicit sets."""
    if spec.s != 1:
        raise ValueError("formula terms are defined for s=1 codes")
    fam, r, m = spec.family, spec.r, spec.m
    return [[0 if ui == vi else
             len(frozenset().union(*(explicit_transfer(v.digits, u.digits, i, r, m,
                                                       v_zero=vi == fam.zero_index)
                                     for i in range(r)))) - spec.p // r
             for ui, u in enumerate(fam.vectors)]
            for vi, v in enumerate(fam.vectors)]


def asymptotic_ratio(family_kind, m, w=None, r=2):
    """The paper's large-m rebuild ratios: 1/r for the standard family,
    1/2 + w^2/(2m) for block-weight families."""
    if family_kind == "standard":
        return Fraction(1, r)
    if family_kind == "weightw":
        if w is None:
            raise ValueError("weightw asymptotic needs w")
        return Fraction(1, 2) + Fraction(w * w, 2 * m)
    raise ValueError(f"no asymptotic form for family {family_kind!r}")


def parity_by_definition(spec, info, sidx):
    """Parity column recomputed straight from the set definitions."""
    p = spec.p
    out = [0] * p
    f = spec.field
    for col in range(spec.k):
        for row in range(p):
            target = zigzag_index(spec, row, col, sidx)
            out[target] = f.add(out[target],
                                f.mul(spec.coefficient(row, col, sidx), info[row][col]))
    return out


def run_by_cells(spec, gathers, cols, nstripes):
    """`CodePlan.run` one stripe and one cell at a time, over the structural
    field: output row x of stripe t is the sum of c * cols[node][row*T + t]
    over the (node, row, c) terms of gather entry x, with T = nstripes.  A
    node past the end of `cols` is an output of the same call, read as far
    as it is filled: outputs last first, each from its last row up.
    Columns are row-major symbol lists."""
    p, f = spec.p, spec.field
    outs = [[0] * (nstripes * p) for _ in gathers]
    src = list(cols) + outs
    for gather, out in zip(reversed(gathers), reversed(outs)):
        for x in reversed(range(len(gather))):
            for t in range(nstripes):
                acc = 0
                for node, row, c in gather[x]:
                    acc = f.add(acc, f.mul(c, src[node][row * nstripes + t]))
                out[x * nstripes + t] = acc
    return outs


def _set_members(spec, zidx, sidx):
    """(column, row, coefficient) of each information cell in parity-sidx
    set zidx."""
    out = []
    for col in range(spec.k):
        y = source_row(spec, zidx, col, sidx)
        out.append((col, y, spec.coefficient(y, col, sidx)))
    return out


def _survivor_maps(spec, pattern):
    """Each erased information cell (col, row), in column-major order, as
    {surviving (node, row): coefficient}, or None if the pattern is not
    decodable.

    One lost information column is read row by row through the one parity
    whose access set holds the row.  Otherwise the surviving parity
    equations are taken in parity order, and each is kept if its erased
    part is independent of those kept before; Gauss-Jordan on the kept ones
    expresses each erased cell over surviving cells."""
    f, p, k = spec.field, spec.p, spec.k
    lost = [c for c in pattern if c < k]
    if len(pattern) == 1:
        (j,) = lost
        vd, zero = vector_for(spec, j), j // spec.s == spec.family.zero_index
        out = []
        for x in range(p):
            sidx = next(s for s in range(spec.r)
                        if x in explicit_access_set(vd, s, spec.r, spec.m, zero))
            zidx = zigzag_index(spec, x, j, sidx)
            ic = power(f, spec.coefficient(x, j, sidx), -1)
            cell = {(k + sidx, zidx): ic}
            for col, y, c in _set_members(spec, zidx, sidx):
                if col != j:
                    cell[(col, y)] = f.neg(f.mul(ic, c))
            out.append(cell)
        return out
    unknowns = [(col, row) for col in lost for row in range(p)]
    index = {cell: u for u, cell in enumerate(unknowns)}
    pivots = []   # (unknown, dense erased part, {surviving cell: coefficient})
    for sidx in range(spec.r):
        if k + sidx in pattern:
            continue
        for zidx in range(p):
            part, known = [0] * len(unknowns), {(k + sidx, zidx): f.neg(1)}
            for col, y, c in _set_members(spec, zidx, sidx):
                if (col, y) in index:
                    part[index[(col, y)]] = c
                else:
                    known[(col, y)] = c
            for u, prow, pknown in pivots:
                if part[u]:
                    _subtract(f, part, known, part[u], prow, pknown)
            free = [u for u, c in enumerate(part) if c]
            if not free:
                continue
            u = free[0]
            scale = power(f, part[u], -1)
            part = [f.mul(scale, c) for c in part]
            known = {cell: f.mul(scale, c) for cell, c in known.items()}
            for _, prow, pknown in pivots:
                if prow[u]:
                    _subtract(f, prow, pknown, prow[u], part, known)
            pivots.append((u, part, known))
    if len(pivots) < len(unknowns):
        return None
    # each pivot row reads u + sum(c * cell) = 0
    by_unknown = {u: known for u, _, known in pivots}
    return [{cell: f.neg(c) for cell, c in by_unknown[u].items()}
            for u in range(len(unknowns))]


def _subtract(f, part, known, factor, prow, pknown):
    """(part, known) -= factor * (prow, pknown), in place."""
    for i, c in enumerate(prow):
        part[i] = f.sub(part[i], f.mul(factor, c))
    for cell, c in pknown.items():
        known[cell] = f.sub(known.get(cell, 0), f.mul(factor, c))


def decode_by_survivors(spec, cols, nstripes, pattern):
    """Node columns (row-major symbol lists of T = nstripes stripes, erased
    nodes None) with the erased ones filled in, each erased information cell
    as its combination of surviving cells (`_survivor_maps`), then each
    erased parity by definition.  None if the pattern is not decodable."""
    p, f = spec.p, spec.field
    pattern = sorted(pattern)
    lost = [c for c in pattern if c < spec.k]
    cols = list(cols)
    if lost:
        maps = _survivor_maps(spec, pattern)
        if maps is None:
            return None
        for i, col in enumerate(lost):
            out = [0] * (nstripes * p)
            for row in range(p):
                for t in range(nstripes):
                    acc = 0
                    for (node, y), c in maps[i * p + row].items():
                        acc = f.add(acc, f.mul(c, cols[node][y * nstripes + t]))
                    out[row * nstripes + t] = acc
            cols[col] = out
    for node in pattern:
        if node >= spec.k:
            out = [0] * (nstripes * p)
            for t in range(nstripes):
                info = [[cols[col][row * nstripes + t] for col in range(spec.k)]
                        for row in range(p)]
                for z, v in enumerate(parity_by_definition(spec, info, node - spec.k)):
                    out[z * nstripes + t] = v
            cols[node] = out
    return cols


def inconsistent_stripes(spec, cols, nstripes):
    """The stripes of row-major symbol columns whose stored parities differ
    from their parities by definition, in order."""
    p, k = spec.p, spec.k
    out = []
    for t in range(nstripes):
        info = [[cols[col][row * nstripes + t] for col in range(k)] for row in range(p)]
        if any(parity_by_definition(spec, info, sidx)
               != [cols[k + sidx][z * nstripes + t] for z in range(p)]
               for sidx in range(spec.r)):
            out.append(t)
    return out


def repair_by_trials(spec, cols, nstripes, erased=()):
    """`CodePlan.repair` by trying every candidate.  The erasures are decoded,
    then, while e + 2 <= r, each surviving node j in node order is decoded
    with them on every stripe still inconsistent, and each stripe that comes
    out consistent takes j's answer.  Columns are row-major symbol lists of
    T = nstripes stripes, erased nodes None.  Returns (the columns,
    {stripe: corrected node}, the first uncorrectable stripe or None)."""
    erased = tuple(erased)
    p, e = spec.p, len(erased)
    cols = decode_by_survivors(spec, [col and list(col) for col in cols], nstripes, erased)
    fixed = {}
    if e >= spec.r:
        return cols, fixed, None
    bad = inconsistent_stripes(spec, cols, nstripes)
    candidates = [j for j in range(spec.n) if j not in erased] if e + 2 <= spec.r else []
    for j in candidates:
        if not bad:
            break
        nodes = erased + (j,)
        trial = decode_by_survivors(
            spec, [None if node in nodes else col for node, col in enumerate(cols)],
            nstripes, nodes)
        still = inconsistent_stripes(spec, trial, nstripes)
        for t in bad:
            if t not in still:
                fixed[t] = j
                for node in nodes:
                    for row in range(p):
                        cols[node][row * nstripes + t] = trial[node][row * nstripes + t]
        bad = [t for t in bad if t in still]
    return cols, fixed, (bad[0] if bad else None)


def decodable(spec, pattern):
    """Whether an erasure pattern decodes, by exhaustive search: it does
    unless some nonzero assignment of its erased information cells, every
    other information cell zero, leaves every surviving parity at zero."""
    cells = [(row, col) for col in pattern if col < spec.k for row in range(spec.p)]
    alive = [sidx for sidx in range(spec.r) if spec.k + sidx not in pattern]
    for values in product(range(spec.field.q), repeat=len(cells)):
        if not any(values):
            continue
        info = [[0] * spec.k for _ in range(spec.p)]
        for (row, col), v in zip(cells, values):
            info[row][col] = v
        if not any(any(parity_by_definition(spec, info, sidx)) for sidx in alive):
            return False
    return True


def orthogonal_pairs_r2(members, half):
    """Raw orthogonality over [0, 2^m - 1]: for every ordered pair i != j the
    images f_i(X_i) and f_j(X_i) must be disjoint (each X_i has half the rows).
    members are (permutation tuple, frozenset) pairs."""
    for (fi, xi) in members:
        if len(xi) != half:
            return False
    for a, (fa, xa) in enumerate(members):
        image_a = {fa[x] for x in xa}
        for b, (fb, xb) in enumerate(members):
            if a == b:
                continue
            image_b = {fb[x] for x in xa}
            if image_a & image_b:
                return False
    return True


def search_orthogonal_family(m, size):
    """Exhaustive search over all (permutation, half-size subset) pairs.

    Returns one orthogonal family of the requested size, or None.  Only
    feasible at m=1 (and barely m=2).
    """
    n = 2 ** m
    half = n // 2
    perms = list(permutations(range(n)))
    subsets = [frozenset(c) for c in combinations(range(n), half)]
    candidates = [(f, x) for f in perms for x in subsets]
    for family in combinations(candidates, size):
        if orthogonal_pairs_r2(family, half):
            return family
    return None

"""Brute-force reference computations the tests check the library against.

Everything here recomputes results from first principles: explicit set
construction, definitional sums, exhaustive search.  None of it calls the
code paths under test beyond reading plain data (vectors, coefficients).
"""

from itertools import combinations, permutations, product


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
    over the (node, row, c) terms of gather entry x, with T = nstripes.
    Columns are row-major symbol lists."""
    p, f = spec.p, spec.field
    outs = []
    for gather in gathers:
        out = [0] * (nstripes * p)
        for t in range(nstripes):
            for x, terms in enumerate(gather):
                acc = 0
                for node, row, c in terms:
                    acc = f.add(acc, f.mul(c, cols[node][row * nstripes + t]))
                out[x * nstripes + t] = acc
        outs.append(out)
    return outs


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

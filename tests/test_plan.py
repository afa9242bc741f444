import random
from collections import Counter

import pytest

import oracles
from zzmds import gf
from zzmds.construct import build_code
from zzmds.perms import make_family, parse_vector_list
from zzmds.plan import TABLE_MAX_Q, CodePlan, as_column


def tabulated_fields():
    """Every field a scheme can be built over that gets materialised tables."""
    primes = [q for q in range(2, TABLE_MAX_Q + 1) if gf.is_prime(q)]
    return ([gf.field_create("prime", q) for q in primes]
            + [gf.field_create("binary-extension", w) for w in range(2, 9)]
            + [gf.gf9()])


@pytest.mark.parametrize("field", tabulated_fields(), ids=lambda f: f.token)
def test_tables_match_field_exhaustively(field):
    ones = ((((1,) * 2),) * 2,)   # m=1, r=2: a 2 x 2 table of unit coefficients
    plan = oracles.table_code(field, ones).plan
    q = field.q
    assert len(plan.add) == len(plan.mul) == len(plan.neg) == q
    for a in range(q):
        assert plan.add[a] == [field.add(a, b) for b in range(q)]
        assert plan.mul[a] == [field.mul(a, b) for b in range(q)]
        assert plan.add[a][plan.neg[a]] == 0


@pytest.mark.parametrize("field", tabulated_fields() + [gf.field_create("prime", 257),
                                                   gf.field_create("prime", 65521)],
                         ids=lambda f: f.token)
def test_inverse_and_negation_lists_match_field(field):
    ones = ((((1,) * 2),) * 2,)
    plan = oracles.table_code(field, ones).plan
    assert plan.neg == [field.neg(a) for a in range(field.q)]
    assert len(plan.inv) == field.q
    assert all(field.mul(a, plan.inv[a]) == 1 for a in range(1, field.q))


def test_sparse_rank_and_overdetermined():
    f5 = gf.field_create("prime", 5)
    plan = oracles.table_code(f5, ((((1,) * 2),) * 2,)).plan
    eqs = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {0: 2, 1: 2}]
    # full rank in three unknowns, forward elimination only: each row keeps
    # the later unknowns it was left with, and the fourth row, twice the
    # first, is dropped
    pivots = plan._eliminate(eqs, 3)
    assert pivots == {0: {0: 1, 1: 1}, 1: {1: 1, 2: 1}, 2: {2: 1}}
    # each pivot row: its own unknown with coefficient 1, no earlier one
    assert all(row[u] == 1 and min(row) == u for u, row in pivots.items())
    # column 1 is known: pivots stay on column 0, a row left with only
    # known columns is dropped, and the pivot row reads u0 = -2 * s1
    assert plan._eliminate([{0: 3, 1: 1}, {0: 1, 1: 2}], 1) == {0: {0: 1, 1: 2}}
    assert plan._eliminate([{0: 1, 1: 1}, {0: 2, 1: 2}], 2) == {0: {0: 1, 1: 1}}


def test_run_reads_rows_it_has_filled():
    # Outputs are filled last first, each from its last row up: output 1
    # first, then output 0's row 1, then its row 0, which reads both.  Node
    # 0 is the one input column; nodes 1 and 2 are outputs 0 and 1.
    f5 = gf.field_create("prime", 5)
    spec = oracles.table_code(f5, ((((1,) * 2),) * 2,))
    gathers = [[[(1, 1, 1), (2, 1, 2)], [(0, 0, 2)]],
               [[(0, 0, 1)], [(0, 1, 3)]]]
    col = [1, 4, 2, 3]        # row 0, then row 1, of two stripes
    # output 1: row 0 = col row 0, row 1 = 3 * col row 1; output 0: row 1 =
    # 2 * col row 0, row 0 = its own row 1 + 2 * output 1's row 1
    want = [[4, 1, 2, 3], [1, 4, 1, 4]]
    assert oracles.run_by_cells(spec, gathers, [col], 2) == want
    assert [list(out) for out in spec.plan.run(gathers, [as_column(5, col)], 2)] == want


def row_primitives(field):
    """The (lift, total) row primitives a plan over `field` picked."""
    ones = ((((1,) * 2),) * 2,)
    plan = oracles.table_code(field, ones).plan
    return plan._lift, plan._total


# GF(25) and GF(49) sum in bit-field lanes as GF(9) does; GF(27) has no room
# for two terms in a lane and sums element by element, as GF(257) and
# GF(65521) do.
ODD_EXTENSIONS = [gf.Field(5, 2, (2, 1)), gf.Field(3, 3, (1, 0, 2)), gf.Field(7, 2, (3, 1))]


@pytest.mark.parametrize("field", tabulated_fields() + ODD_EXTENSIONS
                         + [gf.field_create("prime", 257), gf.field_create("prime", 65521)],
                         ids=lambda f: f.token)
def test_row_primitives_match_field(field):
    q = field.q
    lift, total = row_primitives(field)
    rng = random.Random(q)
    # scale: every coefficient times every element (a sample past the tables)
    if q <= 2 * TABLE_MAX_Q:
        elements, coefficients = list(range(q)), range(q)
    else:
        elements = list(range(300)) + list(range(q - 300, q))
        coefficients = [0, 1, 2, q - 1] + rng.sample(range(3, q - 1), 4)
    row = as_column(q, elements)
    for c in coefficients:
        assert list(total([lift(row, c)], len(row))) == [field.mul(c, a) for a in elements]

    def field_sum(rows, cs):
        out = [0] * len(rows[0]) if rows else []
        for r, c in zip(rows, cs):
            out = [field.add(a, field.mul(c, b)) for a, b in zip(out, r)]
        return out

    # sums: one past the lane reduction boundary of the largest element,
    # floor(255 / (q-1)) terms for a prime field and floor((2^b - 1) / (char
    # - 1)) for b-bit digit fields, then random terms and coefficients, past
    # it several times over
    t = 37
    bound = 255 // (q - 1) + 1 if q <= TABLE_MAX_Q else 3
    digit_bound = (2 ** (8 // field.degree) - 1) // (field.char - 1) + 1
    for count in {bound, digit_bound}:
        top = [[q - 1] * t] * count
        got = total([lift(as_column(q, r), 1) for r in top], t)
        assert list(got) == field_sum(top, [1] * count)
    for count in (0, 1, 2, bound, digit_bound, 3 * bound + 1):
        rows = [[rng.randrange(q) for _ in range(t)] for _ in range(count)]
        cs = [rng.randrange(q) for _ in range(count)]
        got = total([lift(as_column(q, r), c) for r, c in zip(rows, cs)], t)
        assert list(got) == (field_sum(rows, cs) if count else [0] * t)


@pytest.mark.parametrize("scheme, kwargs, pattern, most", [
    ("r3", dict(m=3), (0, 1, 2), 687),
    ("weightw", dict(family="weightw", m=6, w=3), (0, 1), 352),
    ("cons3", dict(m=3), (0, 1), 44),
    ("r3", dict(m=3), (1, 2, 3), 747),
])
def test_decode_map_terms(scheme, kwargs, pattern, most):
    # The benchmark's multi-node patterns: each erased cell reads only the
    # syndrome cells and later erased cells of its own block, not every
    # surviving cell, and the syndrome gather reads no erased column.
    spec = build_code(scheme, **kwargs)
    syndrome, solve = spec.plan._decoder(pattern)
    assert sum(len(terms) for gather in solve for terms in gather) <= most
    survivors = spec.k - len(pattern) + 1
    assert all(len(terms) == survivors for gather in syndrome for terms in gather)
    for i, gather in enumerate(solve):
        for x, terms in enumerate(gather):
            solved = [(node - len(syndrome), row) for node, row, _ in terms
                      if node >= len(syndrome)]
            assert all(later > (i, x) for later in solved)


@pytest.mark.parametrize("scheme, kwargs", [
    ("cons3", dict(m=3)),
    ("r3", dict(m=3)),
    ("weightw", dict(family="weightw", m=6, w=3)),
])
def test_repair_tries_only_the_located_column(monkeypatch, scheme, kwargs):
    # With nothing erased, the syndromes name a corrupted cell's column and
    # hold its error: whatever the column, systematic or parity, `repair`
    # builds no rebuild gather, runs no trial decode (only the decode of the
    # erasures, here none) and computes the syndromes once.  A clean repair
    # builds no lane masks either.
    calls = Counter()
    for name in ("_build_target", "decode", "syndrome", "_lane_masks"):
        def counted(self, *args, _name=name, _method=getattr(CodePlan, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(CodePlan, name, counted)
    spec = build_code(scheme, **kwargs)
    plan, p, q, count = spec.plan, spec.p, spec.field.q, 3
    rng = random.Random(7)
    info = [as_column(q, [rng.randrange(q) for _ in range(p * count)]) for _ in range(spec.k)]
    stripe = info + plan.encode(info, count)

    cols = [col[:] for col in stripe]
    calls.clear()
    assert plan.repair(cols, count) == ({}, None)
    assert calls == {"decode": 1, "syndrome": 1}

    for j in range(spec.n):
        cols = [col[:] for col in stripe]
        cell = rng.randrange(p) * count + 1
        cols[j][cell] = spec.field.add(cols[j][cell], 1)
        calls.clear()
        assert plan.repair(cols, count) == ({1: j}, None)
        assert cols == stripe
        assert calls == {"decode": 1, "syndrome": 1, "_lane_masks": 1}


@pytest.mark.parametrize("scheme, kwargs", [
    ("cons3", dict(m=3)),
    ("weightw", dict(family="weightw", m=6, w=3)),
    ("cons4", dict(m=1, s=2, field=gf.field_create("prime", 257))),
])
def test_repair_corrects_a_column_hit_at_many_stripes(scheme, kwargs):
    # One column, systematic or parity, bumped at two stripes of every
    # three over some 300, at one cell of a stripe or at every fifth row:
    # every stripe hit is corrected, by that column (2-byte symbols over
    # GF(257)).  Stripe 0 has row 0 of the first and last systematic
    # columns bumped, which no one column explains: syndrome 0 is nonzero
    # at one set and syndrome 1 at two.  It is reported, and left as it was.
    spec = build_code(scheme, **kwargs)
    plan, p, f, count = spec.plan, spec.p, spec.field, 301
    rng = random.Random(11)
    info = [as_column(f.q, [rng.randrange(f.q) for _ in range(p * count)])
            for _ in range(spec.k)]
    stripe = info + plan.encode(info, count)
    hit = [t for t in range(count) if t % 3]
    for j in (0, spec.k - 1, spec.k, spec.n - 1):
        cols = [col[:] for col in stripe]
        for t in hit:
            for x in {t % p, *range(t % 5, p, 5)}:
                cols[j][x * count + t] = f.add(cols[j][x * count + t], rng.randrange(1, f.q))
        for node in (0, spec.k - 1):
            cols[node][0] = f.add(cols[node][0], 1)
        two = [col[::count] for col in cols]
        assert plan.repair(cols, count) == (dict.fromkeys(hit, j), 0)
        assert [col[::count] for col in cols] == two
        for t in range(1, count):
            assert [col[t::count] for col in cols] == [col[t::count] for col in stripe]


# r = 3 vectors with digits 2 and weight 2, which no scheme's family has
EXPLICIT_R3 = "10,01,11,12"


def explicit_r3():
    rng = random.Random(3)
    table = [[[rng.randrange(1, 7) for _ in range(4)] for _ in range(9)] for _ in range(2)]
    family = make_family(parse_vector_list(EXPLICIT_R3, 3))
    return oracles.table_code(gf.field_create("prime", 7), table, family=family)


GATHER_SPECS = {
    "cons3-m3": lambda: build_code("cons3", m=3),
    "cons4-m2-s2": lambda: build_code("cons4", m=2, s=2),
    "r3-m2": lambda: build_code("r3", m=2),
    "r3-m3": lambda: build_code("r3", m=3),
    "weightw-m4-w2": lambda: build_code("weightw", family="weightw", m=4, w=2),
    "weightw-m6-w3": lambda: build_code("weightw", family="weightw", m=6, w=3),
    "explicit-weightw": lambda: build_code("weightw", family="explicit",
                                           vectors="1010,0101,1001", m=4),
    "explicit-table-r3": explicit_r3,
    # past the plan's table limit: computed rows, no q x q tables
    "cons4-m2-s2-gf257": lambda: build_code("cons4", m=2, s=2,
                                            field=gf.field_create("prime", 257)),
}


@pytest.mark.parametrize("name", sorted(GATHER_SPECS))
def test_gathers_match_cell_by_cell_construction(name):
    # The plan builds its gathers in bulk, from zigzag lists, transposed
    # coefficient columns and one access-set walk per node; the oracle
    # places every cell by its zigzag index, coefficient and explicit
    # access set.  Both give the same terms in the same order.
    spec = GATHER_SPECS[name]()
    plan, k, minus_one = spec.plan, spec.k, spec.field.neg(1)
    parities = oracles.parity_gathers(spec)
    assert [[list(terms) for terms in gather] for gather in plan.parity] == parities
    assert [[list(terms) for terms in gather] for gather in plan._syndrome] == [
        [terms + [(k + sidx, z, minus_one)] for z, terms in enumerate(gather)]
        for sidx, gather in enumerate(parities)]
    for node in range(spec.n):
        gather, access = oracles.rebuild_gather(spec, node)
        assert [list(terms) for terms in plan._target(node)[0]] == gather
        assert plan.rebuild_plan(node).access == access

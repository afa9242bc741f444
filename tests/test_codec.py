"""The plan's operations on one stripe: node columns of T = 1 stripe, built
with `files.as_column`, the k information columns first, lost nodes None.
Encode, syndromes, rebuild reads, erasure decoding and error location are
checked against the definitions, and the kernel over T stripes against T
runs of one stripe."""

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from zzmds import gf
from zzmds.construct import build_code
from zzmds.files import as_column
from zzmds.plan import SingularMatrixError


def code53():
    return build_code("cons3", m=2)


def random_info(spec, rng):
    """k information columns of p random symbols."""
    return [[rng.randrange(spec.field.q) for _ in range(spec.p)]
            for _ in range(spec.k)]


def encode(spec, info):
    """The one-stripe node columns of the stripe whose k information columns
    hold the symbol lists `info`."""
    cols = [as_column(spec.field.q, col) for col in info]
    return cols + spec.plan.encode(cols, 1)


def rows(columns):
    """Row-major form of node columns, the form the oracles take."""
    return [list(row) for row in zip(*columns)]


def lists(columns):
    return [list(col) for col in columns]


def copied(stripe):
    return [col[:] for col in stripe]


def poisoned(stripe, erased):
    """Copy with the erased columns None, as the plan takes lost nodes: any
    read of them would blow up."""
    return [None if node in erased else col[:] for node, col in enumerate(stripe)]


def decoded(spec, stripe, erased):
    """The stripe decoded by the plan from its columns outside `erased`."""
    cols = poisoned(stripe, erased)
    spec.plan.decode(cols, 1, erased)
    return cols


def unread_changed(spec, stripe, node):
    """The stripe with `node` lost and every surviving cell that its rebuild
    does not read changed to another symbol, so that a rebuild reading any of
    them would come out wrong."""
    q, access = spec.field.q, spec.plan.rebuild_plan(node).access
    cols = poisoned(stripe, [node])
    for j, col in enumerate(cols):
        if col is not None:
            for x in set(range(spec.p)) - set(access.get(j, ())):
                col[x] = (col[x] + 1) % q
    return cols


def syndrome(spec, stripe):
    return lists(spec.plan.syndrome(stripe, 1))


SPECS = {
    "cons3-m1": lambda: build_code("cons3", m=1),
    "cons3-m2": code53,
    "cons3-m3": lambda: build_code("cons3", m=3),
    "cons4-m2-s2": lambda: build_code("cons4", m=2, s=2),
    "cons4-m2-s2-gf4": lambda: build_code(
        "cons4", m=2, s=2, field=gf.field_create("binary-extension", 2)),
    "cons4-m2-s3-gf5": lambda: build_code(
        "cons4", m=2, s=3, field=gf.field_create("prime", 5)),
    "weightw-m3": lambda: build_code("weightw", family="weightw", m=3, w=3),
    "r3-m2": lambda: build_code("r3", m=2),
    # past the plan's table limit: arithmetic read through computed rows
    "cons4-m1-s2-gf257": lambda: build_code(
        "cons4", m=1, s=2, field=gf.field_create("prime", 257)),
}


@cache
def built(name):
    """One spec per name, so that its plan is compiled once for all examples."""
    return SPECS[name]()


def drawn_stripe(data, spec):
    q = spec.field.q
    col = st.lists(st.integers(0, q - 1), min_size=spec.p, max_size=spec.p)
    return encode(spec, data.draw(st.lists(col, min_size=spec.k, max_size=spec.k), label="info"))


@pytest.fixture(params=sorted(SPECS), ids=sorted(SPECS))
def spec(request):
    return SPECS[request.param]()


def test_encode_code53_formulas():
    spec = code53()
    rng = random.Random(1)
    a = random_info(spec, rng)
    stripe = encode(spec, a)
    f = spec.field
    for i in range(4):
        assert stripe[3][i] == f.add(f.add(a[0][i], a[1][i]), a[2][i])
    # z_0 = a_00 + 2 a_21 + 2 a_12, z_1 = a_10 + 2 a_31 + a_02 (a_ij: row i, column j)
    assert stripe[4][0] == f.add(a[0][0], f.add(f.mul(2, a[1][2]), f.mul(2, a[2][1])))
    assert stripe[4][1] == f.add(a[0][1], f.add(f.mul(2, a[1][3]), a[2][0]))


def test_encode_matches_definition(spec):
    rng = random.Random(5)
    info = random_info(spec, rng)
    stripe = encode(spec, info)
    assert lists(stripe[:spec.k]) == info
    for sidx in range(spec.r):
        assert list(stripe[spec.k + sidx]) == oracles.parity_by_definition(spec, rows(info), sidx)


def test_encode_zero_info_gives_zero_parity(spec):
    stripe = encode(spec, [[0] * spec.p for _ in range(spec.k)])
    assert all(all(v == 0 for v in col) for col in stripe[spec.k:])


def test_syndrome_zero_on_consistent(spec):
    rng = random.Random(9)
    stripe = encode(spec, random_info(spec, rng))
    assert all(all(v == 0 for v in s) for s in syndrome(spec, stripe))


def test_syndrome_single_cell_delta():
    spec = code53()
    rng = random.Random(13)
    stripe = encode(spec, random_info(spec, rng))
    f = spec.field
    for i in range(spec.p):
        for j in range(spec.k):
            for delta in (1, 2):
                bad = copied(stripe)
                bad[j][i] = f.add(bad[j][i], delta)
                s0, s1 = syndrome(spec, bad)
                assert s0 == [delta if x == i else 0 for x in range(spec.p)]
                expect = [0] * spec.p
                expect[oracles.zigzag_index(spec, i, j, 1)] = f.mul(
                    spec.coefficient(i, j, 1), delta)
                assert s1 == expect


def test_syndrome_parity_corruption_hits_one_side():
    spec = code53()
    stripe = encode(spec, [[1] * spec.p for _ in range(spec.k)])
    for sidx in range(2):
        bad = copied(stripe)
        bad[spec.k + sidx][2] = spec.field.add(bad[spec.k + sidx][2], 1)
        s = syndrome(spec, bad)
        assert any(v for v in s[sidx])
        assert not any(v for v in s[1 - sidx])


def test_rebuild_code53_column1_access():
    spec = code53()
    rng = random.Random(17)
    stripe = encode(spec, random_info(spec, rng))
    # an erased column is never read, so it may be missing altogether
    assert decoded(spec, stripe, [1]) == stripe
    assert decoded(spec, unread_changed(spec, stripe, 1), [1])[1] == stripe[1]
    plan = spec.plan.rebuild_plan(1)
    # reads a_00, a_10, a_02, a_12 plus r_0, r_1, z_0, z_1 and nothing else
    assert plan.access == {0: (0, 1), 2: (0, 1), 3: (0, 1), 4: (0, 1)}
    assert plan.cells_read == 8
    assert plan.ratio(spec) == Fraction(1, 2)
    assert [sorted(spec.access_rows(1, sidx)) for sidx in range(spec.r)] == [[0, 1], [2, 3]]


def test_rebuild_restores_every_node(spec):
    rng = random.Random(21)
    stripe = encode(spec, random_info(spec, rng))
    for node in range(spec.n):
        # only the cells of its access sets are read
        assert decoded(spec, unread_changed(spec, stripe, node), [node])[node] == stripe[node]
        if node < spec.k:
            rows = sorted(x for sidx in range(spec.r) for x in spec.access_rows(node, sidx))
            assert rows == list(range(spec.p))


def test_rebuild_parity_reads_everything():
    spec = code53()
    plan = spec.plan.rebuild_plan(3)
    assert plan.ratio(spec) == 1
    assert plan.access == {c: tuple(range(4)) for c in range(3)}


def test_rebuild_orthogonal_reads_quarter_per_node():
    for m in (2, 3):
        spec = build_code("r3", m=m)
        for col in range(spec.k):
            plan = spec.plan.rebuild_plan(col)
            for node in range(spec.n):
                if node != col:
                    assert plan.cells_in(node) == spec.p // 3
            assert plan.ratio(spec) == Fraction(1, 3)


def test_rebuild_duplicated_reads_siblings_fully():
    spec = build_code("cons4", m=2, s=2)
    total = 0
    for col in range(spec.k):
        plan = spec.plan.rebuild_plan(col)
        sibling = col + 1 if col % 2 == 0 else col - 1
        assert plan.cells_in(sibling) == spec.p
        for other in range(spec.k):
            if other not in (col, sibling):
                assert plan.cells_in(other) == spec.p // 2
        total += plan.cells_read
    assert Fraction(total, spec.k * spec.p * (spec.n - 1)) == Fraction(4, 7)


def test_decode_all_patterns(spec):
    rng = random.Random(33)
    for _ in range(3):
        stripe = encode(spec, random_info(spec, rng))
        for size in range(0, spec.r + 1):
            for pattern in combinations(range(spec.n), size):
                assert decoded(spec, stripe, pattern) == stripe


def test_decode_both_parities_is_reencode():
    spec = code53()
    rng = random.Random(37)
    stripe = encode(spec, random_info(spec, rng))
    assert decoded(spec, stripe, [3, 4]) == stripe


def test_decode_rejects_too_many():
    spec = code53()
    stripe = encode(spec, [[0] * 4 for _ in range(3)])
    with pytest.raises(SingularMatrixError):
        decoded(spec, stripe, [0, 1, 2])


def test_decode_signals_undecodable_spec():
    # All-unit coefficients over GF(2) are not MDS; the structured path goes
    # singular and the generic fallback must report it rather than fail silently.
    f2 = gf.field_create("prime", 2)
    ones = (tuple(tuple(1 for _ in range(3)) for _ in range(4)),)
    spec = build_code("table", m=2, field=f2, coefficients=ones)
    stripe = encode(spec, [[0] * 4 for _ in range(3)])
    with pytest.raises(SingularMatrixError):
        decoded(spec, stripe, [0, 1])


def test_decode_error_clean():
    spec = code53()
    stripe = encode(spec, [[2] * 4 for _ in range(3)])
    cols = copied(stripe)
    assert spec.plan.repair(cols, 1) == ({}, None)
    assert cols == stripe


def test_decode_error_locates_and_corrects_sampled():
    spec = code53()
    rng = random.Random(41)
    stripe = encode(spec, random_info(spec, rng))
    for col in range(spec.k):
        for _ in range(10):
            pattern = [rng.randrange(3) for _ in range(spec.p)]
            if not any(pattern):
                continue
            bad = copied(stripe)
            for x in range(spec.p):
                bad[col][x] = spec.field.add(bad[col][x], pattern[x])
            assert spec.plan.repair(bad, 1) == ({0: col}, None)
            assert bad == stripe


def test_decode_error_fixes_parity():
    spec = code53()
    rng = random.Random(43)
    stripe = encode(spec, random_info(spec, rng))
    for sidx, node in ((0, 3), (1, 4)):
        bad = copied(stripe)
        bad[node][1] = spec.field.add(bad[node][1], 2)
        assert spec.plan.repair(bad, 1) == ({0: node}, None)
        assert bad == stripe


def single_column_interpretations(spec, stripe):
    """Brute force: columns whose adjustment alone makes the stripe consistent.

    With column distance r+1 = 3, a two-column corruption may sit within
    distance one of a DIFFERENT codeword; location is only guaranteed
    unambiguous for true single-column errors.
    """
    out = []
    s0, s1 = syndrome(spec, stripe)
    if not any(s0) and not any(s1):
        return out
    for j in range(spec.k):
        cand = copied(stripe)
        for x in range(spec.p):
            cand[j][x] = spec.field.sub(cand[j][x], s0[x])
        if not any(any(v for v in s) for s in syndrome(spec, cand)):
            out.append(j)
    if not any(s1):
        out.append(spec.k)      # only the row parity is off
    if not any(s0):
        out.append(spec.k + 1)  # only the zigzag parity is off
    return out


def test_decode_error_two_columns():
    # Two corrupted columns must be reported uncorrectable unless the damage
    # genuinely aliases a single-column error of another codeword; the scan
    # must never invent a location the syndromes do not support.
    spec = code53()
    rng = random.Random(47)
    stripe = encode(spec, random_info(spec, rng))
    uncorrectable = 0
    f = spec.field
    for _ in range(40):
        j1, j2 = rng.sample(range(spec.k), 2)
        bad = copied(stripe)
        x1, x2 = rng.randrange(4), rng.randrange(4)
        bad[j1][x1] = f.add(bad[j1][x1], rng.randrange(1, 3))
        bad[j2][x2] = f.add(bad[j2][x2], rng.randrange(1, 3))
        interps = single_column_interpretations(spec, bad)
        fixed, stripe_left = spec.plan.repair(bad, 1)
        if stripe_left is not None:
            uncorrectable += 1
            assert (fixed, stripe_left) == ({}, 0)
            assert interps == []
        else:
            assert list(fixed) == [0]
            assert fixed[0] in interps
            assert not any(any(v for v in s) for s in syndrome(spec, bad))
    assert uncorrectable > 20  # aliasing is the exception, not the rule


def test_decode_error_locates_with_three_parities():
    spec = build_code("r3", m=2)
    rng = random.Random(53)
    stripe = encode(spec, random_info(spec, rng))
    for node in range(spec.n):
        bad = copied(stripe)
        col = bad[node]
        for x in rng.sample(range(spec.p), rng.randrange(1, spec.p + 1)):
            col[x] = spec.field.add(col[x], rng.randrange(1, spec.field.q))
        assert spec.plan.repair(bad, 1) == ({0: node}, None)
        assert bad == stripe


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_erasures_decode_exactly(name, data):
    spec = built(name)
    stripe = drawn_stripe(data, spec)
    assert lists(stripe[spec.k:]) == [oracles.parity_by_definition(spec, rows(stripe[:spec.k]),
                                                                    sidx)
                                      for sidx in range(spec.r)]
    size = data.draw(st.integers(0, spec.r), label="size")
    erased = data.draw(st.lists(st.integers(0, spec.n - 1), min_size=size, max_size=size,
                                unique=True), label="erased")
    assert decoded(spec, stripe, erased) == stripe


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_single_column_corruption_corrected(name, data):
    spec = built(name)
    f = spec.field
    stripe = drawn_stripe(data, spec)
    node = data.draw(st.integers(0, spec.n - 1), label="node")
    delta = data.draw(st.lists(st.integers(0, f.q - 1), min_size=spec.p, max_size=spec.p)
                      .filter(any), label="delta")
    bad = copied(stripe)
    bad[node] = as_column(f.q, [f.add(a, d) for a, d in zip(bad[node], delta)])
    assert spec.plan.repair(bad, 1) == ({0: node}, None)
    assert bad == stripe


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_property_plan_runs_stripes_at_once(name, data):
    # The plan's kernels over several stripes at once, the CLI's way, give
    # each stripe what they give over that stripe alone (T = 1).
    spec = built(name)
    plan, p, f = spec.plan, spec.p, spec.field
    count = data.draw(st.integers(0, 4), label="stripes")
    stripes = [drawn_stripe(data, spec) for _ in range(count)]

    def joined(stripes):
        # row-major, as node files are: row x of stripe t is cell x * count + t
        return [as_column(f.q, [stripe[node][x] for x in range(p) for stripe in stripes])
                for node in range(spec.n)]

    cols = joined(stripes)
    assert plan.encode(cols[:spec.k], count) == cols[spec.k:]

    size = data.draw(st.integers(0, spec.r), label="size")
    erased = data.draw(st.lists(st.integers(0, spec.n - 1), min_size=size, max_size=size,
                                unique=True), label="erased")
    restored = [None if node in erased else col for node, col in enumerate(cols)]
    plan.decode(restored, count, erased)
    assert restored == joined([decoded(spec, stripe, erased) for stripe in stripes])

    # The same erasures, with one surviving column corrupted in some stripes
    # while there is parity left over to see it, go through `repair`.
    e, bad_stripes, corrupted = len(erased), [], {}
    survivors = [node for node in range(spec.n) if node not in erased]
    for t, stripe in enumerate(stripes):
        bad = copied(stripe)
        node = data.draw(st.none() | st.sampled_from(survivors), label="corrupted") \
            if e < spec.r else None
        if node is not None:
            delta = data.draw(st.lists(st.integers(0, f.q - 1), min_size=p, max_size=p)
                              .filter(any), label="delta")
            bad[node] = as_column(f.q, [f.add(a, d) for a, d in zip(bad[node], delta)])
            corrupted[t] = node
        bad_stripes.append(bad)
    cols = [None if node in erased else col for node, col in enumerate(joined(bad_stripes))]
    fixed, uncorrectable = plan.repair(cols, count, erased)
    if e + 2 <= spec.r or not corrupted:
        # located and corrected exactly; with e = r nothing is corrupted, and
        # repair only decodes
        assert (fixed, uncorrectable) == (corrupted, None)
    else:
        # e = r - 1: the one parity left detects, but cannot locate
        assert (fixed, uncorrectable) == ({}, min(corrupted))
    if uncorrectable is None:
        assert cols == joined(stripes)


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_property_repair_matches_trials(name, data):
    # `repair` skips only the trials that cannot pass: its result and every
    # column equal those of trying each candidate on every stripe still bad.
    # One column is corrupted in some stripes (one cell, several cells or
    # all of them), or two columns in one stripe; on r = 3, the one column
    # can be corrupted next to an erasure.
    spec = built(name)
    p, f, n = spec.p, spec.field, spec.n
    count = data.draw(st.integers(1, 4), label="stripes")
    stripes = [drawn_stripe(data, spec) for _ in range(count)]
    cols = [[stripe[node][x] for x in range(p) for stripe in stripes] for node in range(n)]
    case = data.draw(st.sampled_from(["one", "two"] + ["erased"] * (spec.r == 3)), label="case")
    erased = [data.draw(st.integers(0, n - 1), label="erased")] if case == "erased" else []
    survivors = [node for node in range(n) if node not in erased]
    if case == "two":
        t = data.draw(st.integers(0, count - 1), label="stripe")
        hits = [(node, t) for node in data.draw(
            st.lists(st.sampled_from(survivors), min_size=2, max_size=2, unique=True),
            label="nodes")]
    else:
        node = data.draw(st.sampled_from(survivors), label="node")
        hits = [(node, t) for t in data.draw(
            st.lists(st.integers(0, count - 1), min_size=1, unique=True), label="stripes hit")]
    for node, t in hits:
        rows_hit = data.draw(st.one_of(
            st.lists(st.integers(0, p - 1), min_size=1, max_size=1),
            st.lists(st.integers(0, p - 1), min_size=2, unique=True),
            st.just(range(p))), label="rows")
        for x in rows_hit:
            cell = x * count + t
            cols[node][cell] = f.add(cols[node][cell],
                                     data.draw(st.integers(1, f.q - 1), label="delta"))
    lost = [None if node in erased else col for node, col in enumerate(cols)]
    want_cols, want_fixed, want_left = oracles.repair_by_trials(spec, lost, count, erased)
    got = [col and as_column(f.q, col) for col in lost]
    assert spec.plan.repair(got, count, erased) == (want_fixed, want_left)
    assert lists(got) == want_cols


def test_zigzag_lists_match_perm_unapply(spec):
    zigzags = spec.plan._zigzags
    assert len(zigzags) == len(spec.family.vectors)
    for vector, per_parity in zip(spec.family.vectors, zigzags):
        assert len(per_parity) == spec.r
        for sidx, rows in enumerate(per_parity):
            assert rows == [oracles.perm_unapply(vector, sidx, z) for z in range(spec.p)]


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_property_run_matches_cell_oracle(name, data):
    # The row kernel gives, for any columns, what the per-cell sums give:
    # encode, syndrome, a rebuild gather and both gathers of a multi-node
    # decode map, over T stripes.  The map's first gather reads the node
    # columns with the erased ones None; its second reads the first's
    # output, the surviving parities' syndromes, and the rows of its own
    # output that it has already solved.
    spec = built(name)
    plan, p, q = spec.plan, spec.p, spec.field.q
    count = data.draw(st.integers(0, 40), label="stripes")
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    cols = [[rng.randrange(q) for _ in range(count * p)] for _ in range(spec.n)]
    node = data.draw(st.integers(0, spec.n - 1), label="rebuilt")
    lost = data.draw(st.integers(0, spec.k - 1), label="lost")
    size = data.draw(st.integers(1, spec.r - 1), label="also erased")
    others = data.draw(st.lists(st.integers(0, spec.n - 1).filter(lambda c: c != lost),
                                min_size=size, max_size=size, unique=True), label="others")
    pattern = tuple(sorted([lost, *others]))
    survivors = [None if j in pattern else col for j, col in enumerate(cols)]
    syndrome, solve = plan._decoder(pattern)
    syndromes = oracles.run_by_cells(spec, syndrome, survivors, count)
    maps = [(plan.parity, cols), (plan._syndrome, cols), ([plan._target(node)[0]], cols),
            (syndrome, survivors), (solve, syndromes)]
    for gathers, inputs in maps:
        columns = [None if col is None else as_column(q, col) for col in inputs]
        got = plan.run(gathers, columns, count)
        assert [list(col) for col in got] == oracles.run_by_cells(spec, gathers, inputs, count)


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_property_decode_matches_survivor_oracle(name, data):
    # On columns that are no codeword, decode gives, bit for bit, what the
    # survivor-cell decode gives, for every pattern of at most r erasures:
    # one node through its access sets, several through the first
    # independent parity equations, which the syndrome-first map solves too.
    spec = built(name)
    p, q = spec.p, spec.field.q
    count = data.draw(st.integers(1, 3), label="stripes")
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    cols = [[rng.randrange(q) for _ in range(count * p)] for _ in range(spec.n)]
    for e in range(1, spec.r + 1):
        for pattern in combinations(range(spec.n), e):
            survivors = [None if j in pattern else col for j, col in enumerate(cols)]
            want = oracles.decode_by_survivors(spec, survivors, count, pattern)
            got = [None if col is None else as_column(q, col) for col in survivors]
            if want is None:
                with pytest.raises(SingularMatrixError):
                    spec.plan.decode(got, count, pattern)
            else:
                spec.plan.decode(got, count, pattern)
                assert [list(col) for col in got] == want, pattern

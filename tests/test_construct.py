from itertools import combinations

import pytest

import oracles
from test_codec import access_rows
from zzmds import gf
from zzmds.analysis import verify_mds
from zzmds.construct import (CodeSpecError, block_width, build_code, default_field,
                             is_standard_basis)
from zzmds.perms import RVector, standard_basis_family


def code53():
    return build_code("cons3", m=2)


def test_code53_zigzag_structure():
    spec = code53()
    # zigzag sets of the second parity with their coefficients, as printed:
    # z_0 = a_00 + 2 a_21 + 2 a_12 and z_1 = a_10 + 2 a_31 + a_02
    def members(zidx):
        rows = [oracles.source_row(spec, zidx, col, 1) for col in range(spec.k)]
        return {(row, col, spec.coefficient(row, col, 1)) for col, row in enumerate(rows)}

    assert members(0) == {(0, 0, 1), (2, 1, 2), (1, 2, 2)}
    assert members(1) == {(1, 0, 1), (3, 1, 2), (0, 2, 1)}
    assert sorted(access_rows(spec, 0, 0)) == [0, 3]
    assert sorted(access_rows(spec, 1, 0)) == [0, 1]
    assert sorted(access_rows(spec, 2, 0)) == [0, 2]


def test_cons3_column_zero_is_unit():
    spec = build_code("cons3", m=3)
    for row in range(spec.p):
        assert spec.coefficient(row, 0, 1) == 1


def test_cons3_example_cell():
    assert code53().coefficient(2, 1, 1) == 2


def test_zigzag_index():
    spec = code53()
    assert oracles.zigzag_index(spec, 0, 0, 1) == 0
    for row in range(spec.p):
        for col in range(spec.k):
            assert oracles.zigzag_index(spec, row, col, 0) == row

    r3 = build_code("r3", m=2)
    assert oracles.zigzag_index(r3, 0, 1, 2) == 6  # 0 + 2*e_1 has digits (2, 0)
    # source_row inverts it, and the plan's parity gathers put each cell in
    # that set with its coefficient
    for s in (spec, r3, build_code("cons4", m=2, s=2)):
        for row in range(s.p):
            for col in range(s.k):
                for sidx in range(s.r):
                    zidx = oracles.zigzag_index(s, row, col, sidx)
                    assert oracles.source_row(s, zidx, col, sidx) == row
                    assert (col, row, s.coefficient(row, col, sidx)) in s.plan.parity[sidx][zidx]


def test_default_fields():
    assert default_field("cons3").token == "gf(3)"
    assert default_field("cons4", s=2).token == "gf(3)"
    assert default_field("cons4", s=3).token == "gf(5)"
    assert default_field("cons4", s=6).token == "gf(7)"
    # the smallest prime above s, across the move to two-byte fields
    for s, token in [(4, "gf(5)"), (10, "gf(11)"), (250, "gf(251)"), (251, "gf(257)"),
                     (256, "gf(257)"), (257, "gf(263)")]:
        assert default_field("cons4", s=s).token == token
    assert default_field("weightw", w=2).token == "gf(5)"
    assert default_field("weightw", w=3).token == "gf(9)"
    assert default_field("r3", m=2).token == "gf(7)"
    assert default_field("r3", m=3).token == "gf(11)"


def test_geometry():
    spec = code53()
    assert (spec.p, spec.k, spec.n) == (4, 3, 5)
    dup = build_code("cons4", m=2, s=2)
    assert (dup.p, dup.k, dup.n) == (4, 6, 8)
    assert oracles.family_index(dup, 3) == 1 and oracles.copy_index(dup, 3) == 1
    r3 = build_code("r3", m=2)
    assert (r3.p, r3.k, r3.n) == (9, 3, 6) and r3.field.q == 7


def test_scheme_constraint_errors():
    with pytest.raises(CodeSpecError):
        build_code("cons3", m=2, s=2)
    with pytest.raises(CodeSpecError):
        build_code("cons3", m=2, field=gf.field_create("prime", 2))
    with pytest.raises(CodeSpecError):
        build_code("cons4", m=2, s=3, field=gf.field_create("prime", 3))  # s > q-1
    with pytest.raises(CodeSpecError):
        build_code("cons4", m=2, s=3, field=gf.field_create("binary-extension", 2))  # s > q-2
    with pytest.raises(CodeSpecError):
        build_code("r3", m=2, field=gf.field_create("prime", 5))  # q < 2(m+1)
    with pytest.raises(CodeSpecError):
        build_code("weightw", family="weightw", m=7, w=3)
    with pytest.raises(CodeSpecError):
        build_code("weightw", family="standard", m=6, w=3)
    with pytest.raises(CodeSpecError):
        build_code("nonesuch", m=2)


def test_cons4_duplication_at_field_limit_accepted():
    spec = build_code("cons4", m=2, s=2, field=gf.field_create("prime", 3))
    assert spec.k == 6
    spec = build_code("cons4", m=2, s=2, field=gf.field_create("binary-extension", 2))
    assert spec.field.token == "gf(2^2)"


def test_cons4_six_copies_over_gf8():
    spec = build_code("cons4", m=1, s=6, field=gf.field_create("binary-extension", 3))
    assert (spec.k, spec.n) == (12, 14)
    assert verify_mds(spec).is_mds


def test_cons4_copy_pattern():
    # Copy t must reuse the base two-valued pattern with shifted powers.
    spec = build_code("cons4", m=2, s=2)  # gf(3), a = 2
    base = code53()
    f = spec.field
    for row in range(spec.p):
        for j in range(spec.base_k):
            hit = base.coefficient(row, j, 1) == 2
            expect_t0 = f.pow(2, 1) if hit else 1
            expect_t1 = f.pow(2, 2) if hit else 2
            assert spec.coefficient(row, j * 2, 1) == expect_t0
            assert spec.coefficient(row, j * 2 + 1, 1) == expect_t1


def test_cons4_even_field_pattern():
    spec = build_code("cons4", m=2, s=2, field=gf.field_create("binary-extension", 2))
    f = spec.field
    a = f.primitive
    base = code53()
    for row in range(spec.p):
        for j in range(spec.base_k):
            hit = base.coefficient(row, j, 1) == 2
            assert spec.coefficient(row, j * 2, 1) == (f.pow(a, -1) if hit else f.pow(a, 1))
            assert spec.coefficient(row, j * 2 + 1, 1) == (f.pow(a, -2) if hit else f.pow(a, 2))


def test_weightw_golden_cell():
    spec = build_code("weightw", family="weightw", m=6, w=3)
    col = spec.family.vectors.index(RVector((1, 0, 0, 1, 0, 1), 2))
    assert spec.coefficient(26, col, 1) == spec.field.pow(spec.field.primitive, 3)


def test_weightw_over_gf16():
    spec = build_code("weightw", family="weightw", m=6, w=3,
                      field=gf.field_create("binary-extension", 4))
    assert spec.field.q == 16


def test_all_coefficients_nonzero():
    # Every builder reads powers of the primitive element, so no coefficient
    # is zero over any field its scheme accepts: elimination and error
    # location assume none is, and nothing checks a built table for one.
    binary = [gf.field_create("binary-extension", w) for w in range(2, 9)]
    specs = (
        [build_code("cons3", m=m) for m in (1, 2, 3, 5)]
        + [build_code("cons4", m=3, s=s) for s in (1, 2, 4)]
        + [build_code("cons4", m=2, s=s, field=f) for f in binary + [gf.gf9()]
           for s in (1, f.q - 2)]
        + [build_code("cons4", m=2, s=3, field=gf.field_create("prime", 5))]
        + [build_code("weightw", family="weightw", m=m, w=w, field=field)
           for m, w in ((4, 2), (6, 3))
           for field in (None, gf.field_create("prime", 3), gf.field_create("prime", 5),
                         gf.field_create("binary-extension", 4), gf.gf9())]
        + [build_code("r3", m=m, field=gf.field_create("prime", q) if q else None)
           for m, primes in ((2, (None, 11, 13)), (3, (None, 13, 17))) for q in primes]
    )
    for spec in specs:
        assert len(spec.coeffs) == spec.r - 1
        for table in spec.coeffs:
            assert len(table) == spec.p
            for row in table:
                assert len(row) == spec.k and 0 not in row, spec


def test_r3_coefficients_match_matrix_powers():
    # The per-cell product form must agree with literal permutation-matrix
    # powers: parity s uses the entries of A_l^s along the shift orbits.
    spec = build_code("r3", m=2)
    f = spec.field
    p = spec.p
    a = f.primitive

    def mat_mul(x, y):
        out = [[0] * p for _ in range(p)]
        for i in range(p):
            for l in range(p):
                if x[i][l]:
                    for j in range(p):
                        if y[l][j]:
                            out[i][j] = f.add(out[i][j], f.mul(x[i][l], y[l][j]))
        return out

    mats = []
    for l, v in enumerate(spec.family.vectors):
        mat = [[0] * p for _ in range(p)]
        al = f.pow(a, l)
        for y in range(p):
            dot = oracles.dot_rows(y, v.digits, spec.r, spec.m)
            mat[oracles.perm_apply(v, 1, y)][y] = al if dot == 0 else 1
        mats.append(mat)

    for l, v in enumerate(spec.family.vectors):
        sq = mat_mul(mats[l], mats[l])
        for y in range(p):
            assert spec.coefficient(y, l, 1) == mats[l][oracles.perm_apply(v, 1, y)][y]
            assert spec.coefficient(y, l, 2) == sq[oracles.perm_apply(v, 2, y)][y]
        # cube collapses to the scalar a^l
        cube = mat_mul(sq, mats[l])
        for i in range(p):
            for j in range(p):
                assert cube[i][j] == (f.pow(a, l) if i == j else 0)
    # the modified shift matrices commute
    for l1 in range(len(mats)):
        for l2 in range(l1 + 1, len(mats)):
            assert mat_mul(mats[l1], mats[l2]) == mat_mul(mats[l2], mats[l1])


def test_verify_mds_positive_small():
    for spec in (build_code("cons3", m=1), code53(), build_code("cons3", m=3),
                 build_code("cons4", m=2, s=2), build_code("r3", m=2)):
        report = verify_mds(spec)
        assert report.is_mds and report.failing_pattern is None


def test_verify_mds_pattern_count():
    report = verify_mds(build_code("cons3", m=3))  # n = 6, r = 2
    assert report.patterns_checked == 6 + 15


def test_unit_coefficients_break_duplication():
    f3 = gf.field_create("prime", 3)
    ones = (tuple(tuple(1 for _ in range(6)) for _ in range(4)),)
    spec = oracles.table_code(f3, ones, m=2, s=2)
    report = verify_mds(spec)
    assert not report.is_mds
    sys_cols = [c for c in report.failing_pattern if c < spec.k]
    assert len(sys_cols) == 2
    assert oracles.family_index(spec, sys_cols[0]) == oracles.family_index(spec, sys_cols[1])


def test_unit_coefficients_over_gf2_not_mds():
    f2 = gf.field_create("prime", 2)
    ones = (tuple(tuple(1 for _ in range(3)) for _ in range(4)),)
    spec = oracles.table_code(f2, ones, m=2)
    assert not verify_mds(spec).is_mds


ORACLE_SPECS = {
    "cons3-m1": lambda: build_code("cons3", m=1),
    "cons3-m2": lambda: build_code("cons3", m=2),
    "cons4-m1-s2": lambda: build_code("cons4", m=1, s=2),
    "r3-m1": lambda: build_code("r3", m=1),
    "weightw-m2-w2": lambda: build_code("weightw", family="weightw", m=2, w=2),
    "ones-gf2-m2": lambda: oracles.table_code(gf.field_create("prime", 2),
                                              (((1,) * 3,) * 4,), m=2),
    "ones-gf2-m1-s2": lambda: oracles.table_code(gf.field_create("prime", 2),
                                                 (((1,) * 4,) * 2,), s=2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_verify_mds_matches_exhaustive_search(name):
    spec = ORACLE_SPECS[name]()
    checked, failing = 0, None
    for pattern in (pattern for size in range(1, spec.r + 1)
                    for pattern in combinations(range(spec.n), size)):
        checked += 1
        if not oracles.decodable(spec, pattern):
            failing = pattern
            break
    report = verify_mds(spec)
    assert (report.is_mds, report.failing_pattern, report.patterns_checked) == (
        failing is None, failing, checked)


def test_verify_mds_size_limit():
    spec = build_code("cons4", m=10, s=2)
    with pytest.raises(ValueError):
        verify_mds(spec)


def test_structural_family_checks():
    assert is_standard_basis(standard_basis_family(3, 2))
    spec = build_code("weightw", family="weightw", m=6, w=3)
    assert block_width(spec.family) == 3
    assert block_width(standard_basis_family(3, 2)) is None


def test_explicit_family_config_form():
    spec = build_code("cons3", family="explicit", vectors="00,10,01", m=2, r=2)
    assert spec.family == standard_basis_family(2, 2)

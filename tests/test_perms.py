import pytest

import oracles
from test_codec import SPECS, access_rows
from zzmds import analysis, perms
from zzmds.construct import build_code
from zzmds.perms import (RVector, VectorFamily, access_sets, make_family, parse_vector_list,
                         standard_basis_family, weight_w_family)


def all_nonzero_vectors(m, r):
    out = []
    for x in range(1, r ** m):
        v = RVector(oracles.digits_of(x, r, m), r)
        if v.admissible:
            out.append(v)
    return out


def test_digit_convention_msb_first():
    assert oracles.digits_of(3, 2, 2) == (1, 1)
    assert oracles.digits_of(1, 2, 2) == (0, 1)
    assert oracles.digits_of(5, 3, 2) == (1, 2)
    assert oracles.int_of((1, 0), 3) == 3


def test_binary_shift_example():
    # (1,1) + (1,0) = (0,1), i.e. row 3 maps to row 1
    v = RVector((1, 0), 2)
    assert oracles.perm_apply(v, 1, 3) == 1
    assert [oracles.perm_apply(v, 1, x) for x in range(4)] == [2, 3, 0, 1]


def test_ternary_shift_follows_definition():
    # The digit chain (1,1) + (0,2) = (1,0) means row 4 -> row 3 under a
    # double shift by (0,1); row 5 = (1,2) lands on (1,1) = 4.
    v = RVector((0, 1), 3)
    assert oracles.perm_apply(v, 2, 4) == 3
    assert oracles.perm_unapply(v, 2, 3) == 4
    assert oracles.perm_apply(v, 2, 5) == 4


def test_shift_identity_at_zero_steps():
    for r, m in ((2, 3), (3, 2)):
        for v in all_nonzero_vectors(m, r):
            for x in range(r ** m):
                assert oracles.perm_apply(v, 0, x) == x


def test_shift_is_bijection():
    for r, m in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for v in all_nonzero_vectors(m, r):
            for i in range(r):
                image = {oracles.perm_apply(v, i, x) for x in range(r ** m)}
                assert image == set(range(r ** m))


def test_unapply_inverts_apply():
    for r, m in ((2, 3), (3, 2), (3, 3)):
        for v in all_nonzero_vectors(m, r):
            for i in range(r):
                for x in range(r ** m):
                    assert oracles.perm_unapply(v, i, oracles.perm_apply(v, i, x)) == x


def test_self_inverse_in_radix_two():
    for v in all_nonzero_vectors(3, 2):
        for x in range(8):
            assert oracles.perm_unapply(v, 1, x) == oracles.perm_apply(v, 1, x)


def test_access_set_values():
    v = RVector((1, 0), 2)
    assert access_sets(v)[0] == frozenset({0, 1})
    zero = RVector((0, 0), 2)
    assert access_sets(zero, special_zero=True)[0] == frozenset({0, 3})
    with pytest.raises(ValueError):
        access_sets(zero)


def test_access_set_sizes_and_partition():
    for r, m in ((2, 3), (3, 2), (3, 3)):
        for v in all_nonzero_vectors(m, r):
            sets = access_sets(v)
            assert all(len(x) == r ** (m - 1) for x in sets)
            union = set()
            for x in sets:
                assert not (union & x)
                union |= x
            assert union == set(range(r ** m))
        zero = RVector((0,) * m, r)
        sets = access_sets(zero, special_zero=True)
        assert all(len(x) == r ** (m - 1) for x in sets)
        assert set().union(*sets) == set(range(r ** m))


def test_access_sets_match_explicit_construction():
    for r, m in ((2, 1), (2, 3), (3, 2), (3, 3), (5, 2)):
        for v in all_nonzero_vectors(m, r):
            assert perms.access_sets(v) == tuple(
                oracles.explicit_access_set(v.digits, s, r, m) for s in range(r))
        zero = RVector((0,) * m, r)
        assert perms.access_sets(zero, special_zero=True) == tuple(
            oracles.explicit_access_set(zero.digits, s, r, m, zero_special=True)
            for s in range(r))


@pytest.mark.parametrize("make", [*(SPECS[name] for name in sorted(SPECS)),
                                  lambda: build_code("r3", m=3),
                                  lambda: build_code("weightw", family="weightw", m=6, w=3)],
                         ids=[*sorted(SPECS), "r3-m3", "weightw-m6"])
def test_access_rows_match_explicit_sets(make):
    spec = make()
    for col in range(spec.k):
        idx = oracles.family_index(spec, col)
        digits, zero = spec.family.vectors[idx].digits, spec.family.is_zero(idx)
        for sidx in range(spec.r):
            assert access_rows(spec, col, sidx) == oracles.explicit_access_set(
                digits, sidx, spec.r, spec.m, zero_special=zero)


def test_inadmissible_vector_rejected():
    v = RVector((2, 0), 4)
    assert not v.admissible
    with pytest.raises(ValueError):
        access_sets(v)


def test_closed_form_matches_explicit_sets():
    # Every ordered pair of admissible nonzero vectors, every (i, j).
    for r, m in ((2, 3), (2, 4), (3, 2), (3, 3), (3, 4)):
        vectors = all_nonzero_vectors(m, r)
        for v in vectors:
            for u in vectors:
                if u == v:
                    continue
                transfers = [oracles.explicit_transfer(v.digits, u.digits, i, r, m)
                             for i in range(r)]
                for i in range(r):
                    for j in range(r):
                        expected = len(transfers[i] & transfers[j])
                        assert oracles.intersection_size(v, u, i, j) == expected


def test_intersection_same_parity_is_full():
    v, u = RVector((1, 0, 1), 2), RVector((0, 1, 1), 2)
    for i in range(2):
        assert oracles.intersection_size(v, u, i, i) == 4


def test_intersection_rejects_zero_vector():
    zero = RVector((0, 0), 2)
    with pytest.raises(ValueError):
        oracles.intersection_size(zero, RVector((1, 0), 2), 0, 1)


def test_overlap_parity_rule():
    # Extra rows appear exactly when the support difference is even.
    for m in (3, 4):
        vectors = all_nonzero_vectors(m, 2)
        for v in vectors:
            for u in vectors:
                if u == v:
                    continue
                expected = 2 ** (m - 1) if oracles.support_difference(
                    v.digits, u.digits) % 2 == 0 else 0
                assert oracles.overlap_r2(v.digits, u.digits, m) == expected


def test_pair_union_size_matches_per_parity_transfers():
    # The closed form r^m / gcd(r, c) against the union over parities of the
    # explicit transfer sets, for every ordered pair of distinct admissible
    # vectors, with the designated zero vector on either side.
    for r, m in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1), (5, 2)):
        family = VectorFamily((RVector((0,) * m, r), *all_nonzero_vectors(m, r)), 0)
        for vi, v in enumerate(family.vectors):
            for ui, u in enumerate(family.vectors):
                if ui == vi:
                    continue
                rows = frozenset().union(*(oracles.explicit_transfer(
                    v.digits, u.digits, i, r, m, v_zero=vi == 0) for i in range(r)))
                assert analysis._pair_union_size(family, vi, ui) == len(rows), (v, u)


def test_orthogonality_standard_basis():
    for r in (2, 3):
        for m in (1, 2, 3):
            fam = standard_basis_family(m, r)
            assert oracles.orthogonality_violations(fam) == []


def test_orthogonality_failure_reported():
    fam = make_family([RVector((1, 0), 2), RVector((1, 1), 2)])
    violations = oracles.orthogonality_violations(fam)
    assert violations
    # The failing direction rebuilds (1,0) while reading (1,1): the pair
    # constant is odd, so the two transfer sets are disjoint, not equal.
    assert (0, 1, 1) in violations
    v, u = fam.vectors
    assert oracles.intersection_size(v, u, 1, 0) == 0
    assert oracles.explicit_transfer(v.digits, u.digits, 1, 2, 2) != \
        oracles.explicit_transfer(v.digits, u.digits, 0, 2, 2)


def test_standard_basis_families():
    fam = standard_basis_family(2, 2)
    assert [v.digits for v in fam.vectors] == [(0, 0), (1, 0), (0, 1)]
    assert fam.zero_index == 0
    assert standard_basis_family(1, 2).size == 2
    for m in (1, 2, 3, 4):
        assert standard_basis_family(m, 3).size == m + 1


def test_weight_w_families():
    fam = weight_w_family(6, 3)
    assert fam.size == 8
    assert RVector((1, 0, 0, 1, 0, 1), 2) in fam.vectors
    assert weight_w_family(3, 3).vectors == (RVector((1, 1, 1), 2),)
    assert weight_w_family(4, 2).size == 4
    with pytest.raises(ValueError):
        weight_w_family(7, 3)
    with pytest.raises(ValueError):
        weight_w_family(4, 1)


def test_family_validation():
    with pytest.raises(ValueError):
        make_family([RVector((0, 0), 2), RVector((0, 0), 2)])  # two zeros
    with pytest.raises(ValueError):
        make_family([RVector((1, 0), 2), RVector((1, 0), 2)])  # duplicate
    with pytest.raises(ValueError):
        make_family([RVector((2, 0), 4)])  # inadmissible
    fam = make_family(parse_vector_list("00,10,01", 2))
    assert fam.zero_index == 0
    assert fam == standard_basis_family(2, 2)


def test_vector_list_roundtrip():
    text = "00,10,01"
    fam = parse_vector_list(text, 2)
    assert perms.format_vector_list(fam) == text
    with pytest.raises(ValueError):
        parse_vector_list("0a,10", 2)
    with pytest.raises(ValueError):
        parse_vector_list("02,10", 2)  # digit out of radix


def test_no_orthogonal_triple_on_two_rows():
    # Exhaustive over all (permutation, half-set) pairs on [0, 1]: the best
    # orthogonal family has two members, never three.
    assert oracles.search_orthogonal_family(1, 3) is None
    found = oracles.search_orthogonal_family(1, 2)
    assert found is not None
    # the standard family (identity and swap, each keeping {0}) qualifies
    identity, swap = (0, 1), (1, 0)
    assert oracles.orthogonal_pairs_r2(
        [(identity, frozenset({0})), (swap, frozenset({0}))], 1)

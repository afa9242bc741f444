from fractions import Fraction

import pytest

import oracles
from zzmds import analysis, gf
from zzmds.construct import build_code


def test_predicted_standard_r2():
    for m in (1, 2, 3, 4):
        spec = build_code("cons3", m=m)
        assert analysis.predicted_ratio(spec) == Fraction(1, 2)
        assert not analysis.predicted_is_bound(spec)


def test_predicted_standard_r3():
    for m in (2, 3, 4):
        spec = build_code("r3", m=m)
        assert analysis.predicted_ratio(spec) == Fraction(1, 3)


def test_duplication_bound_values():
    spec = build_code("cons4", m=10, s=2)
    assert analysis.predicted_ratio(spec) == Fraction(12, 23)
    assert analysis.predicted_is_bound(spec)
    spec6 = build_code("cons4", m=10, s=6)
    assert analysis.predicted_ratio(spec6) == Fraction(36, 67)
    # printed three-decimal values are within 5e-4, in exact arithmetic
    assert abs(Fraction(12, 23) - Fraction(522, 1000)) <= Fraction(5, 10000)
    assert abs(Fraction(36, 67) - Fraction(537, 1000)) <= Fraction(5, 10000)


def test_duplication_bound_closed_form():
    for m, s in ((2, 2), (3, 2), (2, 3), (10, 2), (10, 6)):
        spec = build_code("cons4", m=m, s=s,
                          field=gf.field_create("prime", 7))
        expect = Fraction(1, 2) * (1 + Fraction(s - 1, s * (m + 1) + 1))
        assert analysis.predicted_ratio(spec) == expect


def test_measured_equals_predicted_without_duplication():
    specs = [
        build_code("cons3", m=1),
        build_code("cons3", m=2),
        build_code("cons3", m=3),
        build_code("cons3", m=4),
        build_code("r3", m=2),
        build_code("r3", m=3),
        build_code("weightw", family="weightw", m=3, w=3),
        build_code("weightw", family="weightw", m=6, w=3),
    ]
    for spec in specs:
        assert analysis.measure_rebuild(spec)[1] == analysis.predicted_ratio(spec)


def test_measured_duplication_small_case():
    spec = build_code("cons4", m=2, s=2)
    measured = analysis.measure_rebuild(spec)[1]
    assert measured == Fraction(4, 7)
    assert measured == analysis.predicted_ratio(spec)  # bound is tight here


def test_measured_never_exceeds_duplication_bound():
    for m, s in ((1, 2), (2, 2), (2, 3), (3, 2)):
        spec = build_code("cons4", m=m, s=s, field=gf.field_create("prime", 5))
        assert analysis.measure_rebuild(spec)[1] <= analysis.predicted_ratio(spec)


def test_terms_vanish_for_orthogonal_families():
    for spec in (build_code("cons3", m=3), build_code("r3", m=2)):
        terms = oracles.ratio_formula_terms(spec)
        assert all(v == 0 for row in terms for v in row)


def test_terms_weightw_match_support_parity():
    spec = build_code("weightw", family="weightw", m=6, w=3)
    terms = oracles.ratio_formula_terms(spec)
    vecs = spec.family.vectors
    for vi, v in enumerate(vecs):
        for ui, u in enumerate(vecs):
            if vi == ui:
                continue
            even = oracles.support_difference(v.digits, u.digits) % 2 == 0
            assert terms[vi][ui] == (2 ** 5 if even else 0)


def test_terms_aggregate_to_prediction():
    for spec in (build_code("cons3", m=3),
                 build_code("weightw", family="weightw", m=6, w=3),
                 build_code("r3", m=2)):
        terms = oracles.ratio_formula_terms(spec)
        K, p, r = spec.base_k, spec.p, spec.r
        total = K * p  # parity reads
        for vi in range(K):
            for ui in range(K):
                if vi != ui:
                    total += p // r + terms[vi][ui]
        assert Fraction(total, K * (K - 1 + r) * p) == analysis.predicted_ratio(spec)


def test_weightw_prediction_against_pairwise_overlap_sum():
    # Independent route: per-pair overlaps built from explicit sets feed the
    # average-ratio sum 1/2 + sum/(p k (k+1)).
    spec = build_code("weightw", family="weightw", m=6, w=3)
    vecs = spec.family.vectors
    total = 0
    for v in vecs:
        for u in vecs:
            if u != v:
                total += oracles.overlap_r2(v.digits, u.digits, spec.m)
    k, p = spec.base_k, spec.p
    expect = Fraction(1, 2) + Fraction(total, p * k * (k + 1))
    assert analysis.predicted_ratio(spec) == expect
    assert expect == Fraction(2, 3)


def test_terms_require_no_duplication():
    with pytest.raises(ValueError):
        oracles.ratio_formula_terms(build_code("cons4", m=2, s=2))


def test_asymptotics():
    assert oracles.asymptotic_ratio("weightw", 30, w=3) == Fraction(1, 2) + Fraction(9, 60)
    assert oracles.asymptotic_ratio("weightw", 6, w=3) == Fraction(1, 2) + Fraction(9, 12)
    assert oracles.asymptotic_ratio("standard", 5) == Fraction(1, 2)
    assert oracles.asymptotic_ratio("standard", 5, r=3) == Fraction(1, 3)
    with pytest.raises(ValueError):
        oracles.asymptotic_ratio("weightw", 6)
    # the standard family meets its asymptotic ratio at every m
    assert analysis.predicted_ratio(build_code("cons3", m=5)) == \
        oracles.asymptotic_ratio("standard", 5)
    assert analysis.predicted_ratio(build_code("r3", m=3)) == \
        oracles.asymptotic_ratio("standard", 3, r=3)


def test_lower_bounds():
    assert analysis.lower_bound_ratio(5, 3) == Fraction(1, 2)
    assert analysis.lower_bound_ratio(6, 3) == Fraction(1, 3)
    for m in (1, 2, 5, 10):
        assert analysis.lower_bound_ratio(m + 3, m + 1) == Fraction(1, 2)
    with pytest.raises(ValueError):
        analysis.lower_bound_ratio(3, 3)


def test_prediction_dominates_lower_bound():
    cases = [
        (build_code("cons3", m=3), True),
        (build_code("r3", m=2), True),
        (build_code("weightw", family="weightw", m=6, w=3), False),
    ]
    for spec, optimal in cases:
        predicted = analysis.predicted_ratio(spec)
        bound = analysis.lower_bound_ratio(spec.n, spec.k)
        assert predicted >= bound
        assert (predicted == bound) is optimal


def test_measured_at_least_one_over_r():
    for spec in (build_code("cons3", m=2), build_code("cons4", m=2, s=2),
                 build_code("r3", m=2)):
        assert analysis.measure_rebuild(spec)[1] >= Fraction(1, spec.r)


def test_ratio_report_contents():
    report = analysis.ratio_report(build_code("cons3", m=2))
    lines = report.as_kv_lines()
    assert "ratio_predicted_num=1" in lines
    assert "ratio_predicted_den=2" in lines
    assert "ratio_measured_num=1" in lines
    assert "cells_to_rebuild_node_0=8" in lines
    assert "1/2" in report.as_table()


def test_ratio_report_skips_measurement_when_large():
    report = analysis.ratio_report(build_code("cons4", m=10, s=6))
    assert report.measured is None
    assert report.per_target_cells == []
    assert "36/67" in report.as_table()
    assert "0.537" in report.as_table()

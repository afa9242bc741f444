"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (visible under `pytest -s`).  Tolerances are exact unless a
criterion states a numeric slack; time budgets are asserted as stated.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import oracles
from test_codec import access_rows
from zzmds import analysis, gf
from zzmds.analysis import verify_mds
from zzmds.construct import build_code
from zzmds.files import as_column
from zzmds.perms import standard_basis_family


@contextmanager
def criterion(num, budget, title):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} FAIL ({time.perf_counter() - t0:.2f}s): {title}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num} PASS ({elapsed:.2f}s, budget {budget:.0f}s): {title}")
    assert elapsed < budget, f"criterion {num} blew its {budget}s budget"


def random_info(spec, rng):
    """k information columns of p random symbols."""
    return [[rng.randrange(spec.field.q) for _ in range(spec.p)]
            for _ in range(spec.k)]


def encode(spec, info):
    """The one-stripe node columns (T = 1) of the stripe whose information
    columns hold the symbol lists `info`."""
    cols = [as_column(spec.field.q, col) for col in info]
    return cols + spec.plan.encode(cols, 1)


def decoded(spec, stripe, erased):
    """The stripe decoded by the plan with the erased columns None."""
    cols = [None if node in erased else col for node, col in enumerate(stripe)]
    spec.plan.decode(cols, 1, erased)
    return cols


def test_criterion_1_code53_golden():
    with criterion(1, 1, "golden (5,3) code: zigzag sets and coefficients reproduced exactly"):
        spec = build_code("cons3", m=2)

        def members(zidx):
            return {(row, col, c) for col, row, c in spec.plan.parity[1][zidx]}

        # z_0 = a_00 + 2 a_21 + 2 a_12 ; z_1 = a_10 + 2 a_31 + a_02
        assert members(0) == {(0, 0, 1), (2, 1, 2), (1, 2, 2)}
        assert members(1) == {(1, 0, 1), (3, 1, 2), (0, 2, 1)}
        assert sorted(access_rows(spec, 0, 0)) == [0, 3]
        assert sorted(access_rows(spec, 1, 0)) == [0, 1]
        assert sorted(access_rows(spec, 2, 0)) == [0, 2]


def test_criterion_2_optimal_ratio_r2():
    with criterion(2, 5, "half-column reads and exact ratio 1/2 for m=2..5"):
        rng = random.Random(101)
        for m in (2, 3, 4, 5):
            spec = build_code("cons3", m=m)
            stripe = encode(spec, random_info(spec, rng))
            total = 0
            for col in range(spec.k):
                assert decoded(spec, stripe, [col]) == stripe
                plan = spec.plan.rebuild_plan(col)
                for node in range(spec.n):
                    if node != col:
                        assert plan.cells_in(node) == 2 ** (m - 1)
                total += plan.cells_read
            assert Fraction(total, spec.k * spec.p * (spec.n - 1)) == Fraction(1, 2)


def test_criterion_3_optimal_ratio_r3():
    with criterion(3, 10, "third-column reads and exact ratio 1/3 for r=3, m=2..3"):
        rng = random.Random(103)
        for m in (2, 3):
            spec = build_code("r3", m=m)
            stripe = encode(spec, random_info(spec, rng))
            total = 0
            for col in range(spec.k):
                assert decoded(spec, stripe, [col]) == stripe
                plan = spec.plan.rebuild_plan(col)
                for node in range(spec.n):
                    if node != col:
                        assert plan.cells_in(node) == 3 ** (m - 1)
                total += plan.cells_read
            assert Fraction(total, spec.k * spec.p * (spec.n - 1)) == Fraction(1, 3)


def test_criterion_4_duplication():
    with criterion(4, 1, "duplication ratio 4/7 measured; 12/23 and 36/67 by formula"):
        spec = build_code("cons4", m=2, s=2)
        measured = analysis.measure_rebuild(spec)[1]
        closed_form = Fraction(1, 2) * (1 + Fraction(2 - 1, 2 * 3 + 1))
        assert measured == Fraction(4, 7) == closed_form

        for s, expect, printed in ((2, Fraction(12, 23), Fraction(522, 1000)),
                                   (6, Fraction(36, 67), Fraction(537, 1000))):
            value = analysis.predicted_ratio(build_code("cons4", m=10, s=s))
            assert value == expect
            assert abs(value - printed) <= Fraction(5, 10000)


def verified_specs():
    return {
        "cons3-m1": build_code("cons3", m=1),
        "cons3-m2": build_code("cons3", m=2),
        "cons3-m3": build_code("cons3", m=3),
        "cons3-m4": build_code("cons3", m=4),
        "cons4-m2-s2-gf3": build_code("cons4", m=2, s=2),
        "cons4-m2-s2-gf4": build_code(
            "cons4", m=2, s=2, field=gf.field_create("binary-extension", 2)),
        "cons4-m2-s3-gf5": build_code(
            "cons4", m=2, s=3, field=gf.field_create("prime", 5)),
        "weightw-m6-gf9": build_code("weightw", family="weightw", m=6, w=3),
        "weightw-m6-gf16": build_code(
            "weightw", family="weightw", m=6, w=3,
            field=gf.field_create("binary-extension", 4)),
        "r3-m2": build_code("r3", m=2),
    }


def test_criterion_5_exhaustive_mds():
    with criterion(5, 120, "exhaustive MDS checks pass; broken variants fail"):
        for name, spec in verified_specs().items():
            report = verify_mds(spec)
            assert report.is_mds, f"{name} rejected at {report.failing_pattern}"

        f3 = gf.field_create("prime", 3)
        ones6 = (tuple(tuple(1 for _ in range(6)) for _ in range(4)),)
        dup_unit = oracles.table_code(f3, ones6, m=2, s=2)
        assert not verify_mds(dup_unit).is_mds

        f2 = gf.field_create("prime", 2)
        ones3 = (tuple(tuple(1 for _ in range(3)) for _ in range(4)),)
        gf2_port = oracles.table_code(f2, ones3, m=2)
        assert not verify_mds(gf2_port).is_mds


def test_criterion_6_erasure_roundtrip():
    with criterion(6, 120, "every erasure pattern of size <= r decodes exactly (m <= 3)"):
        rng = random.Random(106)
        small = {name: spec for name, spec in verified_specs().items()
                 if spec.m <= 3}
        small["weightw-m3"] = build_code("weightw", family="weightw", m=3, w=3)
        for name, spec in small.items():
            patterns = [pat for size in range(1, spec.r + 1)
                        for pat in combinations(range(spec.n), size)]
            for _ in range(20):
                stripe = encode(spec, random_info(spec, rng))
                for pattern in patterns:
                    assert decoded(spec, stripe, pattern) == stripe, f"{name} failed on {pattern}"


def test_criterion_7_error_decoding_exhaustive():
    with criterion(7, 30, "all single-column corruptions located and corrected"):
        spec = build_code("cons3", m=2)
        rng = random.Random(107)
        stripe = encode(spec, random_info(spec, rng))
        f = spec.field
        for node in range(spec.n):
            for packed in range(1, 3 ** 4):
                pattern = [(packed // 3 ** x) % 3 for x in range(4)]
                bad = [col[:] for col in stripe]
                bad[node] = as_column(f.q, [f.add(a, d) for a, d in zip(bad[node], pattern)])
                fixed, uncorrectable = spec.plan.repair(bad, 1)
                assert uncorrectable is None
                assert fixed == {0: node}, "mislocated corruption"
                assert bad == stripe


def test_criterion_8_formula_measurement_reconciliation():
    with criterion(8, 10, "predicted == measured exactly; weight-3 m=6 sum agrees"):
        undup = [build_code("cons3", m=m) for m in (1, 2, 3, 4)]
        undup += [build_code("r3", m=2), build_code("r3", m=3)]
        undup += [build_code("weightw", family="weightw", m=3, w=3)]
        ww6 = build_code("weightw", family="weightw", m=6, w=3)
        undup.append(ww6)
        for spec in undup:
            assert analysis.measure_rebuild(spec)[1] == analysis.predicted_ratio(spec)

        # pairwise-overlap route: 1/2 + sum |f_v(X_v) n f_u(X_v)| / (p k (k+1))
        total = 0
        for v in ww6.family.vectors:
            for u in ww6.family.vectors:
                if u != v:
                    total += oracles.overlap_r2(v.digits, u.digits, ww6.m)
        k, p = ww6.base_k, ww6.p
        assert analysis.predicted_ratio(ww6) == \
            Fraction(1, 2) + Fraction(total, p * k * (k + 1))


def test_criterion_9_orthogonality_and_size_bound():
    with criterion(9, 10, "standard families orthogonal; no size-3 family on 2 rows"):
        for r in (2, 3):
            for m in (1, 2, 3, 4):
                assert oracles.orthogonality_violations(standard_basis_family(m, r)) == []
        assert oracles.search_orthogonal_family(1, 3) is None
        assert oracles.search_orthogonal_family(1, 2) is not None

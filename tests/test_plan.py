import pytest

from zzmds import gf
from zzmds.construct import build_code
from zzmds.plan import TABLE_MAX_Q


def tabulated_fields():
    """Every field a scheme can be built over that gets materialised tables."""
    primes = [q for q in range(2, TABLE_MAX_Q + 1) if gf.is_prime(q)]
    return ([gf.field_create("prime", q) for q in primes]
            + [gf.field_create("binary-extension", w) for w in range(2, 9)]
            + [gf.gf9()])


@pytest.mark.parametrize("field", tabulated_fields(), ids=lambda f: f.token)
def test_tables_match_field_exhaustively(field):
    ones = ((((1,) * 2),) * 2,)   # m=1, r=2: a 2 x 2 table of unit coefficients
    plan = build_code("table", m=1, field=field, coefficients=ones).plan
    q = field.q
    assert len(plan.add) == len(plan.mul) == len(plan.neg) == q
    for a in range(q):
        assert plan.add[a] == [field.add(a, b) for b in range(q)]
        assert plan.mul[a] == [field.mul(a, b) for b in range(q)]
        assert plan.add[a][plan.neg[a]] == 0


def test_sparse_rank_and_overdetermined():
    f5 = gf.field_create("prime", 5)
    plan = build_code("table", m=1, field=f5, coefficients=((((1,) * 2),) * 2,)).plan
    eqs = [{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}, {0: 2, 1: 2}]
    # full rank in three unknowns; the fourth row is twice the first
    assert plan._eliminate(eqs, 3) == {0: {0: 1}, 1: {1: 1}, 2: {2: 1}}
    # column 1 is known: pivots stay on column 0, a row left with only
    # known columns is dropped, and the pivot row reads u0 = -2 * s1
    assert plan._eliminate([{0: 3, 1: 1}, {0: 1, 1: 2}], 1) == {0: {0: 1, 1: 2}}
    assert plan._eliminate([{0: 1, 1: 1}, {0: 2, 1: 2}], 2) == {0: {0: 1, 1: 1}}

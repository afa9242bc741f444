import functools
import itertools
import random

import pytest

import oracles
from test_plan import tabulated_fields
from zzmds import gf


def small_fields():
    return [
        gf.field_create("prime", 2),
        gf.field_create("prime", 3),
        gf.field_create("prime", 5),
        gf.field_create("prime", 7),
        gf.field_create("prime", 13),
        gf.field_create("binary-extension", 2),
        gf.field_create("binary-extension", 3),
        gf.field_create("binary-extension", 4),
        gf.gf9(),
    ]


@pytest.fixture(params=small_fields(), ids=lambda f: f.token)
def field(request):
    return request.param


def test_axioms_exhaustive(field):
    els = list(range(field.q))
    if field.q <= 16:
        triples = [(a, b, c) for a in els for b in els for c in els]
    else:
        rng = random.Random(7)
        triples = [(rng.choice(els), rng.choice(els), rng.choice(els))
                   for _ in range(2000)]
    for a, b, c in triples:
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    for a in els:
        assert field.add(a, 0) == a
        assert field.mul(a, 1) == a
        assert field.add(a, field.neg(a)) == 0
        assert field.sub(a, a) == 0
        if a:
            assert field.mul(a, field.inv(a)) == 1


def test_axioms_randomized_large_fields():
    rng = random.Random(11)
    for field in (gf.field_create("prime", 251), gf.field_create("binary-extension", 8)):
        for _ in range(500):
            a, b, c = (rng.randrange(field.q) for _ in range(3))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            assert field.mul(a, b) == field.mul(b, a)
            if a:
                assert field.mul(a, field.inv(a)) == 1


def test_primitive_enumerates_all_nonzero(field):
    seen = set()
    acc = 1
    for _ in range(field.q - 1):
        acc = field.mul(acc, field.primitive)
        seen.add(acc)
    assert seen == set(range(1, field.q))
    assert acc == 1  # full cycle back to the identity


def test_every_nonzero_to_the_q_minus_1_is_one(field):
    for a in range(1, field.q):
        assert field.pow(a, field.q - 1) == 1


def test_signed_power_matches_inverse(field):
    for a in range(1, field.q):
        for t in range(5):
            assert field.pow(a, -t) == field.inv(field.pow(a, t))


def test_power_of_zero():
    f = gf.field_create("prime", 3)
    assert f.pow(0, 0) == 1
    assert f.pow(0, 4) == 0
    with pytest.raises(gf.FieldError):
        f.pow(0, -1)
    with pytest.raises(gf.FieldError):
        f.inv(0)


def test_gf3_examples():
    f = gf.field_create("prime", 3)
    assert f.primitive == 2
    assert f.add(2, 2) == 1
    assert f.inv(2) == 2


def test_gf2_degenerate():
    f = gf.field_create("prime", 2)
    assert f.q == 2 and f.primitive == 1
    assert gf.field_create("binary-extension", 1) == f
    assert f.pow(1, -3) == 1


def test_gf16_modulus_is_primitive():
    # Recompute x^t mod (x^4 + x + 1) with raw bit arithmetic: the order of x
    # must be exactly 15, which also certifies irreducibility.
    mod = 0b10011
    acc = 1
    order = 0
    seen = set()
    while True:
        acc <<= 1
        if acc & 0b10000:
            acc ^= mod
        order += 1
        if acc == 1:
            break
        assert acc not in seen
        seen.add(acc)
    assert order == 15

    field = gf.field_create("binary-extension", 4)
    assert field.pow(2, 15) == 1
    assert all(field.pow(2, t) != 1 for t in range(1, 15))


def test_gf9_modulus_and_primitive():
    # y^2 + y + 2 has no roots over GF(3), so it is irreducible.
    assert all((y * y + y + 2) % 3 != 0 for y in range(3))
    f = gf.gf9()
    assert f.primitive == 3  # the polynomial y
    powers = {f.pow(3, t) for t in range(1, 9)}
    assert len(powers) == 8 and f.pow(3, 8) == 1


def test_least_primitive_roots():
    known = {3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 23: 5}
    for p, root in known.items():
        assert gf.field_create("prime", p).primitive == root


def test_field_create_errors():
    with pytest.raises(gf.FieldError):
        gf.field_create("prime", 4)
    with pytest.raises(gf.FieldError):
        gf.field_create("prime", 1)
    with pytest.raises(gf.FieldError):
        gf.field_create("prime", 65537)  # prime, but past the supported bound
    with pytest.raises(gf.FieldError):
        gf.field_create("binary-extension", 0)
    with pytest.raises(gf.FieldError):
        gf.field_create("binary-extension", 9)
    with pytest.raises(gf.FieldError):
        gf.field_create("ternary", 3)


def test_reducible_modulus_rejected():
    with pytest.raises(gf.FieldError):
        gf.Field(2, 2, (0, 0))        # x^2 = x * x
    with pytest.raises(gf.FieldError):
        gf.Field(2, 4, (1, 0, 1, 0))  # x^4 + x^2 + 1 = (x^2 + x + 1)^2
    with pytest.raises(gf.FieldError):
        gf.Field(3, 2, (2, 0))        # y^2 + 2 has root y=1 over GF(3)


def test_walk_accepts_exactly_the_primitive_moduli():
    # Every monic modulus of these degrees: the field is built exactly when
    # x has order q - 1, and the bounded walk also ends on zero divisors.
    cases = [(2, w) for w in range(2, 7)] + [(3, 2), (3, 3), (5, 2), (7, 2)]
    checked = 0
    for char, w in cases:
        for low in itertools.product(range(char), repeat=w):
            checked += 1
            if oracles.x_order(char, low) == char ** w - 1:
                field = gf.Field(char, w, low)
                assert field.primitive == char and len(set(field.exp)) == field.q - 1
            else:
                with pytest.raises(gf.FieldError, match="is not primitive"):
                    gf.Field(char, w, low)
    assert checked == 234
    with pytest.raises(gf.FieldError, match=r"modulus \(0, 0, 0, 0, 0, 0, 0, 0\) \+ x\^8"):
        gf.Field(2, 8, (0,) * 8)    # x^8 = 0: x is nilpotent


def test_tokens_roundtrip():
    for token in ("gf(3)", "gf(7)", "gf(2^4)", "gf(9)"):
        assert gf.field_from_token(token).token == token
    assert gf.field_from_token("gf(4)").token == "gf(2^2)"
    assert gf.field_from_token("gf(2)").token == "gf(2)"
    with pytest.raises(gf.FieldError):
        gf.field_from_token("gf[3]")
    with pytest.raises(gf.FieldError):
        gf.field_from_token("gf(3^2)")


def test_element_check():
    f = gf.field_create("prime", 5)
    with pytest.raises(gf.FieldError):
        f.check(5)
    with pytest.raises(gf.FieldError):
        f.check(-1)
    with pytest.raises(gf.FieldError):
        f.pow(7, 2)


@pytest.mark.parametrize("field", tabulated_fields() + [gf.field_create("prime", 257),
                                                       gf.field_create("prime", 65521)],
                         ids=lambda f: f.token)
def test_exp_log_tables_walk_the_primitive(field):
    exp, log = field.exp, field.log
    assert len(exp) == field.q - 1 and len(log) == field.q
    assert exp[0] == 1
    for i in range(field.q - 2):
        assert exp[i + 1] == field.mul(exp[i], field.primitive)
    for i, v in enumerate(exp):
        assert log[v] == i


class MemoMul:
    """The structural product of `field`, each pair computed once: the
    square-and-multiply oracle repeats the same products many times."""

    def __init__(self, field):
        self.q, self.mul = field.q, functools.cache(field.mul)


@pytest.mark.parametrize("field", tabulated_fields(), ids=lambda f: f.token)
def test_pow_and_inv_match_structural_oracle(field):
    q, structural = field.q, MemoMul(field)
    signed = range(-q, 2 * q + 1)
    natural = range(2 * q + 1)
    assert [field.pow(0, e) for e in natural] == [oracles.power(field, 0, e) for e in natural]
    with pytest.raises(gf.FieldError):
        field.pow(0, -1)
    for a in range(1, q):
        # the oracle reduces e mod q-1 first: one call per residue covers `signed`
        want = [oracles.power(structural, a, e) for e in range(q - 1)]
        assert [field.pow(a, e) for e in signed] == [want[e % (q - 1)] for e in signed]
        assert field.mul(a, field.inv(a)) == 1

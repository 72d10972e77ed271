import itertools

import pytest

from cdcodes.gf import (
    GF,
    GFExtension,
    extension_field,
    factor_prime_power,
    field_of_order,
    is_prime,
    prime_field,
)

SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9]


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    for bad in (1, 6, 12):
        with pytest.raises(ValueError):
            factor_prime_power(bad)


def test_make_field_moduli_deterministic():
    assert GF(2, 1).modulus == (0, 1)  # x
    assert GF(2, 2).modulus == (1, 1, 1)  # x^2 + x + 1, the only option
    assert GF(3, 2).modulus == (1, 0, 1)  # x^2 + 1
    # two constructions agree element-for-element
    a, b = GF(2, 3), GF(2, 3)
    assert a.modulus == b.modulus
    assert [a.mul(x, y) for x in range(8) for y in range(8)] == [
        b.mul(x, y) for x in range(8) for y in range(8)
    ]


def test_make_field_rejects_bad_input():
    with pytest.raises(ValueError):
        GF(4, 1)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(0, 0, 1))  # x^2 is reducible


def test_gf4_arithmetic_examples():
    f4 = GF(2, 2)  # alpha has code 2
    assert f4.add(1, 1) == 0
    assert f4.mul(2, 2) == 3  # alpha^2 = alpha + 1
    assert f4.inv(2) == 3  # alpha^-1 = alpha + 1
    assert f4.mul(2, 3) == 1


def test_field_axioms_exhaustive_small():
    for q in SMALL_ORDERS:
        f = field_of_order(q)
        for a, b in itertools.product(f.elements(), repeat=2):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
        for a, b, c in itertools.product(f.elements(), repeat=3):
            assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
            assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for a in f.elements():
            assert f.add(a, 0) == a
            assert f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1


def test_division_errors():
    f = GF(5)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    e = extension_field(2, 3)
    with pytest.raises(ZeroDivisionError):
        e.inv(0)


def test_make_extension_basics():
    e1 = GFExtension(GF(2), 1)
    assert e1.order == 2 and e1.modulus == (0, 1)
    e2 = GFExtension(GF(2), 2)
    assert e2.order == 4 and e2.modulus == (1, 1, 1)
    e6 = GFExtension(GF(2), 6)
    assert e6.order == 64
    with pytest.raises(ValueError):
        GFExtension(GF(2), 0)


def test_extension_vector_roundtrip_f64():
    e = extension_field(2, 6)
    for x in e.elements():
        v = e.to_vector(x)
        assert len(v) == 6
        assert e.from_vector(v) == x
    # basis element alpha^i maps to the i-th unit vector
    for i in range(6):
        v = e.to_vector(2 ** i)
        assert v[i] == 1 and sum(v) == 1
    assert e.to_vector(0) == (0,) * 6
    with pytest.raises(ValueError):
        e.from_vector((0, 1))


def test_frobenius_f4():
    e = extension_field(2, 2)
    assert e.frobenius(2, 1) == 3  # alpha^2 = alpha + 1
    for x in e.elements():
        assert e.frobenius(x, 0) == x
        assert e.frobenius(x, 2) == x
    # subfield elements are fixed
    assert e.frobenius(0, 1) == 0 and e.frobenius(1, 1) == 1


def test_frobenius_properties_across_fields():
    for q, n in [(2, 2), (2, 4), (3, 2), (4, 2), (2, 6), (3, 4), (9, 2)]:
        e = extension_field(q, n)
        base = e.base
        seen = set()
        for x in e.elements():
            y = e.frobenius(x, 1)
            seen.add(y)
            assert e.frobenius(x, n) == x
        assert len(seen) == e.order  # bijection
        # F_q-linearity: frob(a*x + b*y) = a*frob(x) + b*frob(y)
        for a, b in itertools.product(range(q), repeat=2):
            ae = a  # base-field codes embed as codes < q
            be = b
            for x, y in [(1, 2), (3, e.order - 1), (5 % e.order, 7 % e.order)]:
                lhs = e.frobenius(e.add(e.mul(ae, x), e.mul(be, y)), 1)
                rhs = e.add(e.mul(ae, e.frobenius(x, 1)), e.mul(be, e.frobenius(y, 1)))
                assert lhs == rhs
        # subfield is fixed pointwise
        for c in range(q):
            assert e.frobenius(c, 1) == c
        assert base.order == q


def test_extension_axioms_exhaustive_tiny():
    # full triple checks on fields up to 64 elements
    for q, n in [(2, 2), (2, 3), (3, 2), (2, 6), (4, 2)]:
        e = extension_field(q, n)
        if e.order > 64:
            continue
        for a, b, c in itertools.product(e.elements(), repeat=3):
            assert e.mul(e.mul(a, b), c) == e.mul(a, e.mul(b, c))
            assert e.mul(a, e.add(b, c)) == e.add(e.mul(a, b), e.mul(a, c))
        for a, b in itertools.product(e.elements(), repeat=2):
            assert e.add(a, b) == e.add(b, a)
            assert e.mul(a, b) == e.mul(b, a)


def test_extension_inverses_exhaustive_f4096():
    e = extension_field(2, 12)
    assert e.order == 4096
    for a in range(1, e.order):
        assert e.mul(a, e.inv(a)) == 1
    # n-fold Frobenius is the identity
    for a in range(0, e.order, 7):
        assert e.frobenius(a, 12) == a


def test_prime_power_field_is_the_extension_of_its_prime_field():
    for q in (4, 8, 9):
        p, m = factor_prime_power(q)
        direct, tower = GF(p, m), GF(prime_field(p), m)
        assert direct == tower and hash(direct) == hash(tower)
        assert (direct.q, direct.n, direct.modulus) == (p, m, tower.modulus)
        pairs = list(itertools.product(range(q), repeat=2))
        assert [direct.mul(a, b) for a, b in pairs] == [tower.mul(a, b) for a, b in pairs]
    assert GF(2, 3) == extension_field(2, 3)
    assert GF(2) != GF(GF(2), 1)
    with pytest.raises(ValueError):
        GF(GF(2), 2, modulus=(1, 3, 1))  # coefficient 3 is not reduced mod 2


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_prime_field_cache_identity():
    assert prime_field(2) is prime_field(2)
    assert extension_field(2, 4) is extension_field(2, 4)

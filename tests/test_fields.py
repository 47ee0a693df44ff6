"""Tests for exact field arithmetic, square detection, and square classes."""

import random
from fractions import Fraction
from math import prod

import pytest

from a1deg.errors import (
    FieldMismatchError,
    ParseError,
    UnsupportedFieldError,
    ZeroInputError,
)
from a1deg.fields import (
    GF,
    QQ,
    FunctionField,
    _is_probable_prime,
    factorize,
    is_square,
    parse_field,
    signature_sign,
    square_class,
    squarefree_part,
)


def test_rational_arithmetic_axioms():
    rng = random.Random(11)
    for _ in range(200):
        a = QQ.scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
        b = QQ.scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
        c = QQ.scalar(Fraction(rng.randint(-30, 30), rng.randint(1, 30)))
        assert (a + b) * c == a * c + b * c
        assert a - a == 0
        if b:
            assert (a / b) * b == a
    assert QQ.scalar(Fraction(2, 4)) == QQ.scalar(Fraction(1, 2))


def test_prime_field_basics():
    F7 = GF(7)
    assert F7.scalar(10) == 3
    assert F7.scalar(3) + F7.scalar(5) == 1
    assert F7.scalar(3) * F7.scalar(5) == 1
    assert F7.scalar(Fraction(1, 2)) == 4
    assert (F7.scalar(4) ** 3) == F7.scalar(1)
    with pytest.raises(ZeroDivisionError):
        F7.zero.inverse()


def test_characteristic_two_and_composites_rejected():
    with pytest.raises(UnsupportedFieldError):
        GF(2)
    with pytest.raises(UnsupportedFieldError):
        GF(9)
    with pytest.raises(UnsupportedFieldError):
        GF(1)


def test_field_mismatch():
    with pytest.raises(FieldMismatchError):
        QQ.one + GF(7).one
    assert QQ.one != GF(7).one


def test_prime_field_squares_against_enumeration():
    # oracle: exhaustive enumeration of squares
    for p in (3, 7, 13, 41, 101):
        F = GF(p)
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            ok, w = is_square(F.scalar(a))
            assert ok == (a in squares)
            if ok:
                assert w * w == a


def test_prime_field_square_class():
    F7 = GF(7)
    assert F7.nonresidue() == 3
    assert square_class(F7.scalar(2)) == 1
    assert square_class(F7.scalar(5)) == 3
    F13 = GF(13)
    assert F13.nonresidue() == 2
    assert square_class(F13.scalar(5)) == 2  # 5 is not a square mod 13


def test_factorize_and_squarefree_part():
    assert factorize(1) == {}
    assert factorize(2**4 * 3 * 10007**2) == {2: 4, 3: 1, 10007: 2}
    assert squarefree_part(1260) == 35
    assert squarefree_part(10007 * 10009 * 4) == 10007 * 10009


def test_factorize_rejects_nonpositive():
    # 0 is last: dividing out 2 from 0 never ends, so code without the check
    # fails here on -4 instead of hanging
    for n in (-4, -1, 0):
        with pytest.raises(ValueError, match=f"got {n}$"):
            factorize(n)
    with pytest.raises(ValueError, match="got 0$"):
        squarefree_part(0)


def test_factorize_without_trial_division_past_five():
    def product(factors):
        return prod(p**e for p, e in factors.items())

    for n in range(1, 20001):
        factors = factorize(n)
        assert product(factors) == n
        assert all(map(_is_probable_prime, factors))
    sieve = bytearray([1]) * 100000
    sieve[:2] = b"\0\0"
    for i in range(2, 317):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, 100000, i)))
    primes = [p for p in range(7, 100000) if sieve[p]]
    rng = random.Random(25)
    for _ in range(150):
        factors = {p: rng.randint(1, 3) for p in rng.sample(primes, rng.randint(1, 4))}
        for p, e in ((2, rng.randint(0, 3)), (3, rng.randint(0, 2))):
            if e:
                factors[p] = e
        assert factorize(product(factors)) == factors
    for p in rng.sample(primes, 25) + [7, 11, 13, 99991]:
        for k in range(1, 8):
            assert factorize(p**k) == {p: k}


def test_rational_squares():
    ok, w = is_square(QQ.scalar(Fraction(4, 9)))
    assert ok and w == Fraction(2, 3)
    assert is_square(QQ.scalar(2)) == (False, None)
    assert is_square(QQ.scalar(-4)) == (False, None)
    with pytest.raises(ZeroInputError):
        is_square(QQ.zero)


def test_rational_square_class():
    assert square_class(QQ.scalar(Fraction(8, 3))) == 6
    assert square_class(QQ.scalar(-50)) == -2
    assert square_class(QQ.scalar(Fraction(45, 28))) == 35
    assert square_class(QQ.scalar(1)) == 1
    assert square_class(QQ.scalar(Fraction(-9, 8))) == -2
    # representative stays in the same square class
    for a in (Fraction(8, 3), Fraction(-50), Fraction(45, 28), Fraction(-9, 8)):
        s = QQ.scalar(a)
        ok, _ = is_square(s / square_class(s))
        assert ok


def test_rational_square_class_factors_numerator_and_denominator_apart(monkeypatch):
    """The product of a coprime numerator and denominator is often a hard
    semiprime: factoring it made random Q sections of Gr(2,4) never return.
    No factorize call may receive such a product."""
    from a1deg import fields, gw
    from a1deg.grassmannian import euler_characteristic, random_forms

    products = set()
    calls = []
    class_raw, factor = fields.Rationals.square_class_raw, fields.factorize

    def recording_class_raw(self, a):
        if abs(a.numerator) > 1 and a.denominator > 1:
            products.add(abs(a.numerator) * a.denominator)
        return class_raw(self, a)

    def recording_factorize(n):
        calls.append(n)
        # fail here rather than after the call: factoring these can hang
        assert n not in products, f"factorize got numerator * denominator {n}"
        return factor(n)

    monkeypatch.setattr(fields.Rationals, "square_class_raw", recording_class_raw)
    monkeypatch.setattr(fields, "factorize", recording_factorize)
    monkeypatch.setattr(gw, "factorize", recording_factorize)
    for seed in (4, 7):
        forms = random_forms(QQ, 4, random.Random(seed))
        c = euler_characteristic(QQ, 2, 4, forms=forms)
        assert (c.rank, c.signature()) == (6, 2)
    assert products and calls


def test_signature_sign_rationals():
    assert signature_sign(QQ.scalar(Fraction(3, 7))) == 1
    assert signature_sign(QQ.scalar(-5)) == -1
    with pytest.raises(ZeroInputError):
        signature_sign(QQ.zero)
    with pytest.raises(UnsupportedFieldError):
        signature_sign(GF(7).one)


def test_function_field_arithmetic():
    K = FunctionField(GF(5), "t")
    t = K.gen()
    a = t / (t + 1)
    b = (t + 1) / t
    assert a * b == K.one
    assert a + (1 - a) == 1
    with pytest.raises(ZeroDivisionError):
        K.one / K.zero


def test_function_field_canonical_form():
    K = FunctionField(QQ, "t")
    t = K.gen()
    # (2t + 2)/(4t) reduces with a monic denominator
    v = (2 * t + 2) / (4 * t)
    num, den = v.value
    assert den[-1] == 1
    assert v == (t + 1) / (2 * t)
    assert str(v) == "(1/2*t + 1/2)/(t)"


def test_function_field_squares():
    K = FunctionField(QQ, "t")
    t = K.gen()
    a = (t**2 + 2 * t + 1) / (t**2)
    ok, w = is_square(a)
    assert ok and w * w == a
    ok, w = is_square(t)
    assert not ok and w is None
    # square leading coefficient is required
    F7t = FunctionField(GF(7), "t")
    s = F7t.gen() ** 2 + 3
    assert is_square(s * s)[0]
    assert not is_square(3 * s * s)[0]  # 3 is not a square mod 7


def test_function_field_square_witnesses_random():
    rng = random.Random(5)
    K = FunctionField(GF(13), "t")
    t = K.gen()
    for _ in range(25):
        s = K.scalar(rng.randrange(1, 13))
        for _ in range(rng.randrange(1, 4)):
            s = s * t + rng.randrange(13)
        d = t ** rng.randrange(1, 3) + rng.randrange(13)
        a = (s * s) / (d * d)
        ok, w = is_square(a)
        assert ok and w * w == a
        ok, _ = is_square(a * t)  # odd degree numerator*denominator
        assert not ok


def test_function_field_square_class():
    K = FunctionField(QQ, "t")
    t = K.gen()
    a = ((t**2 - 1) ** 2 * (t - 2)) / (t + 3)
    assert square_class(a) == (t - 2) * (t + 3)
    assert square_class(t**2) == 1
    assert square_class(4 * t) == t
    assert square_class(-9 * t**2) == -1
    # char p: t^3 = t * (t)^2 ... derivative vanishes, p-th power branch
    F3t = FunctionField(GF(3), "t")
    u = F3t.gen()
    assert square_class(u**3) == u
    assert square_class(u**6) == 1


def test_signature_sign_function_field():
    K = FunctionField(QQ, "t")
    t = K.gen()
    v = (-2 * t + 9) / t
    assert signature_sign(v) == -1
    # oracle: evaluate far out, where the leading terms dominate
    big = Fraction(-2 * 10**6 + 9, 10**6)
    assert (1 if big > 0 else -1) == signature_sign(v)
    assert signature_sign((3 * t**2 + 1) / (2 * t**2 - 2)) == 1
    assert signature_sign(t - 10**9) == 1
    with pytest.raises(UnsupportedFieldError):
        signature_sign(FunctionField(GF(7), "t").gen())


def test_function_field_rendering():
    K = FunctionField(QQ, "t")
    t = K.gen()
    assert str(t**2 - 2) == "t^2 - 2"
    assert str((t + 1) / t) == "(t + 1)/(t)"
    assert str(K.zero) == "0"
    assert str(-t) == "-t"


def test_parse_field():
    assert parse_field("Q") == QQ
    assert parse_field("F7") == GF(7)
    assert parse_field("Q(t)") == FunctionField(QQ, "t")
    assert parse_field("F11(s)") == FunctionField(GF(11), "s")
    with pytest.raises(UnsupportedFieldError):
        parse_field("F2")
    with pytest.raises(ParseError):
        parse_field("Z")
    for text in ("Q", "F7", "Q(t)", "F11(s)"):
        assert str(parse_field(text)) == text


def test_nested_function_fields_rejected():
    with pytest.raises(UnsupportedFieldError):
        FunctionField(FunctionField(QQ, "t"), "s")


def test_scalar_hash_consistency():
    K = FunctionField(QQ, "t")
    t = K.gen()
    a = (2 * t + 2) / (2 * t + 2)
    assert a == K.one
    assert hash(a) == hash(K.one)
    assert len({GF(7).scalar(3), GF(7).scalar(10)}) == 1

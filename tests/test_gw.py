import operator
import random
from fractions import Fraction
from math import isqrt, prod

import pytest

from a1deg.errors import DegenerateFormError, FieldMismatchError, ZeroInputError
from a1deg.fields import GF, QQ, FunctionField, factorize
from a1deg.gw import (
    GWClass,
    class_of_gram,
    diagonalize,
    equals,
    hasse_invariant,
    hilbert_symbol,
    legendre,
    render_text,
    simplify,
)
from matrices import diagonalize_with_witness, identity_matrix, mat_inverse, mat_mul, transpose


def scal(field, rows):
    return [[field.scalar(x) for x in row] for row in rows]


def test_simplify_folds_hyperbolic_pairs():
    c = GWClass.of(QQ, units=[2, -8])
    assert c == GWClass(QQ, 1, ())
    c = GWClass.of(QQ, units=[1, 2, -1, -2])
    assert c == GWClass(QQ, 2, ())
    c = GWClass.of(QQ, units=[1, -1, 5])
    assert c.hyperbolic == 1 and [str(u) for u in c.units] == ["5"]


def test_simplify_keeps_anisotropic_entries():
    c = GWClass.of(QQ, units=[2, 3])
    assert c.hyperbolic == 0
    assert [str(u) for u in c.units] == ["2", "3"]
    c = GWClass.of(QQ, units=[1, 1])
    assert c.hyperbolic == 0 and len(c.units) == 2


def test_simplify_canonicalizes_square_classes():
    c = GWClass.of(QQ, units=[8, 27])
    assert [str(u) for u in c.units] == ["2", "3"]
    c = GWClass.of(QQ, units=[Fraction(45, 28)])
    assert [str(u) for u in c.units] == ["35"]


def test_simplify_pairing_order_does_not_matter():
    rng = random.Random(11)
    entries = [2, -8, 3, 5, -15, 7, 1, -1, 6, 24]
    ref = simplify(QQ, [QQ.scalar(e) for e in entries])
    for _ in range(20):
        rng.shuffle(entries)
        assert simplify(QQ, [QQ.scalar(e) for e in entries]) == ref


def test_simplify_finite_field():
    F7 = GF(7)
    c = GWClass.of(F7, units=[1, 1, 3, 3])
    assert c == GWClass(F7, 2, ())  # -3 = 4 is a square mod 7
    c = GWClass.of(F7, units=[1, 1])
    assert c.hyperbolic == 0  # -1 is not a square mod 7
    F5 = GF(5)
    c = GWClass.of(F5, units=[1, 1])
    assert c == GWClass(F5, 1, ())  # -1 = 4 = 2^2 mod 5


def test_prime_field_classes_are_canonical():
    # over F_p a class is fixed by rank and discriminant, so == must agree
    # with equals; p = 3, 7, 11 are the primes where -1 is not a square
    rng = random.Random(5)
    for p in (3, 5, 7, 11, 13, 101):
        F = GF(p)
        nonresidue = F.scalar(F.nonresidue())
        classes = [
            GWClass.of(F, rng.randrange(3), [rng.randrange(1, p) for _ in range(rng.randrange(6))])
            for _ in range(40)
        ]
        classes += [rng.choice(classes) + rng.choice(classes) for _ in range(20)]
        classes += [rng.choice(classes) * rng.choice(classes) for _ in range(20)]
        equal_pairs = 0
        for a in classes:
            assert len(a.units) <= 2
            assert all(u in (F.one, nonresidue) for u in a.units)
            for b in classes:
                assert (a == b) == equals(a, b)
                equal_pairs += a is not b and a == b
        assert equal_pairs > 0


def test_simplify_rejects_zero_entry():
    with pytest.raises(ZeroInputError):
        simplify(QQ, [QQ.scalar(1), QQ.scalar(0)])


def test_diagonalize_hyperbolic_gram():
    g = scal(QQ, [[0, 1], [1, 0]])
    diag, s = diagonalize_with_witness(g, QQ)
    assert diagonalize(g, QQ) == diag == [QQ.scalar(2), QQ.scalar(Fraction(-1, 2))]
    assert mat_mul(mat_mul(transpose(s), g), s) == [
        [diag[0], QQ.zero],
        [QQ.zero, diag[1]],
    ]
    assert class_of_gram(QQ, g) == GWClass(QQ, 1, ())


def test_diagonalize_random_symmetric_with_witness():
    """gw.diagonalize returns, value for value, the diagonal of the reference
    elimination, whose base change S witnesses S^T G S = diag.  Zero diagonals
    (hyperbolic blocks) exercise both zero-pivot rules."""
    rng = random.Random(5)
    F7 = GF(7)
    K = FunctionField(GF(3), "t")
    t = K.gen()
    entries = [
        (QQ, lambda: QQ.scalar(rng.randrange(-4, 5))),
        (F7, lambda: F7.scalar(rng.randrange(7))),
        (K, lambda: K.scalar(rng.randrange(3)) + K.scalar(rng.randrange(3)) * t),
    ]
    for field, entry in entries:
        checked = degenerate = 0
        while checked < 15:
            n = rng.randrange(1, 6)
            zero_diagonal = rng.choice(["none", "all", "some"])
            g = [[field.zero] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if i == j and (
                        zero_diagonal == "all"
                        or (zero_diagonal == "some" and rng.randrange(2))
                    ):
                        continue
                    g[i][j] = g[j][i] = entry()
            ref, s = diagonalize_with_witness(g, field)
            try:
                diag = diagonalize(g, field)
            except DegenerateFormError:
                assert not all(ref)
                degenerate += 1
                continue
            assert [d.value for d in diag] == [d.value for d in ref]
            prod = mat_mul(mat_mul(transpose(s), g), s)
            for i in range(n):
                for j in range(n):
                    assert prod[i][j] == (diag[i] if i == j else field.zero)
            checked += 1
        assert degenerate


def test_class_is_congruence_invariant():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randrange(1, 4)
        cand = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        g = [
            [QQ.scalar(cand[i][j] + cand[j][i]) for j in range(n)]
            for i in range(n)
        ]
        try:
            a = class_of_gram(QQ, g)
        except DegenerateFormError:
            continue
        m = None
        while m is None:
            raw = scal(QQ, [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
            try:
                mat_inverse(raw, QQ)
            except DegenerateFormError:
                continue
            m = raw
        g2 = mat_mul(mat_mul(transpose(m), g), m)
        assert equals(a, class_of_gram(QQ, g2))


def test_degenerate_and_malformed_grams():
    with pytest.raises(DegenerateFormError):
        diagonalize(scal(QQ, [[1, 0], [0, 0]]), QQ)
    with pytest.raises(DegenerateFormError):
        diagonalize(scal(QQ, [[0, 1], [2, 0]]), QQ)
    with pytest.raises(DegenerateFormError):
        diagonalize(scal(QQ, [[1, 0, 0], [0, 1, 0]]), QQ)
    with pytest.raises(DegenerateFormError):
        diagonalize(scal(QQ, [[0, 1, 0], [1, 0, 0], [0, 0, 0]]), QQ)
    with pytest.raises(DegenerateFormError):
        diagonalize(scal(GF(7), [[1, 2], [2, 4]]), GF(7))


def test_invariants_frozen():
    h = GWClass(QQ, 1, ())
    assert (h.rank, str(h.disc()), h.signature()) == (2, "-1", 0)
    c = GWClass.of(QQ, units=[-1, -1])
    assert (c.rank, str(c.disc()), c.signature()) == (2, "1", -2)
    c = GWClass.of(QQ, units=[2, 3])
    assert (c.rank, str(c.disc()), c.signature()) == (2, "6", 2)
    F7 = GF(7)
    c = GWClass.of(F7, units=[3])
    assert str(c.disc()) == "3" and c.signature() is None


def test_arithmetic():
    one = GWClass.of(QQ, units=[1])
    h = GWClass(QQ, 1, ())
    assert h + h == GWClass(QQ, 2, ())
    assert GWClass.of(QQ, units=[2]) * GWClass.of(QQ, units=[3]) == GWClass.of(
        QQ, units=[6]
    )
    assert h * GWClass.of(QQ, units=[5]) == h
    assert h * h == GWClass(QQ, 2, ())
    assert (h + one) * (h + one) == GWClass.of(QQ, 4, units=[1])
    assert 3 * one == one * 3 == GWClass.of(QQ, units=[1, 1, 1])
    assert (3 * one).rank == 3
    assert 0 * one == one * 0 == GWClass(QQ, 0, ())


@pytest.mark.parametrize("bad", [-1, 1.5, "x"])
def test_non_class_operands_are_type_errors(bad):
    one = GWClass.of(QQ, units=[1])
    for op in (operator.add, operator.mul):
        with pytest.raises(TypeError):
            op(one, bad)
        with pytest.raises(TypeError):
            op(bad, one)
    with pytest.raises(TypeError):
        one + 0


def test_invariants_respect_operations():
    from a1deg.fields import square_class

    rng = random.Random(3)
    pool = [1, -1, 2, 3, 5, -2, 7, -30]
    for _ in range(20):
        a = GWClass.of(QQ, rng.randrange(3), [rng.choice(pool) for _ in range(3)])
        b = GWClass.of(QQ, rng.randrange(3), [rng.choice(pool) for _ in range(3)])
        s = a + b
        assert s.rank == a.rank + b.rank
        assert s.signature() == a.signature() + b.signature()
        assert s.disc() == square_class(a.disc() * b.disc())
        p = a * b
        assert p.rank == a.rank * b.rank
        assert p.signature() == a.signature() * b.signature()


def test_rational_disc_folds_units_without_factoring(monkeypatch):
    """Random Q sections of Gr(2,4) have units of up to 136 bits, and their
    product was too hard to factor: disc() and to_json() never returned."""
    from a1deg import fields, gw
    from a1deg.grassmannian import euler_characteristic, random_forms

    for seed in (4, 7):
        forms = random_forms(QQ, 4, random.Random(seed))
        c = euler_characteristic(QQ, 2, 4, forms=forms)

        def no_factoring(n):
            raise AssertionError(f"disc() factored {n}")

        with monkeypatch.context() as m:
            m.setattr(fields, "factorize", no_factoring)
            m.setattr(gw, "factorize", no_factoring)
            d = c.disc()
            assert c.to_json()["disc"] == str(d)
        product = (-1) ** c.hyperbolic * prod(u.value for u in c.units)
        q = product / d.value
        assert q.denominator == 1 and q > 0 and isqrt(q.numerator) ** 2 == q


def test_equals_identical_classes_without_factoring(monkeypatch):
    """The Q Gr(2,4) class of random_forms(QQ, 4, Random(4)) has units of up
    to 136 bits, too hard to factor for the Hasse invariants; equal reduced
    forms need no invariants."""
    from a1deg import fields, gw
    from a1deg.grassmannian import euler_characteristic, random_forms

    c = euler_characteristic(QQ, 2, 4, forms=random_forms(QQ, 4, random.Random(4)))

    def no_factoring(n):
        raise AssertionError(f"equals factored {n}")

    monkeypatch.setattr(fields, "factorize", no_factoring)
    monkeypatch.setattr(gw, "factorize", no_factoring)
    assert equals(c, c)
    assert equals(c, GWClass(QQ, c.hyperbolic, c.units))


def test_rational_disc_matches_square_class_of_the_product():
    from a1deg.fields import square_class

    rng = random.Random(19)
    for _ in range(200):
        units = [rng.choice((-1, 1)) * rng.randint(1, 60) for _ in range(rng.randrange(6))]
        c = GWClass.of(QQ, rng.randrange(3), units)
        ref = QQ.one if c.hyperbolic % 2 == 0 else -QQ.one
        for u in c.units:
            ref = ref * u
        assert c.disc() == square_class(ref)


def test_hilbert_symbol_frozen_values():
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(2, 3, 3) == -1
    assert hilbert_symbol(2, 3, 5) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 7) == 1
    assert hilbert_symbol(3, 3, 3) == -1
    assert hilbert_symbol(5, 5, 5) == 1
    assert hilbert_symbol(7, 7, 7) == -1
    assert hilbert_symbol(2, 7, 2) == 1
    assert hilbert_symbol(6, 1, 2) == 1
    assert hilbert_symbol(6, 1, 3) == 1


def test_legendre_values_and_zero_argument():
    assert [legendre(a, 7) for a in (1, 2, 3, -1, 9)] == [1, 1, -1, -1, 1]
    # the message names the argument as given, not its residue
    with pytest.raises(ZeroInputError, match="^14 is divisible by 7$"):
        legendre(14, 7)


def test_hilbert_symbol_symmetry_and_bimultiplicativity():
    rng = random.Random(17)
    vals = [n for n in range(-15, 16) if n]
    for _ in range(200):
        a, b, c = (rng.choice(vals) for _ in range(3))
        for p in (2, 3, 5, 7, 11):
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert hilbert_symbol(a, b * c, p) == hilbert_symbol(
                a, b, p
            ) * hilbert_symbol(a, c, p)


def test_hilbert_product_formula():
    # product over all places (including the real one) must be 1
    rng = random.Random(23)
    vals = [n for n in range(-30, 31) if n]
    for _ in range(300):
        a, b = rng.choice(vals), rng.choice(vals)
        primes = {2}
        primes.update(factorize(abs(a)))
        primes.update(factorize(abs(b)))
        prod = 1
        for p in primes:
            prod *= hilbert_symbol(a, b, p)
        if a < 0 and b < 0:
            prod = -prod
        assert prod == 1


def test_two_three_is_not_six_one():
    # mod 3, 2x^2 = z^2 forces x = z = 0 mod 3, then 3y^2 = 0 mod 9 forces
    # y = 0 mod 3: so 2x^2 + 3y^2 = z^2 has no primitive 3-adic solution and
    # <2,3> does not represent 1, while <6,1> plainly does.
    for x in range(9):
        for y in range(9):
            for z in range(9):
                if (2 * x * x + 3 * y * y - z * z) % 9 == 0:
                    assert x % 3 == 0 and y % 3 == 0 and z % 3 == 0
    a = GWClass.of(QQ, units=[2, 3])
    b = GWClass.of(QQ, units=[6, 1])
    assert a.rank == b.rank and a.disc() == b.disc()
    assert a.signature() == b.signature()
    assert hasse_invariant([2, 3], 2) == -1 and hasse_invariant([6, 1], 2) == 1
    assert not equals(a, b)


def test_two_three_equals_five_thirty():
    # base change with columns (1,1) and (3,-2) is an isometry witness
    g = scal(QQ, [[2, 0], [0, 3]])
    s = scal(QQ, [[1, 3], [1, -2]])
    assert mat_mul(mat_mul(transpose(s), g), s) == scal(QQ, [[5, 0], [0, 30]])
    assert equals(GWClass.of(QQ, units=[2, 3]), GWClass.of(QQ, units=[5, 30]))


def test_equals_rational_more():
    assert equals(GWClass.of(QQ, units=[2, 8]), GWClass.of(QQ, units=[1, 1]))
    assert not equals(
        GWClass.of(QQ, units=[1, 1, 1, 1]), GWClass(QQ, 2, ())
    )  # signatures 4 vs 0
    assert equals(GWClass.of(QQ, 1, [2]), GWClass.of(QQ, 1, [8]))
    assert not equals(GWClass.of(QQ, units=[1]), GWClass(QQ, 1, ()))  # ranks differ


def test_equals_finite_field():
    F7 = GF(7)
    a = GWClass.of(F7, units=[1, 1])
    b = GWClass.of(F7, units=[3, 3])
    # explicit isometry witness: (1,3) and (3,-1) are orthogonal of norm 3
    g = identity_matrix(F7, 2)
    s = scal(F7, [[1, 3], [3, -1]])
    assert mat_mul(mat_mul(transpose(s), g), s) == scal(F7, [[3, 0], [0, 3]])
    assert a == b and equals(a, b)
    assert not equals(GWClass.of(F7, units=[1]), GWClass.of(F7, units=[3]))


def test_equals_function_field_structural():
    K = FunctionField(QQ, "t")
    t = K.gen()
    a = GWClass.of(K, 1, [t])
    b = GWClass.of(K, 1, [t])
    assert equals(a, b)
    assert not equals(a, GWClass.of(K, 1, [t + K.one]))
    with pytest.raises(FieldMismatchError):
        equals(a, GWClass(QQ, 1, ()))


def test_render_and_json():
    assert str(GWClass(QQ, 1, ())) == "H"
    assert str(GWClass.of(QQ, 2, [1])) == "2H + <1>"
    assert str(GWClass.of(QQ, units=[2, 3])) == "<2,3>"
    assert str(GWClass(QQ, 0, ())) == "0"
    assert render_text(0, []) == "0"
    assert render_text(1, ["-1/2"]) == "H + <-1/2>"
    d = GWClass.of(QQ, 1, [5]).to_json()
    assert d == {
        "hyperbolic": 1,
        "units": ["5"],
        "rank": 3,
        "disc": "-5",
        "signature": 1,
    }
    F7 = GF(7)
    assert GWClass.of(F7, units=[3]).to_json()["signature"] is None

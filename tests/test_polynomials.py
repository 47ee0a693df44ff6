"""Tests for sparse multivariate polynomials, orders, and the parser."""

import random
from fractions import Fraction

import pytest

from a1deg.errors import (
    InexactDivisionError,
    MissingAssignmentError,
    ParseError,
    RingMismatchError,
    ZeroInputError,
)
from a1deg.fields import GF, QQ, FunctionField
from a1deg.polynomials import (
    DEGREVLEX,
    LEX,
    PolyRing,
    fresh_name,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quot,
)


def rand_poly(rng, ring, max_deg=3, terms=4):
    p = ring.zero
    for _ in range(terms):
        mono = [0] * ring.nvars
        for _ in range(rng.randrange(max_deg + 1)):
            mono[rng.randrange(ring.nvars)] += 1
        if ring.field == QQ:
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        else:
            c = rng.randrange(ring.field.characteristic)
        p = p + ring.const(c) * ring.monomial(tuple(mono))
    return p


def test_variable_index_out_of_range():
    R = PolyRing(QQ, ["x", "y"])
    assert R.var(1) == R.var("y")
    assert R.parse("x^3*y").diff(1) == R.parse("x^3")
    for bad in (2, 5, -1, "z"):
        with pytest.raises(ValueError):
            R.var(bad)
        with pytest.raises(ValueError):
            R.parse("x^3*y").diff(bad)


def test_ring_construction_errors():
    with pytest.raises(ValueError):
        PolyRing(QQ, [])
    with pytest.raises(ValueError):
        PolyRing(QQ, ["x", "x"])
    with pytest.raises(ValueError):
        PolyRing(QQ, ["2x"])
    with pytest.raises(ValueError):
        PolyRing(FunctionField(QQ, "t"), ["t", "x"])
    assert fresh_name(("u", "u_"), "u") == "u__"


def test_monomial_helpers():
    assert mono_mul((1, 2), (0, 3)) == (1, 5)
    assert mono_divides((1, 0), (2, 1))
    assert not mono_divides((1, 2), (2, 1))
    assert mono_quot((2, 1), (1, 0)) == (1, 1)
    assert mono_lcm((1, 2), (2, 1)) == (2, 2)


def test_degrevlex_ordering():
    R = PolyRing(QQ, ["x", "y", "z"])
    x, y, z = (m.leading_monomial() for m in R.gens())
    deg2 = [
        mono_mul(a, b)
        for a, b in [(x, x), (x, y), (y, y), (x, z), (y, z), (z, z)]
    ]
    ordered = sorted(deg2, key=DEGREVLEX.key, reverse=True)
    # degrevlex prefers small exponents in the last variables
    assert ordered == deg2
    assert DEGREVLEX.key(y) > DEGREVLEX.key(z)
    # lex: x beats any pure power of y
    assert LEX.key(x) > LEX.key(mono_mul(y, y))


def test_arithmetic_axioms_random():
    rng = random.Random(3)
    for ring in (PolyRing(QQ, ["x", "y"]), PolyRing(GF(7), ["x", "y", "z"])):
        for _ in range(40):
            a, b, c = (rand_poly(rng, ring) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a - a == ring.zero
            assert (a * b) * c == a * (b * c)


def test_leading_and_monic():
    R = PolyRing(QQ, ["x", "y"])
    p = R.parse("2*x^2*y + x*y - 5")
    assert p.leading_monomial() == (2, 1)
    assert p.leading_coefficient() == 2
    assert p.monic() == R.parse("x^2*y + 1/2*x*y - 5/2")
    with pytest.raises(ZeroInputError):
        R.zero.leading_monomial()


def test_exact_division():
    R = PolyRing(QQ, ["x", "y"])
    f = R.parse("(x + y)*(x^2 - 3*y)")
    assert f.exact_div(R.parse("x + y")) == R.parse("x^2 - 3*y")
    with pytest.raises(InexactDivisionError):
        R.parse("x^2 + y").exact_div(R.parse("x + 1"))
    with pytest.raises(ZeroInputError):
        f.exact_div(R.zero)


def test_difference_quotient_division():
    R = PolyRing(QQ, ["X", "Y"])
    f = R.parse("X^3 - Y^3")
    assert f.exact_div(R.parse("X - Y")) == R.parse("X^2 + X*Y + Y^2")


def test_substitute_and_evaluate():
    R = PolyRing(QQ, ["x", "y"])
    p = R.parse("x^2*y + 2")
    q = p.substitute({"x": R.parse("y + 1"), "y": R.var("y")})
    assert q == R.parse("(y+1)^2*y + 2")
    with pytest.raises(MissingAssignmentError):
        p.substitute({"x": R.var("y")})
    assert p.evaluate({"x": 2, "y": 3}) == 14
    with pytest.raises(MissingAssignmentError):
        p.evaluate({"x": 2})

    rng = random.Random(9)
    F = GF(11)
    S = PolyRing(F, ["x", "y", "z"])
    for _ in range(20):
        f = rand_poly(rng, S)
        g = rand_poly(rng, S, max_deg=2, terms=3)
        point = {n: rng.randrange(11) for n in S.names}
        sub = f.substitute({"x": g, "y": S.var("y"), "z": S.var("z")})
        gval = g.evaluate(point)
        assert sub.evaluate(point) == f.evaluate(
            {"x": gval, "y": point["y"], "z": point["z"]}
        )


def test_substitute_across_rings():
    R = PolyRing(QQ, ["x"])
    D = PolyRing(QQ, ["X", "Y"])
    p = R.parse("x^2 - 2")
    assert p.substitute({"x": D.var("X")}) == D.parse("X^2 - 2")
    with pytest.raises(RingMismatchError):
        p.substitute({"x": PolyRing(GF(5), ["X"]).var("X")})


def test_substitute_checks_the_images_of_occurring_variables():
    R = PolyRing(QQ, ["x", "y", "z"])
    D = PolyRing(QQ, ["X", "Y"])
    p = R.parse("x^2*y - y + 3")
    # z does not occur, so it needs no image
    assert p.substitute({"x": D.var("X"), "y": 2}) == D.parse("2*X^2 + 1")
    assert R.parse("7").substitute({}) == R.const(7)
    with pytest.raises(MissingAssignmentError):
        p.substitute({"x": D.var("X")})
    with pytest.raises(RingMismatchError):
        p.substitute({"x": D.var("X"), "y": PolyRing(QQ, ["y"]).var("y")})


def test_diff():
    R = PolyRing(QQ, ["x", "y"])
    assert R.parse("x^3*y").diff("x") == R.parse("3*x^2*y")
    assert R.parse("x^3*y").diff("y") == R.parse("x^3")
    assert R.parse("5").diff("x") == R.zero
    F3 = PolyRing(GF(3), ["x"])
    assert F3.parse("x^3").diff("x") == F3.zero


def test_parser_and_rendering_round_trip():
    R = PolyRing(QQ, ["x1", "x2"])
    p = R.parse("x1^2*x2 - 3*x2 + 1/2")
    assert str(p) == "x1^2*x2 - 3*x2 + 1/2"
    assert R.parse(str(p)) == p
    assert R.parse("2x1 x2") == R.parse("2*x1*x2")
    assert R.parse("x1**2") == R.parse("x1^2")
    assert R.parse("-x1(x1-1)") == R.parse("-x1^2 + x1")
    assert R.parse("2^-1") == R.const(Fraction(1, 2))

    K = FunctionField(GF(5), "t")
    S = PolyRing(K, ["x1", "x2"])
    q = S.parse("t*x1 - 1")
    assert q.coefficient((1, 0)) == K.gen()
    assert S.parse(str(q)) == q

    rng = random.Random(17)
    for ring in (R, PolyRing(GF(7), ["a", "b"]), S):
        for _ in range(25):
            f = rand_poly(rng, ring)
            assert ring.parse(str(f)) == f


def test_function_field_coefficient_rendering():
    K = FunctionField(QQ, "t")
    S = PolyRing(K, ["x"])
    p = S.parse("(t+1)*x^2 - t")
    assert str(p) == "(t + 1)*x^2 - t"
    assert S.parse(str(p)) == p
    # a coefficient of several terms keeps its own minus
    assert str(S.parse("-(t+1)*x^2 - t")) == "(-t - 1)*x^2 - t"
    assert str(PolyRing(K, ["x", "y"]).parse("(1-t)*x + y^2 + 1")) == (
        "y^2 + (-t + 1)*x + 1"
    )


@pytest.mark.parametrize(
    "field",
    [QQ, GF(7), FunctionField(QQ, "t"), FunctionField(GF(5), "t")],
    ids=str,
)
def test_printed_polynomials_parse_back(field):
    """Coefficients a + b*t, some divided by t + c (by c over a prime or
    the rational field), print so that the parser reads them back: a
    coefficient of several terms keeps its own sign in its parentheses."""
    rng = random.Random(f"round trip {field}")
    ring = PolyRing(field, ["x", "y"])
    t = field.gen() if isinstance(field, FunctionField) else field.zero
    for _ in range(300):
        p = ring.zero
        for _ in range(4):
            c = field.scalar(rng.randint(-3, 3)) + rng.randint(-3, 3) * t
            if rng.random() < 0.3:
                c = c / (t + rng.randint(1, 4))
            mono = (rng.randrange(3), rng.randrange(3))
            p = p + ring.const(c) * ring.monomial(mono)
        assert ring.parse(str(p)) == p, str(p)


def test_parser_errors():
    R = PolyRing(QQ, ["x"])
    for bad in ("x +", "w", "x^y", "x^(2)", "(x", "x/ (x+1)", "x$", "", "x^-1"):
        with pytest.raises(ParseError):
            R.parse(bad)


def test_truediv_by_constant():
    R = PolyRing(QQ, ["x"])
    assert R.parse("x") / 2 == R.parse("x/2") == R.parse("1/2 x")

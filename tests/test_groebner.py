"""Tests for Buchberger, quotient bases, primary components and saturation."""

import random
import re
from fractions import Fraction
from itertools import count, product
from math import prod

import pytest

from a1deg import groebner
from a1deg.errors import (
    NotZeroDimensionalError,
    PointNotOnZeroLocusError,
    RingMismatchError,
    ZeroInputError,
)
from a1deg.fields import GF, QQ, FunctionField
from a1deg.grassmannian import coordinate_forms, section_system
from a1deg.groebner import (
    GroebnerBasis,
    _sev,
    groebner_basis,
    normal_form,
    primary_component,
    s_polynomial,
    saturation,
)
from a1deg.polynomials import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    Poly,
    PolyRing,
    mono_divides,
    mono_mul,
    mono_quot,
)
from test_bezoutian import _systems


def rand_poly(rng, ring, max_deg=3, terms=4):
    p = ring.zero
    for _ in range(terms):
        mono = [0] * ring.nvars
        for _ in range(rng.randrange(max_deg + 1)):
            mono[rng.randrange(ring.nvars)] += 1
        char = ring.field.characteristic
        c = rng.randrange(char) if char else rng.randint(-9, 9)
        p = p + ring.const(c) * ring.monomial(tuple(mono))
    return p


def naive_normal_form(f, basis, order):
    """Division that rescans the dividend for its largest term at every step
    and reduces it by the first divisor in list order that divides it."""
    k = f.ring.field
    divisors = [(g.leading_monomial(order), g) for g in basis if g]
    work = dict(f.terms)
    rem = {}
    while work:
        lm = max(work, key=order.key)
        lc = work.pop(lm)
        for g_lm, g in divisors:
            if mono_divides(g_lm, lm):
                q_mono = mono_quot(lm, g_lm)
                q_c = k.div(lc, g.terms[g_lm])
                for m2, c2 in g.terms.items():
                    if m2 == g_lm:
                        continue
                    mono = mono_mul(q_mono, m2)
                    s = k.sub(work.get(mono, k.from_int(0)), k.mul(q_c, c2))
                    if k.is_zero(s):
                        work.pop(mono, None)
                    else:
                        work[mono] = s
                break
        else:
            rem[lm] = lc
    return Poly(f.ring, rem)


def box_quotient_basis(gb):
    """Standard monomials by filtering the box that the pure powers bound."""
    bounds = [
        min(lm[i] for lm in gb.leading_monomials() if lm[i] and sum(lm) == lm[i])
        for i in range(gb.ring.nvars)
    ]
    lms = gb.leading_monomials()
    out = [
        mono
        for mono in product(*(range(b) for b in bounds))
        if not any(mono_divides(lm, mono) for lm in lms)
    ]
    return sorted(out, key=gb.order.key)


def test_known_basis_two_vars():
    R = PolyRing(QQ, ["x1", "x2"])
    gb = groebner_basis([R.parse("x1*x2"), R.parse("x1 + x2")])
    assert list(gb) == [R.parse("x1 + x2"), R.parse("x2^2")]
    assert gb.quotient_basis() == [(0, 0), (0, 1)]
    assert gb.quotient_dimension() == 2


def test_known_basis_line_and_circle():
    R = PolyRing(QQ, ["x", "y"])
    gb = groebner_basis([R.parse("x^2 + y^2 - 1"), R.parse("x - y")])
    assert list(gb) == [R.parse("x - y"), R.parse("y^2 - 1/2")]
    assert gb.normal_form(R.parse("x^2")) == R.parse("1/2")


def test_univariate_is_euclid():
    R = PolyRing(QQ, ["x"])
    gb = groebner_basis([R.parse("x^3 - x"), R.parse("x^2 - 1")])
    assert list(gb) == [R.parse("x^2 - 1")]


def test_whole_ring_and_zero_ideal():
    R = PolyRing(QQ, ["x", "y"])
    gb = groebner_basis([R.parse("x"), R.parse("x - 1")])
    assert gb.is_whole_ring()
    assert gb.quotient_basis() == []
    with pytest.raises(ZeroInputError):
        groebner_basis([])
    zero = groebner_basis([R.zero])
    assert len(zero) == 0
    with pytest.raises(NotZeroDimensionalError):
        zero.quotient_basis()


def test_quotient_basis_returns_a_copy_of_one_walk():
    R = PolyRing(QQ, ["x", "y"])
    gb = groebner_basis([R.parse("x^2"), R.parse("y^2")])
    first = gb.quotient_basis()
    first.append((5, 5))
    first[0] = (7, 7)
    assert gb.quotient_basis() == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert gb.quotient_basis() is not gb.quotient_basis()


def test_not_zero_dimensional():
    R = PolyRing(QQ, ["x", "y"])
    gb = groebner_basis([R.parse("x*y - 1")])
    assert not gb.is_zero_dimensional()
    with pytest.raises(NotZeroDimensionalError):
        gb.quotient_basis()


def test_quotient_basis_box():
    R = PolyRing(QQ, ["x", "y"])
    gb = groebner_basis([R.parse("x^2"), R.parse("y^3")])
    names = [str(R.monomial(m)) for m in gb.quotient_basis()]
    assert names == ["1", "y", "x", "y^2", "x*y", "x*y^2"]


def test_quotient_basis_walks_non_rectangular_staircases():
    R = PolyRing(QQ, ["x", "y", "z"])
    staircases = [
        ["x^3", "x*y^2", "y^4", "z"],
        ["x^2", "y^3", "z^2", "x*y*z", "y^2*z"],
        ["x^4", "x^2*y", "y^2", "x*z", "z^3 - x*y"],
    ]
    for gens in staircases:
        gb = groebner_basis([R.parse(g) for g in gens])
        assert gb.quotient_basis() == box_quotient_basis(gb)
    rng = random.Random(31)
    for field in (QQ, GF(101)):
        for n in (2, 3):
            S = PolyRing(field, [f"x{i}" for i in range(n)])
            for _ in range(4):
                gb = groebner_basis([rand_poly(rng, S, 2, 4) for _ in range(n)])
                if gb.is_zero_dimensional() and not gb.is_whole_ring():
                    assert gb.quotient_basis() == box_quotient_basis(gb)


def test_normal_form_matches_naive_division():
    # non-Groebner divisor lists pin the first-divisor-in-list rule
    rng = random.Random(17)
    for field in (QQ, GF(7)):
        R = PolyRing(field, ["x", "y", "z"])
        for order in (DEGREVLEX, LEX):
            for _ in range(12):
                divisors = [rand_poly(rng, R, 3, 3) for _ in range(rng.randrange(1, 5))]
                gb = groebner_basis(divisors, order)
                for basis in (divisors, list(gb), divisors[::-1]):
                    for _ in range(3):
                        f = rand_poly(rng, R, 5, 8)
                        assert normal_form(f, basis, order) == naive_normal_form(
                            f, basis, order
                        )
    # six variables and exponents above 2, where the short-exponent-vector
    # prefilter lets through monomials that the exact test then rejects
    rng = random.Random(29)
    inexact = 0
    for field in (QQ, GF(7)):
        R = PolyRing(field, [f"x{i}" for i in range(6)])
        for order in (DEGREVLEX, LEX):
            for _ in range(12):
                divisors = [rand_poly(rng, R, 4, 3) for _ in range(rng.randrange(1, 4))]
                gb = groebner_basis(divisors, order)
                for basis in (divisors, list(gb), divisors[::-1]):
                    lms = [g.leading_monomial(order) for g in basis if g]
                    for _ in range(3):
                        f = rand_poly(rng, R, 7, 8)
                        assert normal_form(f, basis, order) == naive_normal_form(
                            f, basis, order
                        )
                        inexact += sum(
                            not _sev(a) & ~_sev(b) and not mono_divides(a, b)
                            for a in lms
                            for b in f.terms
                        )
    assert inexact


def sympy_basis(sympy, gens):
    """sympy's reduced grevlex basis of gens, back in the ring of gens."""
    ring = gens[0].ring
    symbols = sympy.symbols(ring.names)
    p = ring.field.characteristic
    opts = {"modulus": p} if p else {"domain": "QQ"}
    exprs = [
        sympy.Poly.from_dict(
            {m: sympy.Rational(str(c)) for m, c in f.terms.items()}, *symbols, **opts
        ).as_expr()
        for f in gens
    ]
    basis = sympy.groebner(exprs, *symbols, order="grevlex", **opts)
    return [
        ring.poly({m: Fraction(str(c)) for m, c in terms})
        for terms in (sympy.Poly(g, *symbols, **opts).terms() for g in basis.exprs)
    ]


def test_groebner_basis_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(101)
    for field in (QQ, GF(101)):
        for n in (2, 3, 4):
            R = PolyRing(field, [f"x{i}" for i in range(n)])
            for _ in range(3):
                gens = [rand_poly(rng, R, 2, 3) + R.var(i) ** 2 for i in range(n)]
                gb = groebner_basis(gens)
                assert gb.is_zero_dimensional()
                theirs = [g.monic() for g in sympy_basis(sympy, gens)]
                theirs.sort(key=lambda g: DEGREVLEX.key(g.leading_monomial()))
                assert list(gb) == theirs


def test_pair_selection_keys_each_monomial_once(monkeypatch):
    # an operation count, not a timing: rescanning the pending pairs or the
    # dividend for every step costs about 9.5e5 key calls on this system
    calls = [0]
    for name in ("key", "descending_key"):
        original = getattr(MonomialOrder, name)

        def counted(self, m, original=original):
            calls[0] += 1
            return original(self, m)

        monkeypatch.setattr(MonomialOrder, name, counted)
    F = GF(101)
    gb = groebner_basis(section_system(F, 3, 6, coordinate_forms(F, 6)))
    assert len(gb) == 52
    assert calls[0] < 150_000


def test_short_exponent_vectors_never_reject_a_divisor():
    rng = random.Random(43)
    for _ in range(3000):
        n = rng.randint(1, 12)
        a = tuple(rng.randint(0, 5) for _ in range(n))
        b = tuple(rng.randint(0, 5) for _ in range(n))
        multiple = tuple(rng.randint(e, 5) for e in a)
        for x, y in ((a, b), (b, a), (a, multiple)):
            if mono_divides(x, y):
                assert not _sev(x) & ~_sev(y)
        # exact when no exponent passes 2
        small_a = tuple(min(e, 2) for e in a)
        small_b = tuple(min(e, 2) for e in b)
        assert mono_divides(small_a, small_b) == (not _sev(small_a) & ~_sev(small_b))


def test_divisibility_tests_pass_the_mask_first(monkeypatch):
    # an operation count, not a timing: without the short-exponent-vector
    # prefilter this basis makes 58,465 exact tests and its staircase 2,420;
    # with it, 1,772 and 64.  The split bounds catch a site that loses its
    # mask: unmasked minimalization alone would make 3,097 in the basis.
    calls = [0]
    exact = groebner.mono_divides

    def counted(a, b):
        calls[0] += 1
        return exact(a, b)

    monkeypatch.setattr(groebner, "mono_divides", counted)
    F = GF(101)
    gb = groebner_basis(section_system(F, 3, 6, coordinate_forms(F, 6)))
    in_basis = calls[0]
    assert len(gb.quotient_basis()) == 20
    assert calls[0] < 6_000
    assert in_basis < 2_500 and calls[0] - in_basis < 500


def test_determinism_under_generator_shuffles():
    rng = random.Random(23)
    F = GF(7)
    R = PolyRing(F, ["x", "y", "z"])
    for _ in range(10):
        gens = [rand_poly(rng, R) for _ in range(3)]
        if all(not g for g in gens):
            continue
        gb1 = groebner_basis(gens)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        gb2 = groebner_basis(shuffled)
        assert gb1 == gb2


def test_buchberger_certificate_and_reducedness():
    # every S-polynomial of the output must reduce to zero, and no term of
    # any element may be divisible by another element's leading monomial
    rng = random.Random(5)
    F = GF(7)
    R = PolyRing(F, ["x", "y"])
    for _ in range(30):
        gens = [rand_poly(rng, R) for _ in range(2)]
        if all(not g for g in gens):
            continue
        gb = groebner_basis(gens)
        polys = list(gb)
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert not gb.normal_form(s_polynomial(polys[i], polys[j]))
        lms = gb.leading_monomials()
        for i, g in enumerate(polys):
            assert g.leading_coefficient() == 1
            for mono in g.terms:
                for j, lm in enumerate(lms):
                    if i != j:
                        assert not mono_divides(lm, mono)
        # membership certificate: random combinations reduce to zero
        h = sum((rand_poly(rng, R, 2, 2) * g for g in gens), R.zero)
        assert gb.contains(h)


def test_normal_form_is_linear_and_idempotent():
    rng = random.Random(8)
    F = GF(11)
    R = PolyRing(F, ["x", "y"])
    gens = [R.parse("x^2 + y"), R.parse("y^2 - 3")]
    gb = groebner_basis(gens)
    for _ in range(25):
        a, b = rand_poly(rng, R), rand_poly(rng, R)
        c = rng.randrange(1, 11)
        assert gb.normal_form(a + b.scale(c)) == gb.normal_form(a) + gb.normal_form(
            b
        ).scale(c)
        assert gb.normal_form(gb.normal_form(a)) == gb.normal_form(a)


def test_membership_independent_of_order():
    rng = random.Random(4)
    F = GF(13)
    R = PolyRing(F, ["x", "y"])
    gens = [R.parse("x^2*y - 1"), R.parse("x*y^2 - x")]
    drl = groebner_basis(gens, DEGREVLEX)
    lex = groebner_basis(gens, LEX)
    for _ in range(25):
        f = rand_poly(rng, R)
        mixed = f + rand_poly(rng, R, 2, 2) * gens[0] + rand_poly(rng, R, 2, 2) * gens[1]
        assert drl.contains(mixed) == drl.contains(f)
        assert drl.contains(mixed) == lex.contains(mixed)


def test_saturation_strips_a_component():
    R = PolyRing(QQ, ["x", "y"])
    # I = (x^2 * (x - 1), y): a fat point at the origin plus a simple point
    gens = [R.parse("x^2*(x-1)"), R.parse("y")]
    sat = saturation(gens, [R.var("x"), R.var("y")])
    assert list(sat) == [R.parse("y"), R.parse("x - 1")] or list(sat) == [
        R.parse("x - 1"),
        R.parse("y"),
    ]
    assert saturation(sat, [R.var("x"), R.var("y")]) == sat
    # not zero-dimensional: (x^2, x*y) : (x, y)^infinity = (x)
    sat = saturation([R.parse("x^2"), R.parse("x*y")], [R.var("x"), R.var("y")])
    assert list(sat) == [R.parse("x")]


def test_primary_component_splits_dimensions():
    # the running two-variable example: a length-4 component at the origin
    # and a length-2 component at (1, +-sqrt(1/2))
    R = PolyRing(QQ, ["x1", "x2"])
    gens = [R.parse("(x1 - 1)*x1*x2"), R.parse("x1^2 - 2*x2^2")]
    total = groebner_basis(gens)
    assert total.quotient_dimension() == 6

    origin = primary_component(gens, [R.var("x1"), R.var("x2")])
    other = primary_component(gens, [R.parse("x1 - 1"), R.parse("x2^2 - 1/2")])
    assert origin.quotient_dimension() == 4
    assert other.quotient_dimension() == 2
    # the components are comaximal, so they meet in the whole ideal exactly
    # when both contain it and their lengths add up
    assert all(origin.contains(f) and other.contains(f) for f in total)
    assert origin.quotient_dimension() + other.quotient_dimension() == 6
    # and the saturation away from the origin is exactly the other component
    assert saturation(gens, [R.var("x1"), R.var("x2")]) == other


def test_primary_component_when_ideal_is_local():
    R = PolyRing(QQ, ["x"])
    gens = [R.parse("x^3")]
    comp = primary_component(gens, [R.var("x")])
    assert comp == groebner_basis(gens)


def test_primary_component_checks_the_point():
    R = PolyRing(QQ, ["x", "y"])
    gens = [R.parse("x^2 - y"), R.parse("x*y - 1")]
    with pytest.raises(PointNotOnZeroLocusError, match="does not vanish"):
        primary_component(gens, [R.var("x"), R.var("y")])
    S = PolyRing(QQ, ["x", "y", "z"])
    with pytest.raises(RingMismatchError, match="point generators"):
        primary_component(gens, [S.parse("x - 1"), S.parse("y - 1"), S.var("z")])
    # at a simple zero the component is the point itself
    point = [R.parse("x - 1"), R.parse("y - 1")]
    assert primary_component(gens, point) == groebner_basis(point)


# two systems in x, y, z with a zero at the origin that is not isolated
NOT_ISOLATED = [
    (
        QQ,
        "y*z^2 + 3*y - 4*z^2; y^2*z - x*y^2*z - 4*x^2*z; y - 3*z - 2*z^2",
        "R/(I + m^25) has dimension 25, past the Bezout bound 24",
    ),
    (
        GF(7),
        "x*y - 2*x^2*y^2 + 4*y^2*z; -3*x*y^2*z - 2*x^2 - 2*y; x*y*z + 3*x^2*y*z^2 - x",
        "R/(I + m^81) has dimension 81, past the Bezout bound 80",
    ),
]


@pytest.mark.parametrize("field, system, message", NOT_ISOLATED, ids=["Q", "F7"])
def test_primary_component_steps_take_few_generators(monkeypatch, field, system, message):
    # each step is generated by I and m times the previous reduced basis, so
    # no call sees the C(k+2, 2) products of k generators of m
    inner = groebner.groebner_basis

    def bounded(gens, order=DEGREVLEX):
        gens = list(gens)
        assert len(gens) <= 30, f"a step passed {len(gens)} generators"
        return inner(gens, order)

    ring = PolyRing(field, ("x", "y", "z"))
    gens = [ring.parse(f) for f in system.split(";")]
    monkeypatch.setattr(groebner, "groebner_basis", bounded)
    with pytest.raises(NotZeroDimensionalError, match=re.escape(message)):
        primary_component(gens, ring.gens())


def reference_primary_component(gens, point_gens):
    """The chain I + m^k with m^k spelled out as every product of k
    generators of m (nondecreasing indices), each step from scratch."""
    gens = [g for g in gens if g]
    point = groebner_basis(point_gens, DEGREVLEX)
    degrees = sorted(g.total_degree() for g in gens)
    bound = prod(degrees[-point.ring.nvars :])
    power = list(enumerate(point))
    component = point
    prev = 0
    for k in count(1):
        dim = component.quotient_dimension()
        if dim == prev:
            return component
        if dim > bound:
            raise NotZeroDimensionalError(
                f"the local quotient R/(I + m^{k}) has dimension {dim},"
                f" past the Bezout bound {bound}"
            )
        prev = dim
        power = [(j, p * point[j]) for i, p in power for j in range(i, len(point))]
        component = groebner_basis(gens + [p for _, p in power], DEGREVLEX)


def _chain_outcome(chain, gens, point):
    try:
        return chain(gens, point)
    except NotZeroDimensionalError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "field, coeffs, c",
    [(QQ, None, 2), (GF(7), None, 3), (FunctionField(GF(3), "t"), "t", None)],
    ids=["Q", "F7", "F3(t)"],
)
def test_primary_component_matches_full_power_chain(field, coeffs, c):
    rng = random.Random(f"chain:{field}")
    if coeffs is not None:
        t = field.gen()
        coeffs, c = [t, t + 1, 1 / t], t
    cases = []
    for nvars in (2, 3):
        # _systems lists a system once with its global basis and once more
        # with its local one when the origin is isolated
        systems = {id(fs): fs for fs, _ in _systems(field, nvars, 6, rng, coeffs)}
        ring = PolyRing(field, tuple(f"x{i}" for i in range(1, nvars + 1)))
        cases += [(fs, ring.gens()) for fs in systems.values()]
    # a length-8 zero at the degree-2 point x^2 = c, y = x
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.gens()
    q = x * x - ring.const(c)
    cases.append(([q * q * (x - 1), (y - x) ** 2], [q, y - x]))
    # the line x = 0 through the origin: both chains pass the Bezout bound
    cases.append(([x * y, x * (x - 1)], [x, y]))
    for fs, point in cases:
        got = _chain_outcome(primary_component, fs, point)
        assert got == _chain_outcome(reference_primary_component, fs, point)


def test_primary_component_matches_full_power_chain_at_fat_points():
    # the running example: length 4 at the origin, 2 at (1, +-sqrt(1/2))
    R = PolyRing(QQ, ["x1", "x2"])
    x1, x2 = R.gens()
    node = [(x1 - 1) * x1 * x2, x1 * x1 - 2 * x2 * x2]
    # over F7, where 3 is not a square: a length-8 zero at a degree-2 point
    F7 = PolyRing(GF(7), ("x", "y", "z"))
    x, y, z = F7.gens()
    u, v, w = x + z, y + 2 * x, z
    fat = [(u * u - 3) ** 2 * (u - 1), (v - u) ** 2, w - u * v]
    cases = [
        (node, [x1, x2], 4),
        (node, [x1 - 1, x2 * x2 - Fraction(1, 2)], 2),
        (fat, [u * u - 3, v - u, w - 3], 8),
        (fat, [u - 1, v - 1, w - 1], 2),
    ]
    for fs, point, length in cases:
        component = primary_component(fs, point)
        assert component.quotient_dimension() == length
        assert component == reference_primary_component(fs, point)

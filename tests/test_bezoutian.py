import random
from itertools import product

import pytest

import a1deg.groebner
from a1deg.bezoutian import bezoutian, delta_matrix, det_mod
from a1deg.errors import NonSquareSystemError, NotZeroDimensionalError, RingMismatchError
from a1deg.fields import GF, QQ, FunctionField, Scalar
from a1deg.grassmannian import coordinate_forms, random_forms, section_system
from a1deg.groebner import DEGREVLEX, groebner_basis, normal_form, primary_component
from a1deg.gw import GWClass, class_of_gram, equals
from a1deg.polynomials import Poly, PolyRing, mono_mul
from matrices import scalar_det


def random_poly(rng, ring, max_deg=2, terms=4, coeffs=None):
    out = ring.zero
    for _ in range(terms):
        mono = [0] * ring.nvars
        for _ in range(rng.randrange(max_deg + 1)):
            mono[rng.randrange(ring.nvars)] += 1
        c = ring.const(rng.randrange(-5, 6))
        if coeffs is not None:
            c = c * ring.const(rng.choice(coeffs))
        out = out + c * ring.monomial(tuple(mono))
    return out


# ---------------------------------------------------------------------------
# reference: the Bezoutian in the doubled ring k[X, Y]


def doubled_ring(ring):
    n = ring.nvars
    return PolyRing(ring.field, [f"X{j}" for j in range(n)] + [f"Y{j}" for j in range(n)])


def shift(big, f, m):
    """f with its first m variables renamed to the Y block, the rest to X."""
    n = f.ring.nvars
    terms = {}
    for mono, c in f.terms.items():
        x_part = tuple(0 if l < m else mono[l] for l in range(n))
        y_part = tuple(mono[l] if l < m else 0 for l in range(n))
        terms[x_part + y_part] = c
    return Poly(big, terms)


def reference_delta(big, polys):
    n = len(polys)
    return [
        [
            (shift(big, f, j) - shift(big, f, j + 1)).exact_div(big.var(j) - big.var(n + j))
            for j in range(n)
        ]
        for f in polys
    ]


def cofactor_det(mat):
    if len(mat) == 1:
        return mat[0][0]
    total = mat[0][0].ring.zero
    for c, entry in enumerate(mat[0]):
        if entry:
            minor = [row[:c] + row[c + 1 :] for row in mat[1:]]
            term = entry * cofactor_det(minor)
            total = total - term if c % 2 else total + term
    return total


def reference_element(mat, gb, basis):
    """Cofactor determinant of a matrix over k[X, Y], reduced modulo both
    renamed copies of gb, as {(a, b): coefficient} on basis(X) x basis(Y);
    every monomial must be such a pair."""
    big = mat[0][0].ring
    n = gb.ring.nvars
    pad = (0,) * n
    reducers = [Poly(big, {m + pad: c for m, c in g.terms.items()}) for g in gb]
    reducers += [Poly(big, {pad + m: c for m, c in g.terms.items()}) for g in gb]
    reduced = normal_form(cofactor_det(mat), reducers, DEGREVLEX)
    index = {m: i for i, m in enumerate(basis)}
    return {(index[m[:n]], index[m[n:]]): c for m, c in reduced.terms.items()}


def reference_gram(polys, gb, basis):
    k = gb.ring.field
    element = reference_element(reference_delta(doubled_ring(gb.ring), polys), gb, basis)
    gram = [[k.zero for _ in basis] for _ in basis]
    for (a, b), c in element.items():
        gram[a][b] = Scalar(k, c)
    return gram


def expand(big, entry):
    """A delta entry {(alpha, beta): c} as a polynomial in k[X, Y]."""
    return Poly(big, {alpha + beta: c for (alpha, beta), c in entry.items()})


# ---------------------------------------------------------------------------
# Jacobian and trace form, from normal forms only


def jacobian_matrix(polys):
    n = polys[0].ring.nvars
    return [[f.diff(j) for j in range(n)] for f in polys]


def jacobian_image(polys, gb):
    """Normal form of the Jacobian determinant in the quotient algebra."""
    return gb.normal_form(cofactor_det(jacobian_matrix(polys)))


def multiply_out(gram, gb, basis):
    """mu(Bezoutian) = sum_{a,b} gram[a][b] m_a m_b, reduced in A."""
    ring = gb.ring
    total = ring.zero
    for a, ma in enumerate(basis):
        for b, mb in enumerate(basis):
            if gram[a][b]:
                total = total + ring.const(gram[a][b]) * ring.monomial(
                    tuple(x + y for x, y in zip(ma, mb))
                )
    return gb.normal_form(total)


def trace_form_class(polys, gb, basis):
    """The class of (a, b) -> Tr_{A/k}(J a b), or None when J is not a unit.

    When J is invertible in A it is isometric, via a -> J^-1 a, to the
    Scheja-Storch form (a, b) -> Tr(J^-1 a b) of an etale algebra.
    """
    ring = gb.ring
    k = ring.field

    def coords(f):
        nf = gb.normal_form(f)
        return [nf.coefficient(m) for m in basis]

    monos = [ring.monomial(m) for m in basis]
    trace = [
        sum((coords(mc * me)[e] for e, me in enumerate(monos)), k.zero) for mc in monos
    ]
    jac = jacobian_image(polys, gb)
    if not scalar_det([coords(jac * ma) for ma in monos], k):
        return None
    gram = [
        [
            sum((x * t for x, t in zip(coords(jac * ma * mb), trace)), k.zero)
            for mb in monos
        ]
        for ma in monos
    ]
    return class_of_gram(k, gram)


# ---------------------------------------------------------------------------
# delta


def test_delta_matrix_frozen():
    ring = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = ring.gens()
    delta = delta_matrix([x1 * x2, x1 + x2])
    # [[X2, Y1], [1, 1]]
    assert delta == [
        [{((0, 1), (0, 0)): 1}, {((0, 0), (1, 0)): 1}],
        [{((0, 0), (0, 0)): 1}, {((0, 0), (0, 0)): 1}],
    ]
    # x^3 in column 1 of 1: (X^3 - Y^3)/(X - Y) = Y^2 + XY + X^2
    line = PolyRing(QQ, ("x",))
    (x,) = line.gens()
    assert delta_matrix([x**3]) == [[{((0,), (2,)): 1, ((1,), (1,)): 1, ((2,), (0,)): 1}]]


def test_delta_telescopes():
    rng = random.Random(4)
    for field in (QQ, GF(7)):
        ring = PolyRing(field, ("x", "y", "z"))
        big = doubled_ring(ring)
        n = ring.nvars
        for _ in range(8):
            fs = [random_poly(rng, ring, max_deg=3) for _ in range(n)]
            delta = delta_matrix(fs)
            for i in range(n):
                total = big.zero
                for j in range(n):
                    total = total + expand(big, delta[i][j]) * (big.var(j) - big.var(n + j))
                assert total == shift(big, fs[i], 0) - shift(big, fs[i], n)


def test_system_shape_errors():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    with pytest.raises(NonSquareSystemError):
        delta_matrix([x])
    with pytest.raises(NonSquareSystemError):
        delta_matrix([])
    other = PolyRing(QQ, ("u", "v"))
    with pytest.raises(RingMismatchError):
        delta_matrix([x, other.var(0)])
    gb = groebner_basis([x * x, y * y], DEGREVLEX)
    other_gb = groebner_basis([other.var(0), other.var(1)], DEGREVLEX)
    with pytest.raises(RingMismatchError):
        bezoutian([x * x, y * y], other_gb)


# ---------------------------------------------------------------------------
# determinants in A (x) A


def random_map(rng, field, nvars, terms=2):
    """A random entry {(alpha, beta): c} of degree at most one in X and Y."""
    out = {}
    for _ in range(terms):
        alpha, beta = [0] * nvars, [0] * nvars
        for side in rng.sample((alpha, beta), rng.randrange(3)):
            side[rng.randrange(nvars)] += 1
        out[tuple(alpha), tuple(beta)] = field.from_int(rng.randrange(1, 11))
    return out


def test_det_basic_identities():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    gb = groebner_basis([x * x, y * y], DEGREVLEX)
    basis = gb.quotient_basis()
    assert basis == [(0, 0), (0, 1), (1, 0), (1, 1)]  # 1, y, x, xy
    X = {((1, 0), (0, 0)): 1}
    Y = {((0, 0), (0, 1)): 1}
    one = {((0, 0), (0, 0)): 1}
    assert det_mod([[X, {}], [one, Y]], gb) == {(2, 1): 1}  # x (x) y
    assert det_mod([[X, Y], [X, Y]], gb) == {}
    a = det_mod([[X, Y], [one, X]], gb)
    b = det_mod([[one, X], [X, Y]], gb)  # rows swapped
    assert a and b == {key: -c for key, c in a.items()}
    assert det_mod([[X]], gb) == {(2, 0): 1}
    with pytest.raises(NonSquareSystemError):
        det_mod([[X, Y]], gb)
    with pytest.raises(NonSquareSystemError):
        det_mod([], gb)


def test_det_mod_matches_reduced_plain_det():
    ring = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = ring.gens()
    ring3 = PolyRing(QQ, ("x1", "x2", "x3"))
    g1 = ring3.parse("x1^2 - x2")
    g2 = ring3.parse("x2^2 - 1")
    g3 = ring3.parse("x3^2 + x1*x3")
    for fs in ([x1 * x2, x1 + x2], [g1, g2, g3]):
        gb = groebner_basis(fs, DEGREVLEX)
        basis = gb.quotient_basis()
        delta = reference_delta(doubled_ring(gb.ring), fs)
        assert det_mod(delta_matrix(fs), gb) == reference_element(delta, gb, basis)


def test_det_small_and_bareiss_agree():
    # det_mod on random matrices of every size up to 6, over a fixed
    # quotient, against the cofactor determinant reduced in k[X, Y]
    rng = random.Random(6)
    ring = PolyRing(GF(11), ("a", "b"))
    a, b = ring.gens()
    gb = groebner_basis([a ** 3 - b, b ** 2 + a * b - 1], DEGREVLEX)
    basis = gb.quotient_basis()
    big = doubled_ring(ring)
    for n in (1, 2, 3, 4, 5, 6):
        mat = [[random_map(rng, GF(11), 2) for _ in range(n)] for _ in range(n)]
        expected = reference_element([[expand(big, e) for e in row] for row in mat], gb, basis)
        assert det_mod(mat, gb) == expected


def test_bezoutian_of_squares():
    # det(delta) = (X1 + Y1)(X2 + Y2)(X3 + Y3): every m_a (x) m_b with
    # m_a m_b = x1 x2 x3, coefficient 1
    ring = PolyRing(QQ, ("x1", "x2", "x3"))
    x1, x2, x3 = ring.gens()
    fs = [x1 * x1, x2 * x2, x3 * x3]
    gb = groebner_basis(fs, DEGREVLEX)
    basis = gb.quotient_basis()
    expected = {
        (a, b): 1
        for a, ma in enumerate(basis)
        for b, mb in enumerate(basis)
        if mono_mul(ma, mb) == (1, 1, 1)
    }
    assert len(expected) == 8
    assert det_mod(delta_matrix(fs), gb) == expected


# ---------------------------------------------------------------------------
# Gram matrices


def _systems(field, nvars, count, rng, coeffs=None):
    """Seeded square systems vanishing at the origin, with their global and
    (when the origin is isolated) local bases."""
    ring = PolyRing(field, tuple(f"x{i}" for i in range(1, nvars + 1)))
    gens = ring.gens()
    out = []
    while len(out) < count:
        fs = []
        for g in gens:
            f = g ** rng.randint(1, 3) + random_poly(rng, ring, 2, 3, coeffs)
            fs.append(f - ring.const(f.coefficient((0,) * nvars)))
        gb = groebner_basis(fs, DEGREVLEX)
        if not gb.is_zero_dimensional():
            continue
        out.append((fs, gb))
        try:
            out.append((fs, primary_component(fs, list(gens))))
        except NotZeroDimensionalError:
            pass
    return out


@pytest.mark.parametrize(
    "field, coeffs",
    [(QQ, None), (GF(7), None), (FunctionField(GF(3), "t"), "t")],
    ids=["Q", "F7", "F3(t)"],
)
def test_gram_matches_doubled_ring_reference(field, coeffs):
    rng = random.Random(f"reference:{field}")
    if coeffs is not None:
        t = field.gen()
        coeffs = [t, t + 1, 1 / t]
    checked = 0
    for nvars in (2, 3):
        for fs, gb in _systems(field, nvars, 8, rng, coeffs):
            basis = gb.quotient_basis()
            big = doubled_ring(gb.ring)
            assert [[expand(big, e) for e in row] for row in delta_matrix(fs)] == (
                reference_delta(big, fs)
            )
            assert bezoutian(fs, gb) == reference_gram(fs, gb, basis)
            checked += 1
    assert checked >= 16


def _guard_cases():
    """(system, reduced basis) pairs: the README global example, the F7
    length-8 fat point of tests/test_degree.py, an F3(t) system and the
    Q Gr(2,4) section drawn by Random(1)."""
    ring = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = ring.gens()
    readme = [x1 * x2, x1 + x2]
    F7 = PolyRing(GF(7), ("x", "y", "z"))
    x, y, z = F7.gens()
    u, v, w = x + z, y + 2 * x, z
    fat = [(u * u - 3) ** 2 * (u - 1), (v - u) ** 2, w - u * v]
    K = FunctionField(GF(3), "t")
    t = K.gen()
    Kring = PolyRing(K, ("a", "b"))
    a, b = Kring.gens()
    over_t = [a * a - Kring.const(t) * b, b * b + a * b - Kring.const(t + 1)]
    gr24 = section_system(QQ, 2, 4, random_forms(QQ, 4, random.Random(1)))
    fat_point = primary_component(fat, [u * u - 3, v - u, w - 3])
    assert fat_point.quotient_dimension() == 8
    return [
        (readme, groebner_basis(readme, DEGREVLEX)),
        (fat, fat_point),
        (over_t, groebner_basis(over_t, DEGREVLEX)),
        (gr24, groebner_basis(gr24, DEGREVLEX)),
    ]


def test_bezoutian_runs_no_division_and_builds_no_poly(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("division or a Poly on the Bezoutian path")

    for fs, gb in _guard_cases():
        basis = gb.quotient_basis()
        expected = reference_gram(fs, gb, basis)
        with monkeypatch.context() as m:
            m.setattr(a1deg.groebner, "reduce_by", forbidden)
            m.setattr(Poly, "__init__", forbidden)
            gram = bezoutian(fs, gb)
        assert gram == expected


def _degree_two_component(field, c):
    """The primary component at the closed point x^2 = c, y = x of a system
    with a length-8 zero there; c must not be a square in field."""
    ring = PolyRing(field, ("x", "y"))
    x, y = ring.gens()
    q = x * x - ring.const(c)
    fs = [q * q * (x - 1), (y - x) ** 2]
    component = primary_component(fs, [q, y - x])
    assert component.quotient_dimension() == 8
    return component


@pytest.mark.parametrize(
    "field, coeffs, c",
    [(QQ, None, 2), (GF(7), None, 3), (FunctionField(GF(3), "t"), "t", None)],
    ids=["Q", "F7", "F3(t)"],
)
def test_monomial_normal_forms_match_division(field, coeffs, c):
    rng = random.Random(f"normal forms:{field}")
    if coeffs is not None:
        t = field.gen()
        coeffs, c = [t, t + 1, 1 / t], t
    cases = _systems(field, 2, 4, rng, coeffs) + _systems(field, 3, 3, rng, coeffs)
    bases = [gb for _, gb in cases] + [_degree_two_component(field, c)]
    for gb in bases:
        ring = gb.ring
        basis = gb.quotient_basis()
        nf = gb.monomial_normal_forms()
        for alpha in product(range(4), repeat=ring.nvars):
            if sum(alpha) > 3:
                continue
            for m in basis:
                p = mono_mul(alpha, m)
                got = {basis[b]: w for b, w in nf(p)}
                assert got == gb.normal_form(ring.monomial(p)).terms


def test_gram_of_simple_node():
    ring = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = ring.gens()
    fs = [x1 * x2, x1 + x2]
    gb = groebner_basis(fs, DEGREVLEX)
    basis = gb.quotient_basis()
    assert basis == [(0, 0), (0, 1)]  # 1 and x2
    gram = bezoutian(fs, gb)
    assert gram == [[QQ.zero, QQ.one], [QQ.one, QQ.zero]]
    assert class_of_gram(QQ, gram) == GWClass(QQ, 1, ())


def test_gram_of_squares_is_antidiagonal():
    ring = PolyRing(QQ, ("x1", "x2", "x3"))
    x1, x2, x3 = ring.gens()
    fs = [x1 * x1, x2 * x2, x3 * x3]
    gb = groebner_basis(fs, DEGREVLEX)
    basis = gb.quotient_basis()
    names = [str(ring.monomial(m)) for m in basis]
    assert names == ["1", "x3", "x2", "x1", "x2*x3", "x1*x3", "x1*x2", "x1*x2*x3"]
    gram = bezoutian(fs, gb)
    for i in range(8):
        for j in range(8):
            expect = QQ.one if i + j == 7 else QQ.zero
            assert gram[i][j] == expect
    assert class_of_gram(QQ, gram) == GWClass(QQ, 4, ())


def test_gram_over_function_field():
    K = FunctionField(GF(3), "t")
    t = K.gen()
    ring = PolyRing(K, ("x1", "x2"))
    x1, x2 = ring.gens()
    fs = [x1 ** 3 - ring.const(t), x1 * x2]
    gb = groebner_basis(fs, DEGREVLEX)
    assert [str(g) for g in gb] == ["x2", "x1^3 + 2*t"]  # -t = 2t mod 3
    basis = gb.quotient_basis()
    assert basis == [(0, 0), (1, 0), (2, 0)]  # 1, x1, x1^2
    gram = bezoutian(fs, gb)
    zero, one = K.zero, K.one
    assert gram == [[t, zero, zero], [zero, zero, one], [zero, one, zero]]
    cls = class_of_gram(K, gram)
    assert cls == GWClass(K, 1, (t,))


def test_diagonal_of_bezoutian_is_jacobian():
    rng = random.Random(8)
    ring = PolyRing(GF(7), ("x", "y"))
    x, y = ring.gens()
    done = 0
    while done < 6:
        fs = [
            x * x + random_poly(rng, ring, max_deg=1, terms=2),
            y * y + random_poly(rng, ring, max_deg=1, terms=2),
        ]
        gb = groebner_basis(fs, DEGREVLEX)
        if not gb.is_zero_dimensional():
            continue
        basis = gb.quotient_basis()
        gram = bezoutian(fs, gb)
        assert multiply_out(gram, gb, basis) == jacobian_image(fs, gb)
        done += 1


def test_jacobian_matrix_shape():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    jac = jacobian_matrix([x * x * y, x + y])
    assert jac == [[2 * x * y, x * x], [ring.one, ring.one]]


# ---------------------------------------------------------------------------
# trace-form oracle


def _agrees_with_trace_form(fs, gb):
    basis = gb.quotient_basis()
    expected = trace_form_class(fs, gb, basis)
    if expected is None:
        return None
    return equals(expected, class_of_gram(gb.ring.field, bezoutian(fs, gb)))


def test_trace_form_oracle_over_f7():
    rng = random.Random("trace:F7")
    agreed = 0
    for nvars in (1, 2, 3):
        for fs, gb in _systems(GF(7), nvars, 6, rng):
            verdict = _agrees_with_trace_form(fs, gb)
            assert verdict is not False
            agreed += verdict is True
    assert agreed >= 8


def test_trace_form_oracle_on_grassmannian_sections():
    F101 = GF(101)
    cases = [(F101, random_forms(F101, 4, random.Random(s))) for s in (1, 2, 3)]
    cases += [(QQ, coordinate_forms(QQ, 4)), (QQ, random_forms(QQ, 4, random.Random(1)))]
    for field, forms in cases:
        fs = section_system(field, 2, 4, forms)
        gb = groebner_basis(fs, DEGREVLEX)
        assert gb.quotient_dimension() == 6
        assert _agrees_with_trace_form(fs, gb) is True

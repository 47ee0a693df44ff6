import random
from fractions import Fraction

import pytest

from a1deg.bezoutian import bezoutian, delta_matrix, det_mod
from a1deg.cli import main
from a1deg.degree import (
    apply_matrix,
    check_local_global,
    compose,
    global_degree,
    global_degree_data,
    local_degree,
    local_degree_data,
)
from a1deg.errors import (
    IncompleteCoverError,
    NotZeroDimensionalError,
    PointNotOnZeroLocusError,
)
from a1deg.fields import GF, QQ, parse_field
from a1deg.grassmannian import euler_characteristic
from a1deg.groebner import DEGREVLEX, GroebnerBasis, groebner_basis
from a1deg.gw import GWClass, equals, simplify
from a1deg.polynomials import PolyRing


def test_univariate_powers():
    ring = PolyRing(QQ, ("x",))
    (x,) = ring.gens()
    assert global_degree([x ** 2]) == GWClass(QQ, 1, ())
    assert global_degree([x ** 4]) == GWClass(QQ, 2, ())
    assert global_degree([x ** 3]) == GWClass.of(QQ, 1, [1])


def test_univariate_split_roots_match_derivative_sum():
    # for f with distinct rational roots the degree is the sum of <f'(root)>
    rng = random.Random(21)
    ring = PolyRing(QQ, ("x",))
    (x,) = ring.gens()
    for _ in range(8):
        roots = rng.sample(range(-6, 7), rng.randrange(1, 5))
        f = ring.one
        for r in roots:
            f = f * (x - ring.const(r))
        expected = simplify(
            QQ,
            [
                QQ.scalar(
                    _prod(Fraction(r - s) for s in roots if s != r)
                )
                for r in roots
            ],
        )
        # same underlying form; the canonical shapes may fold differently
        assert equals(global_degree([f]), expected)


def _prod(items):
    out = Fraction(1)
    for v in items:
        out *= v
    return out


def test_empty_zero_scheme(capsys):
    ring = PolyRing(QQ, ("x",))
    data = global_degree_data([ring.one + ring.var(0) - ring.var(0)])
    assert data.gw == GWClass(QQ, 0, ())
    assert data.multiplicity == 0
    assert str(data.gw) == "0"
    # two variables: xy - 1 and x have no common zero
    for spec in ("Q", "F7", "F3(t)"):
        ring = PolyRing(parse_field(spec), ("x", "y"))
        polys = [ring.parse("x*y - 1"), ring.parse("x")]
        data = global_degree_data(polys)
        assert data.gw == GWClass(ring.field, 0, ())
        assert data.multiplicity == 0 and data.basis == []
        gb = groebner_basis(polys, DEGREVLEX)
        assert bezoutian(polys, gb) == []
        assert det_mod(delta_matrix(polys), gb) == {}
        argv = ["global", "--field", spec, "--vars", "x,y", "--system", "x*y - 1; x"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "0\n"


def test_each_basis_walks_its_staircase_once(monkeypatch):
    """check_local_global and euler_characteristic reuse every walk: the
    quotient basis of a Groebner basis is computed on its first call only."""
    walked, bases = [], []
    quotient_basis = GroebnerBasis.quotient_basis

    def counting(gb):
        if not any(b is gb for b in bases):
            bases.append(gb)
        if gb._standard is None:
            walked.append(gb)
        return quotient_basis(gb)

    monkeypatch.setattr(GroebnerBasis, "quotient_basis", counting)
    ring = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = ring.gens()
    fs = [(x1 - ring.one) * x1 * x2, x1 * x1 - 2 * x2 * x2]
    points = [[x1, x2], [x1 - ring.one, 2 * x2 * x2 - ring.one]]
    assert check_local_global(fs, points)[2]
    assert len(walked) == len(bases) > 3
    walked.clear()
    bases.clear()
    assert euler_characteristic(GF(101), 2, 4).rank == 6
    assert len(walked) == len(bases) == 1


def test_not_zero_dimensional():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    with pytest.raises(NotZeroDimensionalError):
        global_degree([x * y, x * y])


def test_local_degree_at_a_non_isolated_zero_raises():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    with pytest.raises(NotZeroDimensionalError):
        local_degree([x * y, x * y], [x, y])
    # the line x = 0 passes through the origin; (1, 0) is an isolated zero
    fs = [x * y, x * (x - ring.one)]
    with pytest.raises(NotZeroDimensionalError):
        local_degree(fs, [x, y])
    assert local_degree(fs, [x - ring.one, y]) == GWClass.of(QQ, units=[-1])


def test_fat_non_rational_point_in_three_variables():
    # over F7, 3 is not a square: a length-8 component at the closed point
    # x^2 = 3 (in the coordinates before the change) and a length-2 one at 1
    F7 = GF(7)
    ring = PolyRing(F7, ("x", "y", "z"))
    x, y, z = ring.gens()
    u, v, w = x + z, y + 2 * x, z
    fs = [(u * u - 3) ** 2 * (u - 1), (v - u) ** 2, w - u * v]
    fat = [u * u - 3, v - u, w - 3]
    simple = [u - 1, v - 1, w - 1]
    gdata = global_degree_data(fs)
    ldata = [local_degree_data(fs, pt) for pt in (fat, simple)]
    assert [l.multiplicity for l in ldata] == [8, 2]
    assert gdata.multiplicity == 8 + 2
    assert gdata.gw == GWClass(F7, 5, ())
    assert ldata[0].gw == GWClass(F7, 4, ())
    assert ldata[1].gw == GWClass(F7, 1, ())
    _, _, ok = check_local_global(fs, [fat, simple])
    assert ok


def test_node_example_local_global():
    ring = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = ring.gens()
    fs = [(x1 - ring.one) * x1 * x2, x1 * x1 - 2 * x2 * x2]
    gdata = global_degree_data(fs)
    assert gdata.multiplicity == 6
    assert gdata.gw == GWClass(QQ, 3, ())

    origin = [x1, x2]
    ldata0 = local_degree_data(fs, origin)
    assert ldata0.multiplicity == 4
    assert equals(ldata0.gw, GWClass.of(QQ, 1, [1, 2]))

    conj = [x1 - ring.one, x2 * x2 - ring.const(Fraction(1, 2))]
    ldata1 = local_degree_data(fs, conj)
    assert ldata1.multiplicity == 2
    assert ldata1.gw == GWClass.of(QQ, units=[-1, -2])

    total, locs, ok = check_local_global(fs, [origin, conj])
    assert ok
    assert total == GWClass(QQ, 3, ())
    assert len(locs) == 2


def test_local_of_isolated_simple_zeros():
    ring = PolyRing(QQ, ("x",))
    (x,) = ring.gens()
    f = [x * x - ring.one]
    at_one = local_degree(f, [x - ring.one])
    at_minus = local_degree(f, [x + ring.one])
    assert at_one == GWClass.of(QQ, units=[2])
    assert at_minus == GWClass.of(QQ, units=[-2])
    _, _, ok = check_local_global(f, [[x - ring.one], [x + ring.one]])
    assert ok


def test_point_must_lie_on_zero_locus():
    ring = PolyRing(QQ, ("x",))
    (x,) = ring.gens()
    with pytest.raises(PointNotOnZeroLocusError):
        local_degree([x], [x - ring.one])


def test_simple_zero_takes_two_groebner_bases(monkeypatch):
    # one basis for the point and one for I + m^2; I + m is the point itself
    import a1deg.degree
    import a1deg.groebner

    calls = []
    real = a1deg.groebner.groebner_basis

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for module in (a1deg.degree, a1deg.groebner):
        monkeypatch.setattr(module, "groebner_basis", counting)
    ring = PolyRing(QQ, ("x", "y"))
    fs = [ring.parse("x^2 + y^2 - 2"), ring.parse("x - y")]
    data = local_degree_data(fs, [ring.parse("x - 1"), ring.parse("y - 1")])
    assert data.multiplicity == 1
    assert len(calls) == 2


def test_incomplete_cover_detected():
    ring = PolyRing(QQ, ("x",))
    (x,) = ring.gens()
    with pytest.raises(IncompleteCoverError):
        check_local_global([x * x - ring.one], [[x - ring.one]])


def test_linear_change_of_target_scales_by_determinant():
    rng = random.Random(13)
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    fs = [x * x - ring.one, y * y - ring.const(4)]
    base = global_degree(fs)
    for _ in range(6):
        a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
        det = a * d - b * c
        if det == 0:
            continue
        moved = global_degree(apply_matrix([[a, b], [c, d]], fs))
        assert equals(moved, GWClass.of(QQ, units=[det]) * base)


def test_unipotent_poly_matrix_preserves_degree():
    ring = PolyRing(QQ, ("x", "y"))
    x, y = ring.gens()
    fs = [x * x - ring.one, y * y - ring.const(4)]
    m = [[ring.one, x * y], [ring.zero, ring.one]]
    assert equals(global_degree(apply_matrix(m, fs)), global_degree(fs))


def test_composition_multiplies_degrees():
    ring = PolyRing(QQ, ("x",))
    (x,) = ring.gens()
    f = [x ** 2]
    g = [x ** 3]
    fg = compose(f, g)
    assert fg == [x ** 6]
    assert equals(global_degree(fg), global_degree(f) * global_degree(g))
    h = [x ** 2 - ring.one]
    hg = compose(h, g)
    assert equals(global_degree(hg), global_degree(h) * global_degree(g))


def test_finite_field_global():
    F7 = GF(7)
    ring = PolyRing(F7, ("x", "y"))
    x, y = ring.gens()
    fs = [x * y, x + y]
    assert global_degree(fs) == GWClass(F7, 1, ())

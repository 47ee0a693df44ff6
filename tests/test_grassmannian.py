import random

import pytest

from a1deg.errors import RetriesExhaustedError
from a1deg.fields import GF, QQ
from a1deg.grassmannian import (
    closed_form,
    closed_form_table,
    coordinate_forms,
    euler_characteristic,
    random_forms,
    recurrence_holds,
    section_ring,
    section_system,
)
from a1deg.gw import GWClass, equals

# (r, n) -> (hyperbolic count, number of <1> summands)
KNOWN_TABLE = {
    (1, 2): (1, 0),
    (1, 3): (1, 1),
    (2, 3): (1, 1),
    (1, 4): (2, 0),
    (2, 4): (2, 2),
    (3, 4): (2, 0),
    (1, 5): (2, 1),
    (2, 5): (4, 2),
    (3, 5): (4, 2),
    (4, 5): (2, 1),
    (1, 6): (3, 0),
    (2, 6): (6, 3),
    (3, 6): (10, 0),
    (4, 6): (6, 3),
    (5, 6): (3, 0),
    (1, 7): (3, 1),
    (2, 7): (9, 3),
    (3, 7): (16, 3),
    (4, 7): (16, 3),
    (5, 7): (9, 3),
    (6, 7): (3, 1),
}


def test_section_system_frozen_for_gr_2_4():
    ring = section_ring(QQ, 2, 4)
    assert ring.names == ("x1_1", "x2_1", "x1_2", "x2_2")
    system = section_system(QQ, 2, 4)
    expected = [
        ring.parse("x1_2 - x1_1*x2_1"),
        ring.parse("x2_2 - x1_1 - x2_1^2"),
        ring.parse("1 - x1_1*x2_2"),
        ring.parse("-x1_2 - x2_1*x2_2"),
    ]
    assert system == expected


def test_coordinate_forms_are_shifted_basis_rows():
    forms = coordinate_forms(QQ, 4)
    assert forms == [
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ]


def test_euler_gr_2_4():
    got = euler_characteristic(QQ, 2, 4)
    want = GWClass.of(QQ, 2, [1, 1])
    assert equals(got, want)
    assert got.rank == 6
    assert got.signature() == 2


def test_euler_gr_2_4_random_sections():
    want = GWClass.of(QQ, 2, [1, 1])
    for seed in (1, 2, 3):
        forms = random_forms(QQ, 4, random.Random(f"sections:{seed}"))
        got = euler_characteristic(QQ, 2, 4, seed=seed, forms=forms)
        assert equals(got, want)


def test_euler_small_cells_match_closed_form():
    for r, n in ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4)):
        got = euler_characteristic(QQ, r, n)
        assert equals(got, closed_form(QQ, r, n))
        from math import comb

        assert got.rank == comb(n, r)


def test_euler_over_finite_field():
    F7 = GF(7)
    got = euler_characteristic(F7, 1, 3)
    assert equals(got, closed_form(F7, 1, 3))


def test_closed_form_matches_known_table():
    for (r, n), (h, ones) in KNOWN_TABLE.items():
        assert closed_form(QQ, r, n) == GWClass.of(QQ, h, [1] * ones)
    table = closed_form_table(QQ, 7)
    assert set(table) == set(KNOWN_TABLE)


def test_closed_form_endpoints_and_symmetry():
    assert closed_form(QQ, 0, 5) == GWClass.of(QQ, units=[1])
    assert closed_form(QQ, 5, 5) == GWClass.of(QQ, units=[1])
    for n in range(2, 11):
        for r in range(1, n):
            assert closed_form(QQ, r, n) == closed_form(QQ, n - r, n)


def test_closed_form_recurrence():
    for n in range(2, 8):
        for r in range(1, n):
            assert recurrence_holds(r, n)


def test_retries_exhausted_on_hopeless_forms():
    zeros = [[0] * 4 for _ in range(4)]
    with pytest.raises(RetriesExhaustedError):
        euler_characteristic(QQ, 2, 4, forms=zeros, max_attempts=1)


def test_candidates_come_explicit_coordinate_then_seeded(monkeypatch):
    import a1deg.grassmannian as grassmannian

    zeros = [[0] * 4 for _ in range(4)]
    seen = []
    real = grassmannian.section_system

    def recording(field, r, n, forms):
        seen.append(forms)
        # every candidate gets the non-generic section, so all three are tried
        return real(field, r, n, zeros)

    monkeypatch.setattr(grassmannian, "section_system", recording)
    with pytest.raises(RetriesExhaustedError):
        euler_characteristic(QQ, 2, 4, seed=3, forms=zeros, max_attempts=3)
    first_draw = random_forms(QQ, 4, random.Random("grassmann:3:2:4"))
    assert seen == [zeros, coordinate_forms(QQ, 4), first_draw]
    seen.clear()
    for cap in (0, -1):
        with pytest.raises(RetriesExhaustedError):
            euler_characteristic(QQ, 2, 4, max_attempts=cap)
    assert seen == []


def test_shape_validation():
    with pytest.raises(ValueError):
        section_ring(QQ, 0, 4)
    with pytest.raises(ValueError):
        euler_characteristic(QQ, 4, 4)
    with pytest.raises(ValueError):
        section_system(QQ, 2, 4, forms=[[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        closed_form(QQ, 3, 2)

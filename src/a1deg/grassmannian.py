"""Euler characteristics of Grassmannians as degrees of generic sections.

Gr(r, n) carries the bundle Hom(S, k^n/S) (S the tautological subbundle),
whose Euler class is computable as a degree: a choice of n linear forms
alpha_1, ..., alpha_n on k^n induces a section, and on the big affine chart
of subspaces with invertible lower block the section is a square polynomial
system in the r(n - r) chart coordinates.  When all C(n, r) zeros land in
the chart and are counted with the expected total multiplicity, the global
degree of that system is the Euler characteristic.

Coordinates: the chart parametrizes the row span of the r x n block matrix
(x | I_r) built from the variables x_{i,q} (i = 1..r, q = 1..n-r), and the
section has one component sigma_{i,j} per pair.  Components and variables
are enumerated in the same (column-major) order, which pins down the
orientation: pairing component (i,j) with any other coordinate order would
twist the degree by the sign of the relabeling permutation.

Genericity is detected, not assumed: if the quotient dimension differs from
C(n, r) the chosen forms were bad and new random ones are drawn, up to a
small retry cap so failures stay loud and deterministic.
"""

from __future__ import annotations

import random
from itertools import chain, count, islice
from math import comb
from typing import Iterator, Optional, Sequence

from .degree import global_degree_data
from .errors import DegenerateFormError, RetriesExhaustedError
from .fields import Field, Rationals
from .groebner import DEGREVLEX, groebner_basis
from .gw import GWClass, equals
from .polynomials import Poly, PolyRing

QQ = Rationals()

Forms = Sequence[Sequence[object]]


def section_ring(field: Field, r: int, n: int) -> PolyRing:
    _check_shape(r, n)
    names = [f"x{i}_{q}" for q in range(1, n - r + 1) for i in range(1, r + 1)]
    return PolyRing(field, names)


def coordinate_forms(field: Field, n: int) -> list[list[int]]:
    """Cyclic shift of the coordinate forms: alpha_m reads coordinate m+1."""
    return [[1 if q == m % n else 0 for q in range(n)] for m in range(1, n + 1)]


def random_forms(field: Field, n: int, rng: random.Random) -> list[list[int]]:
    """Coefficient rows for n random linear forms.

    Over a prime field the coefficients are uniform residues.  Over ℚ they
    come from the box |c| <= 3, kept tight on purpose: Gram entries grow
    multiplicatively in the form coefficients, and canonicalizing a square
    class factors integers.  That factoring can still be hard: for the
    Gr(2,5) class of ``random.Random(2)`` it is in Pollard rho after 25 s.
    """
    if field.characteristic:
        p = field.characteristic
        return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    return [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]


def section_system(
    field: Field, r: int, n: int, forms: Optional[Forms] = None
) -> list[Poly]:
    """The section of Hom(S, k^n/S) induced by the forms, on the big chart."""
    _check_shape(r, n)
    if forms is None:
        forms = coordinate_forms(field, n)
    if len(forms) != n or any(len(row) != n for row in forms):
        raise ValueError(f"need {n} forms with {n} coefficients each")
    ring = section_ring(field, r, n)
    d = n - r

    def x(i: int, q: int) -> Poly:
        return ring.var(f"x{i}_{q}")

    def a(m: int, i: int) -> Poly:
        # alpha_m evaluated on the i-th row (x_{i,1}, ..., x_{i,d}, e_i)
        c = forms[m - 1]
        out = ring.const(c[d + i - 1])
        for q in range(1, d + 1):
            out = out + ring.const(c[q - 1]) * x(i, q)
        return out

    system = []
    for j in range(1, d + 1):
        for i in range(1, r + 1):
            sigma = a(j, i)
            for l in range(1, r + 1):
                sigma = sigma - x(l, j) * a(d + l, i)
            system.append(sigma)
    return system


def euler_characteristic(
    field: Field,
    r: int,
    n: int,
    seed: int = 0,
    forms: Optional[Forms] = None,
    max_attempts: int = 8,
) -> GWClass:
    """Euler characteristic of Gr(r, n) as a bilinear-form class over field.

    Explicitly given forms are tried first, then the coordinate forms, then
    seeded random draws; each candidate must pass the genericity check
    (finite quotient of dimension exactly C(n, r)).
    """
    _check_shape(r, n)
    expected = comb(n, r)
    rng = random.Random(f"grassmann:{seed}:{r}:{n}")
    for candidate in _candidates(field, n, forms, rng, max_attempts):
        system = section_system(field, r, n, candidate)
        gb = groebner_basis(system, DEGREVLEX)
        if not gb.is_zero_dimensional():
            continue
        if gb.quotient_dimension() != expected:
            continue
        try:
            return global_degree_data(system, gb).gw
        except DegenerateFormError:
            continue
    raise RetriesExhaustedError(
        f"no generic section for Gr({r},{n}) in {max_attempts} attempts"
    )


def _candidates(
    field: Field,
    n: int,
    forms: Optional[Forms],
    rng: random.Random,
    cap: int,
) -> Iterator[Forms]:
    explicit = [] if forms is None else [forms]
    draws = (random_forms(field, n, rng) for _ in count())
    candidates = chain(explicit, [coordinate_forms(field, n)], draws)
    return islice(candidates, max(cap, 0))


def closed_form(field: Field, r: int, n: int) -> GWClass:
    """Closed-form Euler characteristic of Gr(r, n).

    The rank is the complex-points count C(n, r).  The number of surviving
    <1> summands is the real-points count: C(floor(n/2), floor(r/2)) when
    the dimension r(n - r) is even, and zero when it is odd, because a
    compact manifold of odd dimension has vanishing Euler characteristic
    (the binomial count would not even have the right parity there).
    """
    if not 0 <= r <= n or n < 1:
        raise ValueError(f"Gr({r},{n}) is not defined")
    if r == 0 or r == n:
        return GWClass.of(field, units=[1])
    n_complex = comb(n, r)
    n_real = comb(n // 2, r // 2) if (r * (n - r)) % 2 == 0 else 0
    return GWClass.of(field, (n_complex - n_real) // 2, [1] * n_real)


def closed_form_table(field: Field, max_n: int) -> dict[tuple[int, int], GWClass]:
    return {
        (r, n): closed_form(field, r, n)
        for n in range(2, max_n + 1)
        for r in range(1, n)
    }


def recurrence_holds(r: int, n: int) -> bool:
    """chi(Gr(r, n)) = chi(Gr(r-1, n-1)) + <-1>^r * chi(Gr(r, n-1))."""
    if not 1 <= r <= n - 1:
        raise ValueError(f"Gr({r},{n}) has no recurrence step")
    sign = GWClass.of(QQ, units=[(-1) ** r])
    lhs = closed_form(QQ, r, n)
    rhs = closed_form(QQ, r - 1, n - 1) + sign * closed_form(QQ, r, n - 1)
    return equals(lhs, rhs)


def _check_shape(r: int, n: int) -> None:
    if not 1 <= r < n:
        raise ValueError(f"Gr({r},{n}) needs 0 < r < n")

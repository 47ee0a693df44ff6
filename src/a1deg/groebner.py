"""Groebner bases and the ideal operations the degree computations need.

Buchberger's algorithm with the coprimality and chain criteria and normal
selection (smallest lcm first).  Output bases are reduced (auto-reduced, monic
leading coefficients, sorted by leading monomial), hence unique for a given
ideal and order, which keeps every downstream computation deterministic.

The primary component of an ideal I at an isolated zero, a maximal ideal m,
is I + m^k for the first k at which the quotient dimension stops growing.
Saturation eliminates Rabinowitsch variables under the ``lex`` order.
"""

from __future__ import annotations

from itertools import count, product
from math import prod
from typing import Iterable, Sequence, Union

from .errors import NotZeroDimensionalError, RingMismatchError, ZeroInputError
from .polynomials import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    Poly,
    PolyRing,
    fresh_name,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quot,
)

GensLike = Union["GroebnerBasis", Sequence[Poly]]


def normal_form(
    f: Poly, basis: Iterable[Poly], order: MonomialOrder = DEGREVLEX
) -> Poly:
    """Remainder of f under division by basis (unique when basis is a GB)."""
    k = f.ring.field
    divisors = [
        (g.leading_monomial(order), g.terms[g.leading_monomial(order)], g.terms)
        for g in basis
        if g
    ]
    work = dict(f.terms)
    rem: dict = {}
    while work:
        lm = max(work, key=order.key)
        lc = work.pop(lm)
        for g_lm, g_lc, g_terms in divisors:
            if mono_divides(g_lm, lm):
                q_mono = mono_quot(lm, g_lm)
                q_c = k.div(lc, g_lc)
                for m2, c2 in g_terms.items():
                    if m2 == g_lm:
                        continue
                    mono = mono_mul(q_mono, m2)
                    c = k.mul(q_c, c2)
                    cur = work.get(mono)
                    s = k.sub(cur, c) if cur is not None else k.neg(c)
                    if k.is_zero(s):
                        if cur is not None:
                            del work[mono]
                    else:
                        work[mono] = s
                break
        else:
            rem[lm] = lc
    return Poly(f.ring, rem)


def s_polynomial(f: Poly, g: Poly, order: MonomialOrder = DEGREVLEX) -> Poly:
    k = f.ring.field
    lf, lg = f.leading_monomial(order), g.leading_monomial(order)
    l = mono_lcm(lf, lg)
    a = Poly(f.ring, {mono_quot(l, lf): k.inv(f.terms[lf])})
    b = Poly(f.ring, {mono_quot(l, lg): k.inv(g.terms[lg])})
    return a * f - b * g


class GroebnerBasis:
    """A reduced Groebner basis together with its ring and order."""

    __slots__ = ("ring", "order", "polys")

    def __init__(self, ring: PolyRing, order: MonomialOrder, polys: Sequence[Poly]):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __getitem__(self, i):
        return self.polys[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and other.ring == self.ring
            and other.order == self.order
            and other.polys == self.polys
        )

    def __repr__(self) -> str:
        return f"GroebnerBasis({list(self.polys)})"

    def normal_form(self, f: Poly) -> Poly:
        return normal_form(f, self.polys, self.order)

    def contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def is_whole_ring(self) -> bool:
        return any(g.is_constant() and g for g in self.polys)

    def leading_monomials(self) -> list[tuple]:
        return [g.leading_monomial(self.order) for g in self.polys]

    def is_zero_dimensional(self) -> bool:
        """Whether the quotient is a finite-dimensional vector space."""
        if self.is_whole_ring():
            return True
        n = self.ring.nvars
        seen = [False] * n
        for lm in self.leading_monomials():
            nz = [i for i, e in enumerate(lm) if e]
            if len(nz) == 1:
                seen[nz[0]] = True
        return all(seen)

    def quotient_basis(self) -> list[tuple]:
        """Standard monomials of R/I, sorted ascending in the basis order."""
        if self.is_whole_ring():
            return []
        n = self.ring.nvars
        lms = self.leading_monomials()
        bounds = [None] * n
        for lm in lms:
            nz = [i for i, e in enumerate(lm) if e]
            if len(nz) == 1:
                i = nz[0]
                if bounds[i] is None or lm[i] < bounds[i]:
                    bounds[i] = lm[i]
        if any(b is None for b in bounds):
            raise NotZeroDimensionalError(
                "the ideal does not cut out finitely many points"
            )
        out = [
            mono
            for mono in product(*(range(b) for b in bounds))
            if not any(mono_divides(lm, mono) for lm in lms)
        ]
        out.sort(key=self.order.key)
        return out

    def quotient_dimension(self) -> int:
        return len(self.quotient_basis())


def _gens(gens: GensLike) -> list[Poly]:
    if isinstance(gens, GroebnerBasis):
        return list(gens.polys)
    return list(gens)


def groebner_basis(gens: GensLike, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span."""
    gens = _gens(gens)
    if not gens:
        raise ZeroInputError("no generators")
    ring = gens[0].ring
    basis: list[Poly] = []
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
        if g and g.monic(order) not in basis:
            basis.append(g.monic(order))
    if not basis:
        return GroebnerBasis(ring, order, ())

    lms = [g.leading_monomial(order) for g in basis]
    pairs: dict[tuple[int, int], tuple] = {}

    def add_pairs(j: int) -> None:
        for i in range(j):
            pairs[(i, j)] = mono_lcm(lms[i], lms[j])

    for j in range(len(basis)):
        add_pairs(j)

    while pairs:
        (i, j) = min(pairs, key=lambda ij: (order.key(pairs[ij]), ij))
        lcm_ij = pairs.pop((i, j))
        # coprime leading monomials: the S-polynomial reduces to zero
        if lcm_ij == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion: some k divides the lcm and both pairs are settled
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or not mono_divides(lms[k], lcm_ij):
                continue
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                skip = True
                break
        if skip:
            continue
        h = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if h:
            basis.append(h.monic(order))
            lms.append(h.leading_monomial(order))
            add_pairs(len(basis) - 1)

    # minimalize: drop elements whose leading monomial another one divides
    keep: list[Poly] = []
    keep_lms: list[tuple] = []
    for idx in sorted(range(len(basis)), key=lambda i: order.key(lms[i])):
        lm = lms[idx]
        if any(mono_divides(other, lm) for other in keep_lms):
            continue
        keep.append(basis[idx])
        keep_lms.append(lm)
    # tail-reduce each element against the others
    reduced = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1 :]
        reduced.append(normal_form(g, others, order).monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return GroebnerBasis(ring, order, reduced)


# ---------------------------------------------------------------------------
# ideal operations


def saturation(gens: GensLike, j_gens: GensLike) -> GroebnerBasis:
    """(I : J^infinity) by one Rabinowitsch elimination.

    With a fresh variable u_j for each generator g_j of J,
    I : J^infinity = (I + (1 - sum_j u_j g_j)) cap k[x].  The u_j come first
    in the ring, so a ``lex`` basis eliminates them.
    """
    gens = _gens(gens)
    if not gens:
        raise ZeroInputError("no generators")
    ring = gens[0].ring
    js = [g for g in _gens(j_gens) if g]
    taken = ring.names + (ring.field.param_name,)
    aux = tuple(fresh_name(taken, f"u{j}") for j in range(len(js)))
    big = PolyRing(ring.field, aux + ring.names)
    pad = (0,) * len(aux)

    def lift(f: Poly) -> Poly:
        return Poly(big, {pad + m: c for m, c in f.terms.items()})

    rabinowitsch = big.one
    for j, g in enumerate(js):
        rabinowitsch = rabinowitsch - big.var(j) * lift(g)
    elim = groebner_basis([lift(f) for f in gens] + [rabinowitsch], LEX)
    down = [
        Poly(ring, {m[len(aux) :]: c for m, c in g.terms.items()})
        for g in elim
        if not any(any(m[: len(aux)]) for m in g.terms)
    ]
    if not down:
        return GroebnerBasis(ring, DEGREVLEX, ())
    return groebner_basis(down, DEGREVLEX)


def primary_component(gens: GensLike, point_gens: GensLike) -> GroebnerBasis:
    """The primary component of I at the maximal ideal m, as I + m^k.

    R/(I + m^k) is the local factor A_m of A = R/I once m^k A_m = 0.  The
    quotient dimensions grow with k until m^k A_m = m^(k+1) A_m, and by
    Nakayama that equality means m^k A_m = 0, so the first k whose dimension
    repeats the previous one is exact.  An isolated zero has length at most
    the Bezout bound, the product of the n largest generator degrees; a chain
    that passes it belongs to a zero that is not isolated, and raises
    NotZeroDimensionalError.
    """
    gens = [g for g in _gens(gens) if g]
    point = groebner_basis(point_gens, DEGREVLEX)
    degrees = sorted(g.total_degree() for g in gens)
    bound = prod(degrees[-point.ring.nvars :])
    # m^k as products of k generators of m with nondecreasing indices, each
    # kept with the index of its last factor; a list, so the order is fixed
    power = [(0, point.ring.one)]
    prev = 0
    for k in count(1):
        power = [(j, p * point[j]) for i, p in power for j in range(i, len(point))]
        component = groebner_basis(gens + [p for _, p in power], DEGREVLEX)
        dim = component.quotient_dimension()
        if dim == prev:
            return component
        if dim > bound:
            raise NotZeroDimensionalError(
                f"the local quotient R/(I + m^{k}) has dimension {dim},"
                f" past the Bezout bound {bound}"
            )
        prev = dim

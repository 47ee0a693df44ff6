"""Groebner bases and the ideal operations the degree computations need.

Buchberger's algorithm with the coprimality and chain criteria and normal
selection (smallest lcm first, ties by pair index), with the pending S-pairs
in a heap keyed once per pair.  Output bases are reduced (auto-reduced, monic
leading coefficients, sorted by leading monomial), hence unique for a given
ideal and order, which keeps every downstream computation deterministic.

Division prepares each divisor once as (leading monomial, leading
coefficient, tail terms, short exponent vector), and a GroebnerBasis does so
when it is built.  It keeps the pending terms of the dividend in a heap, so
every monomial's order key is computed once, when it first appears.

A zero-dimensional GroebnerBasis is also the quotient algebra A = R/I: it
walks its staircase of standard monomials once, on first use, and keeps it.
Normal forms of monomials need no division: each is read off the reduced
basis and the smaller ones by the border step of Faugere, Gianni, Lazard and
Mora (JSC 16, 1993).

Every divisibility test is prefiltered by short exponent vectors (Bachmann
and Schoenemann, ISSAC 1998): two bits per variable, set when its exponent
is at least 1 and at least 2, so that a | b is possible only when
sev(a) & ~sev(b) == 0.  The mask rejects most failing tests with one integer
operation; the exact ``mono_divides`` decides every test it lets through.

The primary component of an ideal I at an isolated zero, a maximal ideal m,
is I + m^k for the first k at which the quotient dimension stops growing.
Saturation eliminates Rabinowitsch variables under the ``lex`` order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from math import prod
from typing import Iterable, Sequence, Union

from .errors import (
    NotZeroDimensionalError,
    PointNotOnZeroLocusError,
    RingMismatchError,
    ZeroInputError,
)
from .polynomials import (
    DEGREVLEX,
    LEX,
    MonomialOrder,
    Poly,
    PolyRing,
    accumulate,
    fresh_name,
    mono_divides,
    mono_lcm,
    mono_mul,
    mono_quot,
)

GensLike = Union["GroebnerBasis", Sequence[Poly]]

# A divisor prepared for division: (leading monomial, leading coefficient,
# the other terms as (monomial, coefficient) pairs, short exponent vector of
# the leading monomial).
Divisor = tuple


def _sev(m: tuple) -> int:
    """Short exponent vector: bits 2i and 2i+1 say m[i] >= 1 and m[i] >= 2.

    a | b implies sev(a) & ~sev(b) == 0, and the converse holds when every
    exponent is at most 2.
    """
    s = 0
    for e in reversed(m):
        s = s << 2 | (3 if e > 1 else e)
    return s


def _prepare(g: Poly, order: MonomialOrder) -> Divisor:
    lm = g.leading_monomial(order)
    tail = [(m, c) for m, c in g.terms.items() if m != lm]
    return lm, g.terms[lm], tail, _sev(lm)


def prepare_divisors(
    basis: Iterable[Poly], order: MonomialOrder = DEGREVLEX
) -> list[Divisor]:
    """The nonzero divisors of a basis, in list order, prepared for reduce_by."""
    return [_prepare(g, order) for g in basis if g]


def _sub_multiple(k, work: dict, q_mono: tuple, q_c, tail) -> list[tuple]:
    """work -= q_c * x^q_mono * tail; returns the monomials new to work."""
    # not polynomials.accumulate: this is the reduction hot path, and the
    # caller needs the new monomials for its heap
    new = []
    for m2, c2 in tail:
        mono = mono_mul(q_mono, m2)
        c = k.mul(q_c, c2)
        cur = work.get(mono)
        if cur is None:
            work[mono] = k.neg(c)
            new.append(mono)
        else:
            s = k.sub(cur, c)
            if k.is_zero(s):
                del work[mono]
            else:
                work[mono] = s
    return new


def reduce_by(
    f: Poly, divisors: Sequence[Divisor], order: MonomialOrder = DEGREVLEX
) -> Poly:
    """Remainder of f under division by prepared divisors.

    The largest pending term is reduced by the first divisor in list order
    whose leading monomial divides it, and kept in the remainder when none
    does.
    """
    k = f.ring.field
    key = order.descending_key
    work = dict(f.terms)
    heap = [(key(m), m) for m in work]
    heapify(heap)
    rem: dict = {}
    while heap:
        lm = heappop(heap)[1]
        # a monomial cancelled earlier may still sit in the heap
        lc = work.pop(lm, None)
        if lc is None:
            continue
        not_lm = ~_sev(lm)
        for g_lm, g_lc, g_tail, g_sev in divisors:
            if not g_sev & not_lm and mono_divides(g_lm, lm):
                q_mono = mono_quot(lm, g_lm)
                for m in _sub_multiple(k, work, q_mono, k.div(lc, g_lc), g_tail):
                    heappush(heap, (key(m), m))
                break
        else:
            rem[lm] = lc
    return Poly(f.ring, rem)


def normal_form(
    f: Poly, basis: Iterable[Poly], order: MonomialOrder = DEGREVLEX
) -> Poly:
    """Remainder of f under division by basis (unique when basis is a GB)."""
    return reduce_by(f, prepare_divisors(basis, order), order)


def _s_poly(ring: PolyRing, a: Divisor, b: Divisor) -> Poly:
    k = ring.field
    (la, ca, ta, _), (lb, cb, tb, _) = a, b
    l = mono_lcm(la, lb)
    work: dict = {}
    _sub_multiple(k, work, mono_quot(l, la), k.neg(k.inv(ca)), ta)
    _sub_multiple(k, work, mono_quot(l, lb), k.inv(cb), tb)
    return Poly(ring, work)


def s_polynomial(f: Poly, g: Poly, order: MonomialOrder = DEGREVLEX) -> Poly:
    return _s_poly(f.ring, _prepare(f, order), _prepare(g, order))


class GroebnerBasis:
    """A reduced Groebner basis with its ring and order, prepared for division."""

    __slots__ = ("ring", "order", "polys", "divisors", "_standard")

    def __init__(self, ring: PolyRing, order: MonomialOrder, polys: Sequence[Poly]):
        self.ring = ring
        self.order = order
        self.polys = tuple(polys)
        self.divisors = prepare_divisors(self.polys, order)
        self._standard = None

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
        return reduce_by(f, self.divisors, self.order)

    def contains(self, f: Poly) -> bool:
        return not self.normal_form(f)

    def is_whole_ring(self) -> bool:
        return any(g.is_constant() and g for g in self.polys)

    def leading_monomials(self) -> list[tuple]:
        return [d[0] for d in self.divisors]

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
        """Standard monomials of R/I, sorted ascending in the basis order, as
        a new list; the staircase is walked once per basis and kept.

        They form an order ideal, so a walk from 1 that multiplies each
        standard monomial by its last variable and every later one reaches
        each of them exactly once.
        """
        if self._standard is None:
            if not self.is_zero_dimensional():
                raise NotZeroDimensionalError(
                    "the ideal does not cut out finitely many points"
                )
            n = self.ring.nvars
            out = []
            todo = [((0,) * n, 0)]
            for mono, last in todo:
                not_mono = ~_sev(mono)
                if not any(
                    not s & not_mono and mono_divides(lm, mono)
                    for lm, _, _, s in self.divisors
                ):
                    out.append(mono)
                    todo += [
                        (mono[:v] + (mono[v] + 1,) + mono[v + 1 :], v)
                        for v in range(last, n)
                    ]
            out.sort(key=self.order.key)
            self._standard = tuple(out)
        return list(self._standard)

    def monomial_normal_forms(self):
        """A memoised m -> NF(m), as (index, coefficient) pairs on the
        standard monomials of R/I.  lm(g) reduces to lm(g) - g/lc(g); any
        other non-standard m is x times a non-standard m/x for a variable x,
        and NF(m) sums NF(x m_a) over the terms of NF(m/x)."""
        k = self.ring.field
        basis = self.quotient_basis()
        index = {m: a for a, m in enumerate(basis)}
        memo = {m: [(a, k.from_int(1))] for m, a in index.items()}
        for lm, lc, tail, _ in self.divisors:
            memo[lm] = [(index[m], k.neg(k.div(c, lc))) for m, c in tail]
        n = self.ring.nvars
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]

        def nf(m: tuple) -> list:
            if m not in memo:
                divides = [x for x in units if mono_divides(x, m)]
                x = next(x for x in divides if mono_quot(m, x) not in index)
                acc: dict = {}
                for a, c in nf(mono_quot(m, x)):
                    for b, w in nf(mono_mul(x, basis[a])):
                        accumulate(k, acc, b, k.mul(c, w))
                memo[m] = list(acc.items())
            return memo[m]

        return nf

    def quotient_dimension(self) -> int:
        return len(self.quotient_basis())


def groebner_basis(gens: GensLike, order: MonomialOrder = DEGREVLEX) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the generators span."""
    gens = list(gens)
    if not gens:
        raise ZeroInputError("no generators")
    ring = gens[0].ring
    basis: list[Poly] = []
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators live in different rings")
        if g:
            g = g.monic(order)
            if g not in basis:
                basis.append(g)
    if not basis:
        return GroebnerBasis(ring, order, ())

    divisors = prepare_divisors(basis, order)
    lms = [d[0] for d in divisors]
    sevs = [d[3] for d in divisors]
    # pending pairs: the dict answers the chain criterion's membership tests,
    # the heap yields the smallest (lcm, i, j); both hold the same pairs
    pairs: dict[tuple[int, int], tuple] = {}
    heap: list[tuple] = []

    def add_pairs(j: int) -> None:
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            pairs[(i, j)] = lcm
            heappush(heap, (order.key(lcm), i, j))

    for j in range(len(basis)):
        add_pairs(j)

    while heap:
        _, i, j = heappop(heap)
        lcm_ij = pairs.pop((i, j))
        # coprime leading monomials: the S-polynomial reduces to zero
        if lcm_ij == mono_mul(lms[i], lms[j]):
            continue
        # chain criterion: some k divides the lcm and both pairs are settled;
        # the lcm's short exponent vector is the union of i's and j's
        not_lcm = ~(sevs[i] | sevs[j])
        skip = False
        for k in range(len(basis)):
            if k in (i, j) or sevs[k] & not_lcm or not mono_divides(lms[k], lcm_ij):
                continue
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if a not in pairs and b not in pairs:
                skip = True
                break
        if skip:
            continue
        h = reduce_by(_s_poly(ring, divisors[i], divisors[j]), divisors, order)
        if h:
            h = h.monic(order)
            basis.append(h)
            divisors.append(_prepare(h, order))
            lms.append(divisors[-1][0])
            sevs.append(divisors[-1][3])
            add_pairs(len(basis) - 1)

    # minimalize: drop elements whose leading monomial another one divides
    keep: list[int] = []
    for idx in sorted(range(len(basis)), key=lambda i: order.key(lms[i])):
        not_idx = ~sevs[idx]
        if not any(
            not sevs[other] & not_idx and mono_divides(lms[other], lms[idx])
            for other in keep
        ):
            keep.append(idx)
    # tail-reduce each element against the others; keep is sorted by leading
    # monomial, and tail reduction leaves leading monomials alone
    reduced = []
    for pos, idx in enumerate(keep):
        others = [divisors[o] for o in keep[:pos] + keep[pos + 1 :]]
        reduced.append(reduce_by(basis[idx], others, order).monic(order))
    return GroebnerBasis(ring, order, reduced)


# ---------------------------------------------------------------------------
# ideal operations


def saturation(gens: GensLike, j_gens: GensLike) -> GroebnerBasis:
    """(I : J^infinity) by one Rabinowitsch elimination.

    With a fresh variable u_j for each generator g_j of J,
    I : J^infinity = (I + (1 - sum_j u_j g_j)) cap k[x].  The u_j come first
    in the ring, so a ``lex`` basis eliminates them.
    """
    gens = list(gens)
    if not gens:
        raise ZeroInputError("no generators")
    ring = gens[0].ring
    js = [g for g in j_gens if g]
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

    Every generator of I must lie in the ring of the point and vanish there,
    so I + m = m and the chain starts at k = 1 with the basis of m itself;
    otherwise RingMismatchError or PointNotOnZeroLocusError is raised.
    Since m I lies in I, I + m^(k+1) = I + m (I + m^k), so step k+1 is
    generated by I and the products q g of each q in the basis of m with each
    g in the reduced basis of step k.
    R/(I + m^k) is the local factor A_m of A = R/I once m^k A_m = 0.  The
    quotient dimensions grow with k until m^k A_m = m^(k+1) A_m, and by
    Nakayama that equality means m^k A_m = 0, so the first k whose dimension
    repeats the previous one is exact.  An isolated zero has length at most
    the Bezout bound, the product of the n largest generator degrees; a chain
    that passes it belongs to a zero that is not isolated, and raises
    NotZeroDimensionalError.
    """
    gens = [g for g in gens if g]
    point = groebner_basis(point_gens, DEGREVLEX)
    for f in gens:
        if f.ring != point.ring:
            raise RingMismatchError("point generators live in a different ring")
        if not point.contains(f):
            raise PointNotOnZeroLocusError(f"{f} does not vanish at the given point")
    degrees = sorted(g.total_degree() for g in gens)
    bound = prod(degrees[-point.ring.nvars :])
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
        component = groebner_basis(
            gens + [q * g for q in point for g in component], DEGREVLEX
        )

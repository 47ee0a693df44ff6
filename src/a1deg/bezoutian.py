"""Multivariate difference quotients and the bilinear form they induce.

For a square system f = (f_1, ..., f_n) in k[x_1, ..., x_n] we work in the
doubled ring k[X_1, ..., X_n, Y_1, ..., Y_n] and form the matrix of stepwise
difference quotients

    delta[i][j] = (f_i(Y_1..Y_{j-1}, X_j..X_n) - f_i(Y_1..Y_j, X_{j+1}..X_n))
                  / (X_j - Y_j),

whose determinant, reduced modulo the ideal generated by both copies of the
system, has coefficients that are exactly the Gram matrix of a symmetric
bilinear form on the quotient algebra in its standard-monomial basis.  That
form represents the degree of f, which is why everything downstream funnels
through this module.

Determinants are taken two ways: a fraction-free elimination for plain
polynomial matrices, and a column-subset Laplace expansion that reduces every
partial minor modulo the ideal as it goes, which keeps the intermediate
polynomials no bigger than the quotient algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import NonSquareSystemError, RingMismatchError, UnexpectedMonomialError
from .fields import Scalar
from .groebner import (
    DEGREVLEX,
    GroebnerBasis,
    groebner_basis,
    prepare_divisors,
    reduce_by,
)
from .polynomials import MonomialOrder, Poly, PolyRing, fresh_name


@dataclass(frozen=True)
class Doubling:
    """A source ring k[x] embedded twice into k[X, Y]."""

    source: PolyRing
    ring: PolyRing

    @property
    def n(self) -> int:
        return self.source.nvars

    def to_x(self, f: Poly) -> Poly:
        """Rename x_i -> X_i (exponents move to the first block)."""
        self._check(f)
        n = self.n
        pad = (0,) * n
        return Poly(self.ring, {mono + pad: c for mono, c in f.terms.items()})

    def to_y(self, f: Poly) -> Poly:
        """Rename x_i -> Y_i (exponents move to the second block)."""
        self._check(f)
        n = self.n
        pad = (0,) * n
        return Poly(self.ring, {pad + mono: c for mono, c in f.terms.items()})

    def split(self, mono: tuple) -> tuple[tuple, tuple]:
        """X-part and Y-part of a doubled-ring monomial, as source monomials."""
        n = self.n
        return mono[:n], mono[n:]

    def collapse(self, f: Poly) -> Poly:
        """Set X_i = Y_i = x_i, landing back in the source ring."""
        if f.ring != self.ring:
            raise RingMismatchError("polynomial does not live in the doubled ring")
        n = self.n
        k = self.source.field
        out: dict[tuple, object] = {}
        for mono, c in f.terms.items():
            key = tuple(mono[i] + mono[n + i] for i in range(n))
            acc = out.get(key)
            s = c if acc is None else k.add(acc, c)
            if k.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
        return Poly(self.source, out)

    def _check(self, f: Poly) -> None:
        if f.ring != self.source:
            raise RingMismatchError("polynomial does not live in the source ring")


def double(source: PolyRing) -> Doubling:
    names: list[str] = []
    for base in source.names:
        names.append(fresh_name(list(source.names) + names, base + "_X"))
    for base in source.names:
        names.append(fresh_name(list(source.names) + names, base + "_Y"))
    return Doubling(source, PolyRing(source.field, names))


def _check_system(polys: Sequence[Poly]) -> PolyRing:
    if not polys:
        raise NonSquareSystemError("empty system")
    ring = polys[0].ring
    for f in polys:
        if f.ring != ring:
            raise RingMismatchError("system mixes polynomial rings")
    if len(polys) != ring.nvars:
        raise NonSquareSystemError(
            f"{len(polys)} polynomials in {ring.nvars} variables"
        )
    return ring


def delta_matrix(polys: Sequence[Poly], dbl: Optional[Doubling] = None) -> list[list[Poly]]:
    """The matrix of stepwise difference quotients of a square system."""
    ring = _check_system(polys)
    if dbl is None:
        dbl = double(ring)
    n = ring.nvars
    big = dbl.ring

    def shift(f: Poly, m: int) -> Poly:
        # first m variables go to the Y block, the rest to the X block
        terms = {}
        for mono, c in f.terms.items():
            x_part = tuple(0 if l < m else mono[l] for l in range(n))
            y_part = tuple(mono[l] if l < m else 0 for l in range(n))
            terms[x_part + y_part] = c
        return Poly(big, terms)

    steps = [[shift(f, m) for f in polys] for m in range(n + 1)]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            denom = big.var(j) - big.var(n + j)
            row.append((steps[j][i] - steps[j + 1][i]).exact_div(denom))
        out.append(row)
    return out


def _laplace(mat: Sequence[Sequence[Poly]], divisors, order) -> Poly:
    """Determinant by Laplace expansion over column subsets; when prepared
    divisors are given, every partial minor is replaced by its normal form."""
    n = len(mat)
    ring = mat[0][0].ring
    prev = {0: ring.one}
    for r in range(n):
        cur: dict[int, Poly] = {}
        row = mat[r]
        for mask, minor in prev.items():
            if not minor:
                continue
            for c in range(n):
                bit = 1 << c
                if mask & bit or not row[c]:
                    continue
                term = row[c] * minor
                if (r + (mask & (bit - 1)).bit_count()) % 2:
                    term = -term
                key = mask | bit
                acc = cur.get(key)
                cur[key] = term if acc is None else acc + term
        if divisors is not None:
            cur = {k: reduce_by(v, divisors, order) for k, v in cur.items()}
        prev = cur
    return prev.get((1 << n) - 1, ring.zero)


def _bareiss(mat: Sequence[Sequence[Poly]]) -> Poly:
    n = len(mat)
    ring = mat[0][0].ring
    work = [list(row) for row in mat]
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return ring.zero
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = work[k][k] * work[i][j] - work[i][k] * work[k][j]
                work[i][j] = num.exact_div(prev)
            work[i][k] = ring.zero
        prev = work[k][k]
    result = work[n - 1][n - 1]
    return -result if sign < 0 else result


def det(mat: Sequence[Sequence[Poly]]) -> Poly:
    """Exact determinant of a square matrix of polynomials."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise NonSquareSystemError("matrix is not square")
    if n == 0:
        raise NonSquareSystemError("empty matrix")
    if n <= 4:
        return _laplace(mat, None, None)
    return _bareiss(mat)


def det_mod(
    mat: Sequence[Sequence[Poly]],
    reducers: Sequence[Poly],
    order: MonomialOrder = DEGREVLEX,
) -> Poly:
    """Normal form of det(mat) modulo the ideal the reducers generate.

    The reducers must be a Groebner basis for the stated order; reduction is
    interleaved with the expansion so intermediates stay small.
    """
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise NonSquareSystemError("matrix is not square")
    if n == 0:
        raise NonSquareSystemError("empty matrix")
    return _laplace(mat, prepare_divisors(reducers, order), order)


def doubled_reducers(gb: GroebnerBasis, dbl: Doubling) -> list[Poly]:
    """Both renamed copies of a Groebner basis.

    Under the degree-reverse-lexicographic order on (X, Y) the union is again
    a Groebner basis of the doubled ideal: leading terms land in separate
    blocks, the order restricts to the block order on each copy, and the
    cross pairs have coprime leading terms.
    """
    return [dbl.to_x(g) for g in gb] + [dbl.to_y(g) for g in gb]


def bezoutian(
    polys: Sequence[Poly], gb: Optional[GroebnerBasis] = None
) -> tuple[Poly, Doubling]:
    """The determinant of the difference-quotient matrix, reduced modulo both
    copies of the given ideal (the ideal of the system itself by default)."""
    ring = _check_system(polys)
    if gb is None:
        gb = groebner_basis(polys, DEGREVLEX)
    dbl = double(ring)
    delta = delta_matrix(polys, dbl)
    bez = det_mod(delta, doubled_reducers(gb, dbl), DEGREVLEX)
    return bez, dbl


def gram_matrix(
    bez: Poly, dbl: Doubling, basis: Sequence[tuple]
) -> list[list[Scalar]]:
    """Coefficients of the reduced Bezoutian on basis(X) x basis(Y).

    basis must be the standard-monomial basis of the quotient the Bezoutian
    was reduced against; any stray monomial means the inputs disagree.
    """
    field = dbl.source.field
    index = {tuple(m): i for i, m in enumerate(basis)}
    size = len(basis)
    gram = [[field.zero for _ in range(size)] for _ in range(size)]
    for mono, c in bez.terms.items():
        mx, my = dbl.split(mono)
        i = index.get(mx)
        j = index.get(my)
        if i is None or j is None:
            stray = Poly(dbl.ring, {mono: dbl.ring.field.from_int(1)})
            raise UnexpectedMonomialError(
                f"{stray} is not supported on the quotient basis"
            )
        gram[i][j] = Scalar(field, c)
    return gram


def jacobian_matrix(polys: Sequence[Poly]) -> list[list[Poly]]:
    ring = _check_system(polys)
    return [[f.diff(j) for j in range(ring.nvars)] for f in polys]


def jacobian_image(polys: Sequence[Poly], gb: Optional[GroebnerBasis] = None) -> Poly:
    """Normal form of the Jacobian determinant in the quotient algebra."""
    if gb is None:
        gb = groebner_basis(polys, DEGREVLEX)
    return det_mod(jacobian_matrix(polys), list(gb), gb.order)

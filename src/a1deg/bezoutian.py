"""The Bezoutian of a square system and the bilinear form it induces.

For a square system f in k[x_1, ..., x_n] with quotient algebra A (or a
local factor of it), the matrix of stepwise difference quotients

    delta[i][j] = (f_i(Y_1..Y_{j-1}, X_j..X_n) - f_i(Y_1..Y_j, X_{j+1}..X_n))
                  / (X_j - Y_j)

has a determinant in A (x) A, X for the left factor and Y for the right,
whose coordinates on the pairs m_a (x) m_b of standard monomials form the
Gram matrix of a bilinear form that represents the degree of f (0 x 0 when
A = 0).  A is its reduced Groebner basis, which knows its standard monomials.
Elements of A (x) A are sparse maps (a, b) -> coefficient; a term
X^alpha Y^beta acts on them through m_a -> NF(x^alpha m_a) on the left and
m_b -> NF(x^beta m_b) on the right, read off the reduced basis without
division.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NonSquareSystemError, RingMismatchError
from .fields import Field, Scalar
from .groebner import GroebnerBasis
from .polynomials import Poly, PolyRing, accumulate, mono_mul


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


def delta_matrix(polys: Sequence[Poly]) -> list[list[dict]]:
    """The matrix of stepwise difference quotients of a square system.

    Entry (i, j) maps (alpha, beta) to the raw coefficient of X^alpha Y^beta.
    Since (X_j^e - Y_j^e) / (X_j - Y_j) is the sum of X_j^t Y_j^(e-1-t) over
    t < e, a monomial x^m of f_i contributes Y^(m_<j) X_j^t Y_j^(m_j-1-t)
    X^(m_>j) to column j for each t < m_j.  The pair (alpha, beta) gives back
    m and t, so no two contributions share a key.
    """
    ring = _check_system(polys)
    n = ring.nvars
    zeros = (0,) * n
    out = []
    for f in polys:
        row: list[dict] = [{} for _ in range(n)]
        for m, c in f.terms.items():
            for j in range(n):
                for t in range(m[j]):
                    alpha = zeros[:j] + (t,) + m[j + 1 :]
                    beta = m[:j] + (m[j] - 1 - t,) + zeros[j + 1 :]
                    row[j][alpha, beta] = c
        out.append(row)
    return out


def det_mod(delta: Sequence[Sequence[dict]], gb: GroebnerBasis) -> dict:
    """det(delta) in A (x) A for A = R/gb, as a map (a, b) -> coefficient on
    the standard monomials of gb.  Each product x^alpha m_a is normalized
    once, by gb.monomial_normal_forms; the zero algebra gives {}.
    """
    n = len(delta)
    if n == 0 or any(len(row) != n for row in delta):
        raise NonSquareSystemError("matrix is not square")
    k = gb.ring.field
    basis = gb.quotient_basis()
    nf = gb.monomial_normal_forms()

    def right(betas: list) -> list:
        # a -> NF(sum_beta c_beta x^beta m_a)
        out = []
        for m in basis:
            acc: dict = {}
            for beta, c in betas:
                for a2, w in nf(mono_mul(beta, m)):
                    accumulate(k, acc, a2, k.mul(c, w))
            out.append(list(acc.items()))
        return out

    def grouped(entry: dict) -> list:
        # sum_alpha X^alpha (sum_beta c_beta Y^beta): one left map and one
        # combined right map per alpha
        by_alpha: dict[tuple, list] = {}
        for (alpha, beta), c in entry.items():
            by_alpha.setdefault(alpha, []).append((beta, c))
        return [
            ([nf(mono_mul(alpha, m)) for m in basis], right(betas))
            for alpha, betas in by_alpha.items()
        ]

    entries = [[grouped(entry) for entry in row] for row in delta]
    # 1 is the least monomial in every order, so 1 (x) 1 is (0, 0)
    prev = {0: {(0, 0): k.from_int(1)} if basis else {}}
    for r in range(n):
        cur: dict[int, dict] = {}
        for mask, minor in prev.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit or not entries[r][c]:
                    continue
                negate = (r + (mask & (bit - 1)).bit_count()) % 2
                acc = cur.setdefault(mask | bit, {})
                for left_map, right_map in entries[r][c]:
                    left: dict = {}
                    for (a, b), v in minor.items():
                        for a2, w in left_map[a]:
                            accumulate(k, left, (a2, b), k.mul(v, w))
                    for (a, b), v in left.items():
                        if negate:
                            v = k.neg(v)
                        for b2, w in right_map[b]:
                            accumulate(k, acc, (a, b2), k.mul(v, w))
        prev = {mask: minor for mask, minor in cur.items() if minor}
    return prev.get((1 << n) - 1, {})


def gram_matrix(element: dict, field: Field, size: int) -> list[list[Scalar]]:
    """An element of A (x) A laid out as a size x size matrix of scalars."""
    gram = [[field.zero for _ in range(size)] for _ in range(size)]
    for (a, b), c in element.items():
        gram[a][b] = Scalar(field, c)
    return gram


def bezoutian(polys: Sequence[Poly], gb: GroebnerBasis) -> list[list[Scalar]]:
    """Gram matrix of the Bezoutian form of the system on A = R/gb; entry
    (a, b) pairs the standard monomials m_a and m_b of gb."""
    ring = _check_system(polys)
    if gb.ring != ring:
        raise RingMismatchError("the system and the basis live in different rings")
    element = det_mod(delta_matrix(polys), gb)
    return gram_matrix(element, ring.field, gb.quotient_dimension())

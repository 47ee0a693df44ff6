"""Grothendieck-Witt classes of nondegenerate symmetric bilinear forms.

A class is stored as ``h`` copies of the hyperbolic plane H plus a tuple of
rank-one forms <u_1>, ..., <u_r> whose entries are canonical square-class
representatives.  Over a prime field rank and discriminant fix the class, and
simplification returns the one shape they determine, so there ``==`` agrees
with ``equals``.  Over other fields simplification folds every pair <u>, <v>
with -uv a square into a copy of H, which is deterministic but not
canonical: over the rationals 6H + <2,3,6> and 6H + <1,1,1> are the same
class.

Equality of the underlying forms is decided by field-specific invariants:
rank and discriminant over a finite field; rank, signature, discriminant and
Hasse invariants (via Hilbert symbols) over the rationals.  Over rational
function fields only the stored shape is compared, which is sound but misses
every equality that the greedy fold does not expose.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DegenerateFormError,
    FieldMismatchError,
    UnsupportedFieldError,
    ZeroInputError,
)
from .fields import (
    Field,
    FunctionField,
    PrimeField,
    Rationals,
    Scalar,
    factorize,
    is_square,
    signature_sign,
    square_class,
)


@dataclass(frozen=True)
class GWClass:
    field: Field
    hyperbolic: int
    units: tuple[Scalar, ...]

    @classmethod
    def of(
        cls, field: Field, hyperbolic: int = 0, units: Iterable[object] = ()
    ) -> "GWClass":
        """Build a class from any diagonal entries, normalizing as needed."""
        entries = [field.scalar(u) for u in units]
        base = simplify(field, entries)
        return cls(field, base.hyperbolic + hyperbolic, base.units)

    @property
    def rank(self) -> int:
        return 2 * self.hyperbolic + len(self.units)

    def disc(self) -> Scalar:
        """Square class of the discriminant (-1)^h * u_1 * ... * u_r."""
        if isinstance(self.field, Rationals):
            # the canonical units are squarefree integers with a sign, and for
            # squarefree a, b with g = gcd(a, b) the squarefree part of a*b is
            # (a/g)*(b/g), so the product is never factored
            acc = -1 if self.hyperbolic % 2 else 1
            for u in self.units:
                a = u.value.numerator
                g = gcd(acc, a)
                acc = (acc // g) * (a // g)
            return self.field.scalar(acc)
        acc = self.field.one
        if self.hyperbolic % 2:
            acc = -acc
        for u in self.units:
            acc = acc * u
        return square_class(acc)

    def signature(self) -> int | None:
        """Signature, when the field admits a real embedding we track."""
        try:
            signature_sign(self.field.one)
        except UnsupportedFieldError:
            return None
        return sum(signature_sign(u) for u in self.units)

    def diagonal(self) -> list[Scalar]:
        """A diagonal Gram representative: h blocks <1,-1> then the units."""
        out: list[Scalar] = []
        for _ in range(self.hyperbolic):
            out.append(self.field.one)
            out.append(-self.field.one)
        out.extend(self.units)
        return out

    def __add__(self, other: "GWClass") -> "GWClass":
        if not isinstance(other, GWClass):
            return NotImplemented
        _same_field(self, other)
        base = simplify(self.field, list(self.units) + list(other.units))
        return GWClass(
            self.field,
            self.hyperbolic + other.hyperbolic + base.hyperbolic,
            base.units,
        )

    def __mul__(self, other: "GWClass | int") -> "GWClass":
        if isinstance(other, int):
            # n * c for n >= 0 is the sum of n copies of c
            if other < 0:
                return NotImplemented
            out = GWClass(self.field, 0, ())
            for _ in range(other):
                out = out + self
            return out
        if not isinstance(other, GWClass):
            return NotImplemented
        _same_field(self, other)
        h = (
            2 * self.hyperbolic * other.hyperbolic
            + self.hyperbolic * len(other.units)
            + other.hyperbolic * len(self.units)
        )
        prods = [u * v for u in self.units for v in other.units]
        base = simplify(self.field, prods)
        return GWClass(self.field, h + base.hyperbolic, base.units)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return render_text(self.hyperbolic, [str(u) for u in self.units])

    def to_json(self) -> dict:
        return {
            "hyperbolic": self.hyperbolic,
            "units": [str(u) for u in self.units],
            "rank": self.rank,
            "disc": str(self.disc()),
            "signature": self.signature(),
        }


def render_text(hyperbolic: int, units: Sequence[str]) -> str:
    parts = []
    if hyperbolic == 1:
        parts.append("H")
    elif hyperbolic:
        parts.append(f"{hyperbolic}H")
    if units:
        parts.append("<" + ",".join(units) + ">")
    return " + ".join(parts) if parts else "0"


def _same_field(a: GWClass, b: GWClass) -> None:
    if a.field != b.field:
        raise FieldMismatchError(f"classes over {a.field} and {b.field}")


def simplify(field: Field, entries: Sequence[Scalar]) -> GWClass:
    """Fold hyperbolic pairs out of a diagonal form <u_1, ..., u_r>.

    Over F_p the result is canonical.  With d = u_1 * ... * u_r it is
    ((r-1)/2)H + <(-1)^((r-1)/2) d> for odd r, and for even r it is (r/2)H
    when (-1)^(r/2) d is a square, else (r/2 - 1)H + <1, (-1)^(r/2 - 1) d>,
    each unit written as 1 or the least nonresidue.  Over other fields
    <u> + <v> is folded into H whenever -uv is a square, greedily, and each
    survivor is replaced by its square-class representative; that shape is
    not canonical (over Q, <2,3,6> and <1,1,1> are the same class).
    """
    pool: list[Scalar] = []
    for e in entries:
        s = field.scalar(e)
        if not s:
            raise ZeroInputError("zero diagonal entry in a bilinear form")
        pool.append(s)
    if isinstance(field, PrimeField):
        return _prime_field_class(field, pool)
    pool.sort(key=lambda s: field.sort_key(s.value))
    used = [False] * len(pool)
    h = 0
    for i in range(len(pool)):
        if used[i]:
            continue
        for j in range(i + 1, len(pool)):
            if used[j]:
                continue
            ok, _ = is_square(-(pool[i] * pool[j]))
            if ok:
                used[i] = used[j] = True
                h += 1
                break
    survivors = [square_class(pool[i]) for i in range(len(pool)) if not used[i]]
    survivors.sort(key=lambda s: field.sort_key(s.value))
    return GWClass(field, h, tuple(survivors))


def _prime_field_class(field: PrimeField, pool: Sequence[Scalar]) -> GWClass:
    h, odd = divmod(len(pool), 2)
    d = field.one if h % 2 == 0 else -field.one
    for u in pool:
        d = d * u
    # d is now (-1)^h times the discriminant
    if odd:
        return GWClass(field, h, (square_class(d),))
    if field.legendre(d.value) == 1:
        return GWClass(field, h, ())
    return GWClass(field, h - 1, (field.one, square_class(-d)))


def diagonalize(gram: Sequence[Sequence[Scalar]], field: Field) -> list[Scalar]:
    """Diagonal entries of a congruent diagonal form; the form must be
    nondegenerate.

    Works on raw field values.  Each pivot replaces the block below and to
    the right of it by its Schur complement, which stays symmetric, so only
    the pivot row is read.  A zero pivot is first replaced by a later
    nonzero diagonal entry, or else made 2*m[p][l] by adding row and column
    l to row and column p.
    """
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise DegenerateFormError("Gram matrix is not square")
    m = [[field.coerce(x) for x in row] for row in gram]
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i + 1, n)):
        raise DegenerateFormError("Gram matrix is not symmetric")
    add, mul, is_zero = field.add, field.mul, field.is_zero
    diag = []
    for p in range(n):
        if is_zero(m[p][p]):
            l = next((l for l in range(p + 1, n) if not is_zero(m[l][l])), None)
            if l is not None:
                m[p], m[l] = m[l], m[p]
                for row in m[p:]:
                    row[p], row[l] = row[l], row[p]
            else:
                l = next((l for l in range(p + 1, n) if not is_zero(m[p][l])), None)
                if l is None:
                    raise DegenerateFormError("bilinear form is degenerate")
                for row in m[p:]:
                    row[p] = add(row[p], row[l])
                m[p][p:] = [add(a, b) for a, b in zip(m[p][p:], m[l][p:])]
        row = m[p]
        inv = field.inv(row[p])
        nonzero = [j for j in range(p + 1, n) if not is_zero(row[j])]
        for k, i in enumerate(nonzero):
            c = field.neg(mul(row[i], inv))
            mi = m[i]
            for j in nonzero[k:]:
                mi[j] = m[j][i] = add(mi[j], mul(c, row[j]))
        diag.append(Scalar(field, row[p]))
    return diag


def class_of_gram(field: Field, gram: Sequence[Sequence[Scalar]]) -> GWClass:
    if not gram:
        return GWClass(field, 0, ())
    return simplify(field, diagonalize(gram, field))


def legendre(a: int, p: int) -> int:
    if a % p == 0:
        raise ZeroInputError(f"{a} is divisible by {p}")
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a: int, b: int, p: int) -> int:
    """Hilbert symbol (a, b)_p over the p-adics, for nonzero integers."""
    if a == 0 or b == 0:
        raise ZeroInputError("Hilbert symbol needs nonzero arguments")
    if p == 2:
        alpha, u = _split(a, 2)
        beta, v = _split(b, 2)
        eps_u, eps_v = (u - 1) // 2, (v - 1) // 2
        omega_u, omega_v = (u * u - 1) // 8, (v * v - 1) // 8
        e = eps_u * eps_v + alpha * omega_v + beta * omega_u
        return -1 if e % 2 else 1
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    sym = 1
    if alpha % 2 and beta % 2 and (p - 1) // 2 % 2:
        sym = -sym
    if beta % 2:
        sym *= legendre(u, p)
    if alpha % 2:
        sym *= legendre(v, p)
    return sym


def _split(a: int, p: int) -> tuple[int, int]:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v, a


def hasse_invariant(diag: Sequence[int], p: int) -> int:
    """Product of Hilbert symbols (d_i, d_j)_p over i < j."""
    out = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            out *= hilbert_symbol(diag[i], diag[j], p)
    return out


def _rational_diagonal_ints(c: GWClass) -> list[int]:
    out = []
    for s in c.diagonal():
        f = s.value
        assert isinstance(f, Fraction)
        out.append(f.numerator * f.denominator)
    return out


def _relevant_primes(classes: Iterable[GWClass]) -> list[int]:
    primes = {2}
    for c in classes:
        for s in c.diagonal():
            primes.update(factorize(abs(s.value.numerator)))
            primes.update(factorize(s.value.denominator))
    return sorted(primes)


def equals(a: GWClass, b: GWClass) -> bool:
    """Whether two classes are equal as forms, not just structurally."""
    _same_field(a, b)
    # identical reduced forms are isometric; this also spares their factoring
    if a == b:
        return True
    if a.rank != b.rank:
        return False
    field = a.field
    if isinstance(field, PrimeField):
        return a.disc() == b.disc()
    if isinstance(field, Rationals):
        if a.signature() != b.signature() or a.disc() != b.disc():
            return False
        da = _rational_diagonal_ints(a)
        db = _rational_diagonal_ints(b)
        for p in _relevant_primes((a, b)):
            if hasse_invariant(da, p) != hasse_invariant(db, p):
                return False
        return True
    if isinstance(field, FunctionField):
        # a == b failed, and over k(t) only identical shapes are known equal
        return False
    raise UnsupportedFieldError(f"no equality test over {field}")

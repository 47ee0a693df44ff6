"""Independent checks of the classes the benchmark's operations return.

None of these factors an integer or calls back into a1deg: a class is seen
as its hyperbolic count and raw unit values, and compared with what the
construction of the workload fixes in advance.  Over F_p rank and
discriminant decide a class; over Q rank, signature and discriminant are
checked, and the Hasse invariants are not (they would need factoring).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, prod


@dataclass(frozen=True)
class Form:
    """A class as h*H + <u_1, ..., u_k>, with raw unit values."""

    p: int  # the characteristic; 0 over Q
    hyperbolic: int
    units: tuple

    @property
    def rank(self) -> int:
        return 2 * self.hyperbolic + len(self.units)

    def disc(self):
        return (-1) ** self.hyperbolic * prod(self.units)

    def signature(self) -> int:
        return sum(1 if u > 0 else -1 for u in self.units)


def view(cls) -> Form:
    return Form(cls.field.characteristic, cls.hyperbolic, tuple(u.value for u in cls.units))


def is_square(p: int, x) -> bool:
    """Whether the nonzero x is a square in Q (p = 0) or in F_p."""
    if p:
        x %= p
        return x != 0 and pow(x, (p - 1) // 2, p) == 1
    x = Fraction(x)
    m = x.numerator * x.denominator
    return m > 0 and isqrt(m) ** 2 == m


def real_points(r: int, n: int) -> int:
    """The signature of chi(Gr(r, n)) over Q: the count of real points of a
    generic section, zero when the dimension r(n - r) is odd."""
    return comb(n // 2, r // 2) if r * (n - r) % 2 == 0 else 0


def check_grassmannian(form: Form, raw_diag: list, r: int, n: int) -> list[str]:
    """Problems with an Euler characteristic of Gr(r, n) whose Gram matrix
    diagonalized to raw_diag; an empty list when there are none."""
    p = form.p
    rank = comb(n, r)
    sig = real_points(r, n)
    closed_disc = (-1) ** ((rank - sig) // 2)  # of hH + sig*<1>
    problems = []
    if form.rank != rank:
        problems.append(f"rank {form.rank}, expected C({n},{r}) = {rank}")
    if len(raw_diag) != rank:
        problems.append(f"{len(raw_diag)} diagonal entries, expected {rank}")
    raw_disc = prod(raw_diag)
    if not is_square(p, raw_disc * closed_disc):
        problems.append("diagonal discriminant differs from the closed form's")
    if not is_square(p, raw_disc * form.disc()):
        problems.append("class discriminant differs from its diagonal's")
    if p == 0:
        raw_sig = sum(1 if d > 0 else -1 for d in raw_diag)
        if raw_sig != sig or form.signature() != sig:
            problems.append(
                f"signature {form.signature()} (diagonal {raw_sig}), expected {sig}"
            )
    return problems


def check_local_global(system, zeros, glob: Form, locs: list[Form], ok: bool) -> list[str]:
    """Problems with (global degree, local degrees, sum flag) for a system
    whose zeros and multiplicities are known from its construction."""
    p = glob.p
    problems = []
    if not ok:
        problems.append("check_local_global reports that the local classes do not sum to the global one")
    if len(locs) != len(zeros):
        return problems + [f"{len(locs)} local classes for {len(zeros)} points"]
    total = sum(z.multiplicity for z in zeros)
    if glob.rank != total:
        problems.append(f"global rank {glob.rank}, expected multiplicity {total}")
    for k, (z, loc) in enumerate(zip(zeros, locs)):
        if loc.rank != z.multiplicity:
            problems.append(f"point {k}: rank {loc.rank}, expected {z.multiplicity}")
        elif z.simple_coords is not None:
            jac = jacobian_det(system, z.simple_coords, p)
            if not jac or not is_square(p, loc.disc() * jac):
                problems.append(f"point {k}: local class {loc.units} is not <det J> = <{jac}>")
    if not is_square(p, prod(l.disc() for l in locs) * glob.disc()):
        problems.append("the local discriminants do not multiply to the global one")
    if p == 0 and sum(l.signature() for l in locs) != glob.signature():
        problems.append("the local signatures do not add up to the global one")
    return problems


def jacobian_det(system, coords, p: int):
    """det of the Jacobian of the system at a rational point, from the terms."""
    n = len(system)
    one = 1 if p else Fraction(1)
    jac = []
    for f in system:
        row = []
        for j in range(n):
            acc = 0 * one
            for mono, c in f.terms.items():
                if mono[j]:
                    term = c * mono[j] * one
                    for i, e in enumerate(mono):
                        term *= coords[i] ** (e - (i == j))
                    acc += term
            row.append(acc % p if p else acc)
        jac.append(row)
    return _det(jac, p)


def _det(m, p: int):
    m = [[x % p for x in row] if p else list(row) for row in m]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = pow(m[k][k], p - 2, p) if p else 1 / m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] * inv
            m[i] = [x - f * y for x, y in zip(m[i], m[k])]
            if p:
                m[i] = [x % p for x in m[i]]
    return det % p if p else det


def perturbed(form: Form) -> list[Form]:
    """Two classes that differ from form: one diagonal entry times a
    nonsquare, and one hyperbolic plane (or unit) dropped."""
    p = form.p
    nonsq = -1 if not p else next(c for c in range(2, p) if not is_square(p, c))
    diag = [1, -1] * form.hyperbolic + list(form.units)
    diag[-1] *= nonsq
    if p:
        diag = [d % p for d in diag]
    flipped = Form(p, 0, tuple(diag))
    if form.hyperbolic:
        dropped = Form(p, form.hyperbolic - 1, form.units)
    else:
        dropped = Form(p, 0, form.units[:-1])
    return [flipped, dropped]

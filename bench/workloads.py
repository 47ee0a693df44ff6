"""The operations each workload runs, generated from the workload seed.

An operation is one call into a public entry point of ``a1deg`` plus what
the independent checks need to judge its result.  Everything here runs in
set-up, before any timing starts, and builds only fields, forms, rings and
systems; no Groebner basis or degree is computed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

WORKLOADS = ("gr-coord", "gr-random-fp", "gr-random-q", "local-global")

# Per-operation budget, in seconds, for gr-random-q.  Gr(2,5) seed 1 needs
# about 13 s today, so it gets a wider budget than the Gr(2,4) sections,
# which finish in well under 0.1 s unless factoring stalls.
BUDGET_S = {(2, 4): 5.0, (3, 5): 5.0, (2, 5): 60.0}


@dataclass
class Op:
    """One timed call; ``run`` returns what the checks inspect."""

    name: str
    run: Callable[[], object]
    kind: str  # "grassmannian" or "local-global"
    budget_s: Optional[float] = None
    info: dict = field(default_factory=dict)


def build(a1, workload: str, seed: int) -> list[Op]:
    if workload == "gr-coord":
        ops = _gr_coord(a1)
    elif workload == "gr-random-fp":
        ops = _gr_random_fp(a1, seed)
    elif workload == "gr-random-q":
        ops = _gr_random_q(a1)
    elif workload == "local-global":
        ops = _local_global(a1, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    # Inputs that do not depend on the seed still run in a seeded order.
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Grassmannians


def _gr_op(a1, fld, r: int, n: int, forms, name: str, budget=None) -> Op:
    def run():
        return a1.euler_characteristic(fld, r, n, forms=forms)

    return Op(name, run, "grassmannian", budget, {"field": fld, "r": r, "n": n})


def _gr_coord(a1) -> list[Op]:
    shapes = [(2, 5), (2, 6), (3, 6), (2, 7), (3, 7)]
    return [
        _gr_op(a1, fld, r, n, None, f"{fld} Gr({r},{n}) coord")
        for fld in (a1.QQ, a1.GF(101))
        for r, n in shapes
    ]


def _gr_random_fp(a1, seed: int) -> list[Op]:
    from a1deg.grassmannian import random_forms

    fld = a1.GF(101)
    ops = []
    for (r, n), count in (((2, 4), 6), ((2, 5), 6), ((3, 5), 6)):
        for k in range(count):
            rng = random.Random(f"gr-random-fp:{seed}:{r}:{n}:{k}")
            forms = random_forms(fld, n, rng)
            while not generic_forms(forms, r, fld.p):
                forms = random_forms(fld, n, rng)
            ops.append(_gr_op(a1, fld, r, n, forms, f"F101 Gr({r},{n}) random #{k}"))
    return ops


def _gr_random_q(a1) -> list[Op]:
    from a1deg.grassmannian import random_forms

    cases = [(2, 4, s) for s in range(1, 9)] + [(3, 5, 1), (2, 5, 1)]
    return [
        _gr_op(
            a1,
            a1.QQ,
            r,
            n,
            random_forms(a1.QQ, n, random.Random(s)),
            f"Q Gr({r},{n}) random seed {s}",
            BUDGET_S[(r, n)],
        )
        for r, n, s in cases
    ]


def generic_forms(forms, r: int, p: int) -> bool:
    """A sufficient test, over F_p, that the forms give a generic section.

    The section vanishes at the A-invariant r-planes W, where A is the matrix
    of the forms; it is generic when A has n distinct eigenvalues (so the
    zeros are the C(n, r) sums of eigenlines, all simple) and every one of
    them meets E = span(e_1..e_{n-r}) trivially (so all of them lie on the
    chart).  The second condition reads: the functional phi = e_L^* (L the
    last r coordinates) is nonzero on every eigenvector wedge(v_S) of the
    compound matrix C = wedge^r A.  When C also has distinct eigenvalues,
    that holds exactly when phi, phi C, ..., phi C^(N-1) are independent.
    The test can reject a generic section whose compound has a repeated
    eigenvalue; it never accepts a non-generic one.
    """
    n = len(forms)
    a = [[c % p for c in row] for row in forms]
    if not _squarefree_charpoly(a, p):
        return False
    subsets = list(combinations(range(n), r))
    c = [[_det_mod([[a[i][j] for j in t] for i in s], p) for t in subsets] for s in subsets]
    row = [1 if s == tuple(range(n - r, n)) else 0 for s in subsets]
    krylov = []
    for _ in range(len(subsets)):
        krylov.append(row)
        row = [sum(row[i] * c[i][j] for i in range(len(row))) % p for j in range(len(row))]
    return _det_mod(krylov, p) != 0


def _det_mod(m, p: int) -> int:
    m = [list(row) for row in m]
    n = len(m)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] % p), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[k])]
    return det % p


def _squarefree_charpoly(a, p: int) -> bool:
    """Whether det(tI - A) has no repeated root over the algebraic closure."""
    n = len(a)
    # Faddeev-LeVerrier; p > n, so the divisions by 1..n are fine.
    coeffs = [1]  # t^n, t^(n-1), ...
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            m[i][i] = (m[i][i] + coeffs[-1]) % p
        m = [[sum(a[i][l] * m[l][j] for l in range(n)) % p for j in range(n)] for i in range(n)]
        ck = -sum(m[i][i] for i in range(n)) * pow(k, p - 2, p) % p
        coeffs.append(ck)
    f = coeffs[::-1]  # low degree first
    df = [i * f[i] % p for i in range(1, len(f))]
    return len(_upoly_gcd(f, df, p)) == 1


def _upoly_gcd(f, g, p: int) -> list:
    def strip(h):
        h = [c % p for c in h]
        while h and h[-1] == 0:
            h.pop()
        return h

    f, g = strip(f), strip(g)
    while g:
        inv = pow(g[-1], p - 2, p)
        while len(f) >= len(g):
            q = f[-1] * inv % p
            shift = len(f) - len(g)
            for i, c in enumerate(g):
                f[shift + i] = (f[shift + i] - q * c) % p
            f = strip(f)
            if not f:
                break
        f, g = g, f
    return f


# ---------------------------------------------------------------------------
# local/global systems with known zeros
#
# A system is built in coordinates u as
#     f1 = prod_k q_k(u1)^m_k,  f2 = (u2 - g(u1))^e,  f3 = u3 - h(u1),
# where each q_k is linear (a rational zero) or an irreducible quadratic (a
# closed point of degree 2).  Its zero at q_k has multiplicity
# m_k * e * deg(q_k).  The coordinates are then mixed, u = T v + b with T
# unimodular, and the equations combined by a constant matrix M, so neither
# the system nor its Groebner basis is triangular.

# (name, number of variables, f1 factors as (degree, multiplicity), e)
LG_TEMPLATES = [
    ("three-simple", 2, [(1, 1), (1, 1), (1, 1)], 1),
    ("double", 2, [(1, 2), (1, 1)], 1),
    ("conic", 2, [(2, 1), (1, 1)], 1),
    ("fat", 2, [(1, 2), (1, 1)], 2),
    ("three-simple-3d", 3, [(1, 1), (1, 1), (1, 1)], 1),
    ("conic-3d", 3, [(2, 1), (1, 1)], 1),
    ("double-3d", 3, [(1, 2), (1, 1)], 1),
    ("fat-conic-3d", 3, [(2, 1), (1, 2)], 1),
]
LG_FIELDS = ("Q", "F7")
LG_COPIES = 5


@dataclass
class Zero:
    """A closed point of the system: maximal-ideal generators in v, its
    multiplicity, and its coordinates in v when it is a simple rational zero."""

    gens: list
    multiplicity: int
    simple_coords: Optional[list]


def _local_global(a1, seed: int) -> list[Op]:
    ops = []
    for fname in LG_FIELDS:
        fld = a1.QQ if fname == "Q" else a1.GF(7)
        for name, nvars, factors, e in LG_TEMPLATES:
            for copy in range(LG_COPIES):
                rng = random.Random(f"local-global:{seed}:{fname}:{name}:{copy}")
                system, zeros = _known_zero_system(a1, fld, nvars, factors, e, rng)
                ops.append(_lg_op(a1, f"{fname} {name} #{copy}", system, zeros))
    return ops


def _lg_op(a1, name: str, system, zeros: list[Zero]) -> Op:
    points = [z.gens for z in zeros]

    def run():
        return a1.check_local_global(system, points)

    return Op(name, run, "local-global", None, {"system": system, "zeros": zeros})


def _known_zero_system(a1, fld, nvars: int, factors, e: int, rng: random.Random):
    p = fld.characteristic
    names = ["x", "y", "z"][:nvars]
    ring = a1.PolyRing(fld, names)
    v = ring.gens()

    def small():
        return rng.randint(-2, 2)

    def nonsquare():
        if p:
            return rng.choice([c for c in range(1, p) if pow(c, (p - 1) // 2, p) != 1])
        return rng.choice([-3, -2, -1, 2, 3, 5])

    t, t_inv = _unimodular(nvars, rng)
    b = [small() for _ in range(nvars)]
    u = [sum((v[j] * t[i][j] for j in range(nvars)), ring.const(b[i])) for i in range(nvars)]

    def in_v(coeffs_u1, poly_u1):
        """Evaluate a univariate polynomial (coefficients low first) at u1."""
        acc = ring.zero
        for c in reversed(coeffs_u1):
            acc = acc * poly_u1 + ring.const(c)
        return acc

    roots = rng.sample(range(-3, 4) if not p else range(p), len(factors))
    # nonzero coefficients keep every sheet a full quadratic
    g = [rng.choice((-2, -1, 1, 2)) for _ in range(3)]
    h = [rng.choice((-2, -1, 1, 2)) for _ in range(3)]
    f1 = ring.one
    zeros: list[Zero] = []
    for (deg, mult), a in zip(factors, roots):
        if deg == 1:
            q = [-a, 1]
        else:
            c = nonsquare()
            q = [a * a - c, -2 * a, 1]  # (u1 - a)^2 - c
        qv = in_v(q, u[0])
        f1 = f1 * qv**mult
        gens = [qv, u[1] - in_v(g, u[0])]
        if nvars == 3:
            gens.append(u[2] - in_v(h, u[0]))
        coords = None
        if deg == 1 and mult == 1 and e == 1:
            pu = [a, _uval(g, a)] + ([_uval(h, a)] if nvars == 3 else [])
            coords = [sum(t_inv[i][j] * (pu[j] - b[j]) for j in range(nvars)) for i in range(nvars)]
        zeros.append(Zero(gens, deg * mult * e, coords))
    base = [f1, (u[1] - in_v(g, u[0])) ** e]
    if nvars == 3:
        base.append(u[2] - in_v(h, u[0]))
    mix, _ = _unimodular(nvars, rng)
    scale = rng.choice([1, -1, 2, 3])
    mix[0] = [c * scale for c in mix[0]]
    system = [
        sum((base[j] * mix[i][j] for j in range(nvars)), ring.zero) for i in range(nvars)
    ]
    return system, zeros


def _uval(coeffs, a: int) -> int:
    return sum(c * a**i for i, c in enumerate(coeffs))


def _unimodular(n: int, rng: random.Random):
    """A random integer matrix L*U and its integer inverse.  L and U are unit
    triangular with every entry off the diagonal -1 or 1, so every system
    mixes all its coordinates alike and timings vary little between seeds."""
    lo = [[1 if i == j else (rng.choice((-1, 1)) if i > j else 0) for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice((-1, 1)) if i < j else 0) for j in range(n)] for i in range(n)]
    t = _matmul(lo, up)
    return t, _matmul(_unit_tri_inverse(up, upper=True), _unit_tri_inverse(lo, upper=False))


def _matmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _unit_tri_inverse(m, upper: bool):
    n = len(m)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    order = range(n - 1, -1, -1) if upper else range(n)
    for col in range(n):
        for i in order:
            if i == col:
                continue
            span = range(i + 1, n) if upper else range(i)
            inv[i][col] = -sum(m[i][k] * inv[k][col] for k in span)
    return inv

"""End-to-end acceptance checks.

Each test is one release gate and prints a single PASS/FAIL line (visible
with ``pytest -s``); the assertion carries the same line so failures are
self-describing.  Gates with a runtime budget assert their wall-clock
limits.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import a1deg
from a1deg.bezoutian import bezoutian
from a1deg.degree import (
    apply_matrix,
    check_local_global,
    compose,
    global_degree,
    global_degree_data,
    local_degree,
)
from a1deg.fields import GF, QQ, FunctionField
from a1deg.grassmannian import (
    closed_form,
    coordinate_forms,
    euler_characteristic,
    random_forms,
)
from a1deg.groebner import DEGREVLEX, groebner_basis
from a1deg.gw import GWClass, class_of_gram, equals
from a1deg.polynomials import PolyRing
from matrices import mat_inverse, scalar_det

F7 = GF(7)

# Independently known Euler characteristics of Gr(r, n) for n <= 6,
# as (hyperbolic count, number of <1> summands).
KNOWN_CELLS = {
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
}


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def known_class(r: int, n: int) -> GWClass:
    h, ones = KNOWN_CELLS[(r, n)]
    return GWClass.of(QQ, h, (QQ.one,) * ones)


def test_criterion_1_hyperbolic_global_degree():
    start = time.perf_counter()
    ring = PolyRing(QQ, ("x1", "x2"))
    x1, x2 = ring.gens()
    deg = global_degree([x1 * x2, x1 + x2])
    dt = time.perf_counter() - start
    ok = (
        deg == GWClass.of(QQ, hyperbolic=1)
        and (deg.rank, deg.signature(), str(deg.disc())) == (2, 0, "-1")
        and dt < 1.0
    )
    report("criterion 1 (hyperbolic global degree)", ok, f"{deg}, {dt:.3f}s")


def test_criterion_2_squares_gram_matrix():
    start = time.perf_counter()
    ring = PolyRing(QQ, ("x1", "x2", "x3"))
    x1, x2, x3 = ring.gens()
    fs = [x1 * x1, x2 * x2, x3 * x3]
    gb = groebner_basis(fs, DEGREVLEX)
    # 1, x3, x2, x1, x2x3, x1x3, x1x2, x1x2x3: m_i m_(7-i) = x1x2x3
    basis_ok = gb.quotient_basis() == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
        (0, 1, 1),
        (1, 0, 1),
        (1, 1, 0),
        (1, 1, 1),
    ]
    gram = bezoutian(fs, gb)
    entries_ok = all(
        gram[i][j] == QQ.scalar(1 if i + j == 7 else 0)
        for i in range(8)
        for j in range(8)
    )
    cls = class_of_gram(QQ, gram)
    dt = time.perf_counter() - start
    ok = basis_ok and entries_ok and cls == GWClass.of(QQ, hyperbolic=4) and dt < 1.0
    report("criterion 2 (anti-diagonal 8x8 Gram)", ok, f"{cls}, {dt:.3f}s")


def test_criterion_3_function_field_degrees():
    details = []
    ok = True
    for p in (3, 5):
        start = time.perf_counter()
        K = FunctionField(GF(p), "t")
        ring = PolyRing(K, ("x1", "x2"))
        x1, x2 = ring.gens()
        deg = global_degree([x1**p - K.gen(), x1 * x2])
        dt = time.perf_counter() - start
        want = GWClass.of(K, (p - 1) // 2, (K.gen(),))
        ok = ok and deg == want and dt < 5.0
        details.append(f"F{p}(t): {deg}, {dt:.3f}s")
    report("criterion 3 (degrees over F3(t) and F5(t))", ok, "; ".join(details))


def test_criterion_4_local_global_decomposition():
    start = time.perf_counter()
    ring = PolyRing(QQ, ("x1", "x2"))
    fs = [ring.parse("(x1-1)*x1*x2"), ring.parse("x1^2-2*x2^2")]
    origin = [ring.parse("x1"), ring.parse("x2")]
    conjugate = [ring.parse("x1-1"), ring.parse("x2^2-1/2")]
    deg = global_degree(fs)
    at_origin = local_degree(fs, origin)
    at_conjugate = local_degree(fs, conjugate)
    _, _, covers = check_local_global(fs, [origin, conjugate])
    dt = time.perf_counter() - start
    ok = (
        deg == GWClass.of(QQ, hyperbolic=3)
        and at_origin == GWClass.of(QQ, 1, (QQ.scalar(1), QQ.scalar(2)))
        and at_conjugate == GWClass.of(QQ, 0, (QQ.scalar(-1), QQ.scalar(-2)))
        and equals(at_origin + at_conjugate, deg)
        and covers
        and dt < 5.0
    )
    report(
        "criterion 4 (local/global decomposition)",
        ok,
        f"global {deg}, locals {at_origin} and {at_conjugate}, {dt:.3f}s",
    )


def test_criterion_5_grassmannian_2_4():
    start = time.perf_counter()
    want = GWClass.of(QQ, 2, (QQ.one, QQ.one))
    explicit = euler_characteristic(QQ, 2, 4, forms=coordinate_forms(QQ, 4))
    ok = explicit == want
    seeds_ok = []
    for seed in (1, 2, 3):
        forms = random_forms(QQ, 4, random.Random(f"sections:{seed}"))
        got = euler_characteristic(QQ, 2, 4, forms=forms)
        seeds_ok.append(equals(got, want))
    dt = time.perf_counter() - start
    ok = ok and all(seeds_ok) and dt < 30.0
    report(
        "criterion 5 (Gr(2,4) Euler characteristic)",
        ok,
        f"{explicit}, random seeds {seeds_ok}, {dt:.3f}s",
    )


# Each n = 6 cell finishes in well under a second; a cell that runs this long
# has hung.
N6_BUDGET_SECONDS = 60


def _attempt_cell_subprocess(r: int, n: int):
    """Compute one Euler cell in a child so a hard budget can be enforced."""
    script = (
        "import json, sys\n"
        "from a1deg.fields import QQ\n"
        "from a1deg.grassmannian import euler_characteristic\n"
        "gw = euler_characteristic(QQ, int(sys.argv[1]), int(sys.argv[2]))\n"
        "print(json.dumps(gw.to_json()))\n"
    )
    # the child imports the same a1deg as this process
    src = str(Path(a1deg.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script, str(r), str(n)],
            capture_output=True,
            text=True,
            timeout=N6_BUDGET_SECONDS,
            env={**os.environ, "PYTHONPATH": path},
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"cell ({r},{n}) failed: {proc.stderr.strip()}")
    data = json.loads(proc.stdout)
    units = tuple(QQ.scalar(Fraction(u)) for u in data["units"])
    return GWClass.of(QQ, data["hyperbolic"], units)


def test_criterion_6_table_slice():
    ok = True
    details = []
    for (r, n), _ in sorted(KNOWN_CELLS.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        if n > 5:
            continue
        got = euler_characteristic(QQ, r, n)
        cell_ok = equals(got, known_class(r, n)) and equals(got, closed_form(QQ, r, n))
        ok = ok and cell_ok
        if not cell_ok:
            details.append(f"({r},{n}) gave {got}")
    for n in range(2, 6):
        ok = ok and closed_form(QQ, n, n) == GWClass.of(QQ, 0, (QQ.one,))
    for r in range(1, 6):
        got = _attempt_cell_subprocess(r, 6)
        if got is None:
            ok = False
            details.append(f"(r={r},n=6) did not finish within {N6_BUDGET_SECONDS}s")
            continue
        cell_ok = equals(got, known_class(r, 6)) and equals(
            got, closed_form(QQ, r, 6)
        )
        ok = ok and cell_ok
        if not cell_ok:
            details.append(f"({r},6) gave {got}")
    report("criterion 6 (table slice n <= 6)", ok, "; ".join(details) or "all cells")


def _random_poly(rng, ring, max_deg, terms):
    out = ring.zero
    for _ in range(terms):
        mono = [0] * ring.nvars
        for _ in range(rng.randrange(max_deg + 1)):
            mono[rng.randrange(ring.nvars)] += 1
        out = out + ring.const(rng.randrange(-6, 7)) * ring.monomial(tuple(mono))
    return out


def _jacobian_det(polys):
    """det of the Jacobian matrix by cofactor expansion along the first row."""

    def det(mat):
        if len(mat) == 1:
            return mat[0][0]
        total = mat[0][0].ring.zero
        for c, entry in enumerate(mat[0]):
            term = entry * det([row[:c] + row[c + 1 :] for row in mat[1:]])
            total = total - term if c % 2 else total + term
        return total

    return det([[f.diff(j) for j in range(len(polys))] for f in polys])


def _multiply_out(gram, gb, basis):
    """The Gram matrix pushed through A (x) A -> A: sum gram[a][b] m_a m_b."""
    ring = gb.ring
    total = ring.zero
    for a, ma in enumerate(basis):
        for b, mb in enumerate(basis):
            mono = ring.monomial(tuple(x + y for x, y in zip(ma, mb)))
            total = total + ring.const(gram[a][b]) * mono
    return gb.normal_form(total)


def _zero_dim_corpus(count: int):
    """Random zero-dimensional systems over F7 in up to 3 variables."""
    rng = random.Random("acceptance:corpus")
    corpus = []
    while len(corpus) < count:
        nvars = rng.randint(1, 3)
        ring = PolyRing(F7, tuple(f"x{i}" for i in range(1, nvars + 1)))
        gens = ring.gens()
        polys = [
            g ** rng.randint(1, 3) + _random_poly(rng, ring, max_deg=2, terms=3)
            for g in gens
        ]
        gb = groebner_basis(polys, DEGREVLEX)
        if not gb.is_zero_dimensional() or gb.quotient_dimension() == 0:
            continue
        corpus.append((polys, gb))
    return corpus


def test_criterion_7_property_suites():
    corpus = _zero_dim_corpus(50)
    ok = True
    details = []

    start = time.perf_counter()
    for polys, gb in corpus:
        basis = gb.quotient_basis()
        gram = bezoutian(polys, gb)
        ok = ok and _multiply_out(gram, gb, basis) == gb.normal_form(_jacobian_det(polys))
    dt = time.perf_counter() - start
    ok = ok and dt < 120.0
    details.append(f"jacobian identity x50 {dt:.1f}s")

    data = [global_degree_data(polys, gb) for polys, gb in corpus]

    start = time.perf_counter()
    for d in data:
        m = len(d.gram)
        ok = ok and all(
            d.gram[i][j] == d.gram[j][i] for i in range(m) for j in range(m)
        )
        ok = ok and scalar_det(d.gram, F7) != F7.zero
    dt = time.perf_counter() - start
    ok = ok and dt < 120.0
    details.append(f"gram symmetry+nondegeneracy x50 {dt:.1f}s")

    start = time.perf_counter()
    for d in data:
        inv = mat_inverse(d.gram, F7)
        ok = ok and equals(class_of_gram(F7, inv), d.gw)
    dt = time.perf_counter() - start
    ok = ok and dt < 120.0
    details.append(f"gram vs inverse class x50 {dt:.1f}s")

    start = time.perf_counter()
    rng = random.Random("acceptance:rules")
    ring2 = PolyRing(F7, ("x", "y"))
    x, y = ring2.gens()

    def random_pair():
        while True:
            fs = [
                x ** rng.randint(1, 3) + _random_poly(rng, ring2, 2, 3),
                y ** rng.randint(1, 3) + _random_poly(rng, ring2, 2, 3),
            ]
            gb = groebner_basis(fs, DEGREVLEX)
            if gb.is_zero_dimensional() and gb.quotient_dimension() > 0:
                return fs, global_degree(fs)

    for _ in range(25):
        fs, deg = random_pair()
        while True:
            a = [[F7.scalar(rng.randrange(7)) for _ in range(2)] for _ in range(2)]
            det = scalar_det(a, F7)
            if det != F7.zero:
                break
        ok = ok and equals(
            global_degree(apply_matrix(a, fs)), GWClass.of(F7, 0, (det,)) * deg
        )
    for _ in range(25):
        fs, deg = random_pair()
        p = _random_poly(rng, ring2, 1, 2)
        u = [[ring2.one, p], [ring2.zero, ring2.one]]
        if rng.randrange(2):
            u = [[ring2.one, ring2.zero], [p, ring2.one]]
        ok = ok and equals(global_degree(apply_matrix(u, fs)), deg)
    ring1 = PolyRing(F7, ("x",))
    (t,) = ring1.gens()
    for _ in range(25):
        while True:
            outer = [t ** rng.randint(1, 3) + _random_poly(rng, ring1, 2, 2)]
            inner = [t ** rng.randint(1, 3) + _random_poly(rng, ring1, 2, 2)]
            both = compose(outer, inner)
            gb = groebner_basis(both, DEGREVLEX)
            if gb.is_zero_dimensional() and gb.quotient_dimension() > 0:
                break
        ok = ok and equals(
            global_degree(both), global_degree(outer) * global_degree(inner)
        )
    dt = time.perf_counter() - start
    ok = ok and dt < 120.0
    details.append(f"det/unipotent/product rules x25 each {dt:.1f}s")

    start = time.perf_counter()
    for (polys, gb), d in zip(corpus, data):
        ok = ok and d.gw.rank == gb.quotient_dimension()
    dt = time.perf_counter() - start
    ok = ok and dt < 120.0
    details.append(f"rank equals quotient dimension x50 {dt:.1f}s")

    report("criterion 7 (property suites)", ok, "; ".join(details))


def test_criterion_8_univariate_root_oracle():
    rng = random.Random("acceptance:univariate")
    ring = PolyRing(QQ, ("x",))
    (x,) = ring.gens()
    pool = sorted({Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3)})
    ok = True
    for _ in range(20):
        d = rng.randint(1, 5)
        roots = rng.sample(pool, d)
        lead = rng.choice([-3, -2, -1, 1, 2, 3])
        f = ring.const(lead)
        for root in roots:
            f = f * (x - ring.const(root))
        deg = global_degree([f])
        fprime = f.diff("x")
        slopes = tuple(fprime.evaluate({"x": root}) for root in roots)
        oracle = GWClass.of(QQ, 0, slopes)
        ok = ok and deg.rank == d and equals(deg, oracle)
    report("criterion 8 (univariate derivative oracle)", ok, "20 instances")

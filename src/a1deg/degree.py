"""Global and local degrees of square polynomial systems over an exact field.

The global degree of f: A^n -> A^n with a finite zero scheme is the class of
the bilinear form carried by the reduced Bezoutian of f.  The local degree at
a closed point replaces the full quotient by the primary component of the
ideal at that point, so the same construction runs with a smaller Groebner
basis.  Local degrees over a complete set of zeros sum to the global one,
which doubles as an end-to-end consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bezoutian import _check_system, bezoutian
from .errors import IncompleteCoverError, RingMismatchError
from .fields import Scalar
from .groebner import DEGREVLEX, GroebnerBasis, groebner_basis, primary_component
from .gw import GWClass, class_of_gram, equals
from .polynomials import Poly


@dataclass(frozen=True)
class DegreeData:
    """A degree together with the evidence it was computed from."""

    gw: GWClass
    gram: list[list[Scalar]]
    gb: GroebnerBasis

    @property
    def basis(self) -> list[tuple]:
        return self.gb.quotient_basis()

    @property
    def multiplicity(self) -> int:
        return len(self.gram)


def global_degree_data(
    polys: Sequence[Poly], gb: GroebnerBasis | None = None
) -> DegreeData:
    _check_system(polys)
    if gb is None:
        gb = groebner_basis(polys, DEGREVLEX)
    return _degree_from_component(polys, gb)


def global_degree(polys: Sequence[Poly]) -> GWClass:
    return global_degree_data(polys).gw


def local_degree_data(
    polys: Sequence[Poly], point: Sequence[Poly]
) -> DegreeData:
    """Degree at the closed point cut out by the given generators.

    The generators must define a maximal ideal (a single closed point, not
    necessarily rational); every f_i must vanish there.  The degree is that
    of the primary component of the system at the point.  A zero that is not
    isolated has an infinite-dimensional local algebra and raises
    NotZeroDimensionalError.
    """
    _check_system(polys)
    return _degree_from_component(polys, primary_component(polys, point))


def local_degree(polys: Sequence[Poly], point: Sequence[Poly]) -> GWClass:
    return local_degree_data(polys, point).gw


def _degree_from_component(
    polys: Sequence[Poly], component: GroebnerBasis
) -> DegreeData:
    gram = bezoutian(polys, component)
    return DegreeData(class_of_gram(polys[0].ring.field, gram), gram, component)


def check_local_global(
    polys: Sequence[Poly], points: Sequence[Sequence[Poly]]
) -> tuple[GWClass, list[GWClass], bool]:
    """Global degree, local degrees, and whether the sum of the local ones
    equals the global one.  The points must exhaust the zero scheme."""
    gdata = global_degree_data(polys)
    locals_ = [local_degree_data(polys, pt) for pt in points]
    covered = sum(l.multiplicity for l in locals_)
    if covered != gdata.multiplicity:
        raise IncompleteCoverError(
            f"local multiplicities cover {covered} of {gdata.multiplicity}"
        )
    field = polys[0].ring.field
    total = GWClass(field, 0, ())
    for l in locals_:
        total = total + l.gw
    return gdata.gw, [l.gw for l in locals_], equals(total, gdata.gw)


def compose(outer: Sequence[Poly], inner: Sequence[Poly]) -> list[Poly]:
    """The system x -> outer(inner(x)); both must be square in the same ring."""
    ring = outer[0].ring
    if len(inner) != ring.nvars:
        raise RingMismatchError("inner system has the wrong number of components")
    images = dict(zip(ring.names, inner))
    return [f.substitute(images) for f in outer]


def apply_matrix(mat: Sequence[Sequence[object]], polys: Sequence[Poly]) -> list[Poly]:
    """Row-by-row combination sum_j mat[i][j] * polys[j]; entries may be
    scalars or polynomials."""
    ring = polys[0].ring
    out = []
    for row in mat:
        if len(row) != len(polys):
            raise RingMismatchError("matrix width does not match the system")
        acc = ring.zero
        for entry, f in zip(row, polys):
            factor = entry if isinstance(entry, Poly) else ring.const(entry)
            acc = acc + factor * f
        out.append(acc)
    return out

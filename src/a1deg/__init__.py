"""Exact degrees of polynomial systems as classes of bilinear forms.

The package computes local and global degrees of square polynomial systems
over exact fields (Q, F_p, and rational function fields over them) through
the Bezoutian of the system, and applies them to Euler characteristics of
Grassmannians.  Everything is exact: no floating point, no randomness except
where explicitly seeded.
"""

from .bezoutian import bezoutian, delta_matrix, det_mod, gram_matrix
from .degree import (
    DegreeData,
    apply_matrix,
    check_local_global,
    compose,
    global_degree,
    global_degree_data,
    local_degree,
    local_degree_data,
)
from .errors import (
    A1DegError,
    DegenerateFormError,
    FieldMismatchError,
    IncompleteCoverError,
    InexactDivisionError,
    MissingAssignmentError,
    NonSquareSystemError,
    NotZeroDimensionalError,
    ParseError,
    PointNotOnZeroLocusError,
    RetriesExhaustedError,
    RingMismatchError,
    UnsupportedFieldError,
    ZeroInputError,
)
from .fields import (
    GF,
    QQ,
    Field,
    FunctionField,
    PrimeField,
    Rationals,
    Scalar,
    is_square,
    parse_field,
    signature_sign,
    square_class,
)
from .grassmannian import (
    closed_form,
    closed_form_table,
    euler_characteristic,
    section_system,
)
from .groebner import (
    DEGREVLEX,
    GroebnerBasis,
    groebner_basis,
    normal_form,
    primary_component,
    saturation,
)
from .gw import GWClass, class_of_gram, diagonalize, equals, hilbert_symbol, simplify
from .polynomials import MonomialOrder, Poly, PolyRing, parse_poly

__version__ = "0.1.0"

__all__ = [
    "A1DegError",
    "DEGREVLEX",
    "DegenerateFormError",
    "DegreeData",
    "Field",
    "FieldMismatchError",
    "FunctionField",
    "GF",
    "GWClass",
    "GroebnerBasis",
    "IncompleteCoverError",
    "InexactDivisionError",
    "MissingAssignmentError",
    "MonomialOrder",
    "NonSquareSystemError",
    "NotZeroDimensionalError",
    "ParseError",
    "Poly",
    "PolyRing",
    "PointNotOnZeroLocusError",
    "PrimeField",
    "QQ",
    "Rationals",
    "RetriesExhaustedError",
    "RingMismatchError",
    "Scalar",
    "UnsupportedFieldError",
    "ZeroInputError",
    "apply_matrix",
    "bezoutian",
    "check_local_global",
    "class_of_gram",
    "closed_form",
    "closed_form_table",
    "compose",
    "delta_matrix",
    "det_mod",
    "diagonalize",
    "equals",
    "euler_characteristic",
    "global_degree",
    "global_degree_data",
    "gram_matrix",
    "groebner_basis",
    "hilbert_symbol",
    "is_square",
    "local_degree",
    "local_degree_data",
    "normal_form",
    "parse_field",
    "parse_poly",
    "primary_component",
    "saturation",
    "section_system",
    "signature_sign",
    "simplify",
    "square_class",
    "__version__",
]

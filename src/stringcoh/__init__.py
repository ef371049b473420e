"""Hochschild cohomology of triangular string algebras.

The cohomology dimensions are computed two independent ways, by a
counting formula over a partition of parallel paths and by exact rational
ranks on the minimal bimodule resolution of the algebra, and the ring
structure in positive degrees is certified trivial by exhibiting every
cup product as a coboundary.
"""

from .cup import (
    CertificateError,
    Cochain,
    chain_map_audit,
    cup,
    cup_table,
    is_coboundary,
    normalize_geq,
    normalize_leq,
)
from .hochschild import CochainComplex, ParallelPair
from .linalg import RationalMatrix
from .presentation import (
    ParseError,
    Presentation,
    PathBasis,
    ValidationReport,
    basis_P,
    parse,
    parse_file,
    validate,
)
from .quiver import CyclicQuiverError, Quiver
from .resolution import (
    ApConstructionError,
    ApElement,
    Resolution,
)

__all__ = [
    "ApConstructionError",
    "ApElement",
    "CertificateError",
    "Cochain",
    "CochainComplex",
    "CyclicQuiverError",
    "ParallelPair",
    "ParseError",
    "PathBasis",
    "Presentation",
    "Quiver",
    "RationalMatrix",
    "Resolution",
    "ValidationReport",
    "basis_P",
    "chain_map_audit",
    "cup",
    "cup_table",
    "is_coboundary",
    "normalize_geq",
    "normalize_leq",
    "parse",
    "parse_file",
    "validate",
]

__version__ = "0.1.0"

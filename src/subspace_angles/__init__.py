"""Relative orientation of linear subspaces via Clifford geometric algebra.

Two subspaces of R^n, represented as blades A and B, expose their full
relative-orientation data in the single geometric product A reverse(B):
intersection dimension, perpendicularity count, all principal angles and
principal-plane bivectors. An independent matrix route (Gram-Schmidt +
Jacobi SVD over the mutual inner products) cross-validates the result. It
shares no code and no LAPACK driver with the engine: LAPACK's svd supplies
only the starting basis of its Jacobi, whose own rule decides the answer.
"""

from .blades import (
    Blade,
    blade_from_spanning_vectors,
    is_blade,
    subspace_membership,
)
from .conformal import ConformalObject, conformal_relative_angle, to_offset_flat
from .engine import AngleReport, bivector_split, relative_angle, rotor_reconstruction
from .errors import (
    AmbiguousRankError,
    CarrierError,
    DegenerateSpanError,
    GaError,
    NonEuclideanError,
    NotABladeError,
    ProblemFormatError,
    SignatureMismatchError,
)
from .ga import Multivector, Signature, basis_vectors
from .oracle import PrincipalPairs, orthonormal_basis, principal_angles, rank_counts, svd_small
from .problems import SubspaceProblem, parse_problem, run_problem

__version__ = "0.1.0"

__all__ = [
    "AmbiguousRankError",
    "AngleReport",
    "Blade",
    "CarrierError",
    "ConformalObject",
    "DegenerateSpanError",
    "GaError",
    "Multivector",
    "NonEuclideanError",
    "NotABladeError",
    "PrincipalPairs",
    "ProblemFormatError",
    "Signature",
    "SignatureMismatchError",
    "SubspaceProblem",
    "basis_vectors",
    "bivector_split",
    "blade_from_spanning_vectors",
    "conformal_relative_angle",
    "is_blade",
    "orthonormal_basis",
    "parse_problem",
    "principal_angles",
    "rank_counts",
    "relative_angle",
    "rotor_reconstruction",
    "run_problem",
    "subspace_membership",
    "svd_small",
    "to_offset_flat",
]

"""Construction and verification of additive and non-additive stabiliser codes
via finite projective geometry: quantum sets of lines, projections from point
pairs, compatibility-graph clique search, and a numerical error-detection
oracle on orthonormal code bases."""

from .fields import FpVector, PrimeModulus
from .geometry import ProjSubspace
from .lines import AtLeast, QuantumLineSet
from .pauli import PauliOperator, StabiliserGroup
from .search import CodeReport, CodingSet, CompatibilityGraph, LabelledGraph

__all__ = [
    "AtLeast",
    "CodeReport",
    "CodingSet",
    "CompatibilityGraph",
    "FpVector",
    "LabelledGraph",
    "PauliOperator",
    "PrimeModulus",
    "ProjSubspace",
    "QuantumLineSet",
    "StabiliserGroup",
]

__version__ = "0.1.0"

"""Points and subspaces of PG(m, p).

A point is held as a code: its normalised vector (first nonzero coordinate
1) read as a base-p number, most significant coordinate first (vector_codes,
digits, point_code, normalise). A rank-r subspace is stored as its unique
RREF basis, so equality of subspaces is equality of values. A line is held
as the codes of its points (lines.QuantumLineSet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fields
from .errors import DimensionMismatch, TooLarge
from .fields import PrimeModulus


@dataclass(frozen=True, eq=False)
class ProjSubspace:
    """A projective subspace of PG(m - 1, p), stored as the RREF basis of its vector span.

    Any (r, m) integer basis is stored as the read-only (rank, m) int64
    array fields.rref makes of it, so equal subspaces are equal values.
    """

    modulus: PrimeModulus
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.int64)
        object.__setattr__(self, "basis", fields.rref(self.p, basis, basis.shape[-1]))

    def __eq__(self, other):
        if not isinstance(other, ProjSubspace):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.basis, other.basis)

    def __hash__(self):
        return hash((self.modulus, self.basis.shape, self.basis.tobytes()))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def rank(self) -> int:
        return len(self.basis)


def _places(p: int, m: int) -> np.ndarray:
    """The place value of each coordinate of a vector of F_p^m in its int64 code; wider codes are refused."""
    if p ** m > 2 ** 63:
        raise TooLarge(f"the vectors of F_{p}^{m} have codes up to {p}^{m} - 1, past the 64-bit integers")
    return p ** np.arange(m - 1, -1, -1)


def vector_codes(p: int, m: int, coords: Sequence[Sequence[int]]) -> np.ndarray:
    """The base-p codes of vectors of length m, most significant coordinate first."""
    vectors = np.array(coords, dtype=np.int64)
    if vectors.size and vectors.shape[-1] != m:
        raise DimensionMismatch(f"vectors of length {vectors.shape[-1]}, expected {m}")
    return vectors.reshape(-1, m) @ _places(p, m)


def digits(p: int, m: int, codes: Sequence[int] | np.ndarray) -> np.ndarray:
    """The vectors of F_p^m with the given codes, along a new last axis."""
    return np.asarray(codes, dtype=np.int64)[..., None] // _places(p, m) % p


def unique(codes: np.ndarray) -> np.ndarray:
    """The distinct codes in increasing order (np.unique would import numpy.ma, about 1 MiB)."""
    codes = np.sort(codes, axis=None)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


def normalise(p: int, m: int, codes: Sequence[int] | np.ndarray) -> np.ndarray:
    """The sorted codes of the points of PG(m-1, p) spanned by nonzero vectors of F_p^m, each once.

    A code outside [1, p^m) is the zero vector or no vector of F_p^m, and
    raises ValueError.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if ((codes < 1) | (codes >= p ** m)).any():
        raise ValueError(f"a code outside [1, {p}^{m}) is no point of PG({m - 1}, {p})")
    return unique(point_code(p, digits(p, m, codes)))


def point_code(p: int, vectors: np.ndarray) -> np.ndarray:
    """The code of the point of each vector along the last axis, and 0 for the zero vector.

    The entries may be any integers; they are read mod p. A point's
    normalised vector, first nonzero coordinate 1, has the least code of its
    nonzero multiples.
    """
    places = _places(p, vectors.shape[-1])
    return np.min([c * vectors % p @ places for c in range(1, p)], axis=0)


def normalised_codes(p: int, r: int) -> np.ndarray:
    """The codes of the normalised vectors of F_p^r, first nonzero coordinate 1, in increasing order.

    Those whose leading 1 stands j places from the end have the codes
    [p^j, 2·p^j), so these are also the points of PG(r-1, p) in order.
    """
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [np.arange(p ** j, 2 * p ** j) for j in range(r)])


def points_of(s: ProjSubspace) -> np.ndarray:
    """The sorted codes of the (p^r - 1)/(p - 1) points of a rank-r subspace.

    The points of a span are its normalised coefficient vectors times its
    RREF basis, and each product is normalised already: its first nonzero
    coordinate sits at the pivot of the first nonzero c_i and equals c_i = 1.
    """
    p, (r, m) = s.p, s.basis.shape
    return np.sort(digits(p, r, normalised_codes(p, r)) @ s.basis % p @ _places(p, m))


def span(objs: Sequence[ProjSubspace]) -> ProjSubspace:
    """Smallest subspace containing every input object."""
    if not objs:
        raise ValueError("span of nothing is undefined")
    if len({o.basis.shape[1] for o in objs}) > 1:
        raise DimensionMismatch("objects live in different ambient spaces")
    return ProjSubspace(objs[0].modulus, np.vstack([o.basis for o in objs]))

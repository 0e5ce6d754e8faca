"""Points and subspaces of PG(m, p).

A point is held as a code: its normalised vector (first nonzero coordinate
1) read as a base-p number, most significant coordinate first. digits
decodes codes, and point_code is the one normalising routine: it gives the
code of the point of any vector. A rank-r subspace is held as its unique
RREF basis, an (r, m) int64 array (fields.rref, fields.null_space), and
enumerated by points_of. A line is held as the codes of its points
(lines.QuantumLineSet).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import fields
from .errors import DimensionMismatch, TooLarge


def _places(p: int, m: int) -> np.ndarray:
    """The place value of each coordinate of a vector of F_p^m in its int64 code; wider codes are refused."""
    if p ** m > 2 ** 63:
        raise TooLarge(f"the vectors of F_{p}^{m} have codes up to {p}^{m} - 1, past the 64-bit integers")
    return p ** np.arange(m - 1, -1, -1)


def digits(p: int, m: int, codes: Sequence[int] | np.ndarray) -> np.ndarray:
    """The vectors of F_p^m with the given codes, along a new last axis."""
    return np.asarray(codes, dtype=np.int64)[..., None] // _places(p, m) % p


def unique(codes: np.ndarray) -> np.ndarray:
    """The distinct codes in increasing order (np.unique would import numpy.ma, about 1 MiB)."""
    codes = np.sort(codes, axis=None)
    keep = np.ones(len(codes), dtype=bool)
    keep[1:] = codes[1:] != codes[:-1]
    return codes[keep]


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


def points_of(p: int, basis: np.ndarray) -> np.ndarray:
    """The sorted codes of the (p^r - 1)/(p - 1) points of the span of an (r, m) RREF basis.

    The basis must be in RREF, as fields.rref and fields.null_space give it:
    then the points of the span are its normalised coefficient vectors times
    the basis, and each product is normalised already: its first nonzero
    coordinate sits at the pivot of the first nonzero c_i and equals c_i = 1.
    """
    r, m = basis.shape
    coefficients = normalised_codes(p, r)
    points = np.empty_like(coefficients)
    # a block at a time: the whole (count, r) digit matrix would be 8·r bytes a point
    for block in fields.blocks(len(coefficients), r + m):
        points[block] = digits(p, r, coefficients[block]) @ basis % p @ _places(p, m)
    points.sort()
    return points


def span(p: int, bases: Sequence[np.ndarray]) -> np.ndarray:
    """The RREF basis of the smallest subspace holding the rows of every (r_i, m) basis."""
    if not bases:
        raise ValueError("span of nothing is undefined")
    if len({np.shape(b)[1] for b in bases}) > 1:
        raise DimensionMismatch("bases live in different ambient spaces")
    return fields.rref(p, np.vstack(bases), np.shape(bases[0])[1])

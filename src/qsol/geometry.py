"""Points and subspaces of PG(m, p).

A point is held as a code: its normalised vector (first nonzero coordinate
1) read as a base-p number, most significant coordinate first. digits
decodes codes, and point_code is the one normalising routine: it gives the
code of the point of any vector. line_codes is the one sum of codes: the
codes of a + c·b for two lists of vectors, with no vector decoded. A
rank-r subspace is held as its unique RREF basis, an (r, m) int64 array
(fields.rref, fields.null_space), and enumerated by points_of. A line is
held as the codes of its points (lines.QuantumLineSet).
"""

from __future__ import annotations

import functools
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


def line_codes(p: int, m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The codes of a_i + c·b_j for c = 1..p-1, as an array indexed [c-1, i, j].

    a and b hold codes of vectors of F_p^m. For p = 2 the code of a sum is
    the XOR of the codes. Otherwise the m base-p digits of a code go in
    chunks (chunk_widths), most significant first, and the code of a sum is
    built chunk by chunk from one gather in the chunk's sum table.
    """
    if p == 2:
        return (a[:, None] ^ b)[None]
    codes = None
    low = m
    for width in chunk_widths(p, m):
        low -= width
        size = p ** width
        a_chunk, b_chunk = a // p ** low % size, b // p ** low % size
        sums = _sum_table(p, width).take(a_chunk[:, None] * size + b_chunk, axis=1)
        if codes is None:
            codes = sums.astype(np.int64)
        else:
            codes *= size
            codes += sums
    return codes


def chunk_widths(p: int, m: int) -> list[int]:
    """The widths of the digit chunks of an m-digit base-p code in line_codes, most significant first.

    Every chunk but the first is k digits wide, for the largest k with
    p^(2k) <= 2^16, so that a chunk's code fits in one byte and its sum
    table holds at most (p - 1)·2^16 entries; the first takes the rest,
    and is 0 digits wide when m = 0.
    """
    k = 1
    while p ** (2 * k + 2) <= 2 ** 16:
        k += 1
    chunks = max(1, -(-m // k))
    return [m - k * (chunks - 1)] + [k] * (chunks - 1)


@functools.cache
def _sum_table(p: int, k: int) -> np.ndarray:
    """The codes of u + c·v over F_p^k, for c = 1..p-1, as a read-only uint8 array indexed [c-1, u·p^k + v].

    Built digit by digit: appending a least significant digit x to u and y
    to v takes an entry e to e·p + (x + c·y) mod p. Every temporary is uint8
    and no larger than the table, since p^k <= 256 (see chunk_widths).
    """
    digit = np.arange(p)
    # [c-1, x, y] -> (x + c·y) mod p
    sums = ((digit[:, None] + np.arange(1, p)[:, None, None] * digit) % p).astype(np.uint8)
    table = np.zeros((p - 1, 1, 1), dtype=np.uint8)
    for size in (p ** np.arange(1, k + 1)).tolist():
        table = (table[:, :, None, :, None] * np.uint8(p) + sums[:, None, :, None, :]).reshape(p - 1, size, size)
    table = table.reshape(p - 1, -1)
    table.setflags(write=False)
    return table


def points_of(p: int, basis: np.ndarray) -> np.ndarray:
    """The sorted codes of the (p^r - 1)/(p - 1) points of the span of an (r, m) RREF basis.

    The basis must be in RREF, as fields.rref and fields.null_space give it.
    Taken from the last row up, the points led by row i are row_i itself and
    row_i + c·q, c = 1..p-1, for the points q of the rows below (line_codes):
    those are zero at row i's pivot and before it, so each sum is normalised
    already.
    """
    r, m = basis.shape
    rows = point_code(p, basis)
    points = np.empty((p ** r - 1) // (p - 1), dtype=np.int64)
    done = 0
    for i in range(r - 1, -1, -1):
        sums = line_codes(p, m, rows[i:i + 1], points[:done]).ravel()
        points[done] = rows[i]
        points[done + 1 : done + 1 + len(sums)] = sums
        done += 1 + len(sums)
    points.sort()
    return points


def span(p: int, bases: Sequence[np.ndarray]) -> np.ndarray:
    """The RREF basis of the smallest subspace holding the rows of every (r_i, m) basis."""
    if not bases:
        raise ValueError("span of nothing is undefined")
    if len({np.shape(b)[1] for b in bases}) > 1:
        raise DimensionMismatch("bases live in different ambient spaces")
    return fields.rref(p, np.vstack(bases), np.shape(bases[0])[1])

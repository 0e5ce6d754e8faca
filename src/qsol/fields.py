"""Exact dense linear algebra over the prime fields F_p, 2 <= p <= 31.

A matrix is an int64 array of residues, one row per vector, and a vector
one such row; every entry is stored as its smallest non-negative
representative. Row spaces, null spaces and ranks come from one
Gauss-Jordan elimination, and ranks over F_2 from rows packed into
integers. All tie-breaking is lexicographic on entry tuples, which keeps
every downstream search reproducible. The module also holds the memory
policy: the byte budget MAX_BYTES, its guard check_bytes (TooLarge with
an estimate) and the blocking rule blocks (about 2^20 entries a block),
and _derived, the one builder of the values the library derives from
values already checked.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import TooLarge

_MAX_PRIME = 31
# the one byte budget of the package's tables and arrays
MAX_BYTES = 2 ** 28


def check_bytes(what: str, estimate: int, part: int = 1) -> None:
    """Raise TooLarge, with the estimate, unless estimate bytes fit MAX_BYTES / part."""
    if estimate * part > MAX_BYTES:
        share = "" if part == 1 else f"1/{part} of "
        raise TooLarge(
            f"{what} needs about {estimate / 2 ** 20:.1f} MiB, "
            f"over {share}the {MAX_BYTES / 2 ** 20:.0f} MiB budget"
        )


def blocks(count: int, width: int) -> list[slice]:
    """Slices that take count rows of width entries each in blocks of about 2^20 entries, at least one row a block."""
    step = max(1, 2 ** 20 // max(width, 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _derived(cls, *values):
    """An instance of the frozen dataclass cls with the given field values, in field order, and no check.

    For the values the library derives from values already checked (a
    subgroup, a projected line set, Γ): each value must already be in the
    canonical form that cls's own constructor would give it, and every array
    among them is made read-only here. cls's constructor, which parsers and
    users call, checks every value; the property tests hold each caller of
    this builder to what that constructor gives.
    """
    obj = object.__new__(cls)
    for f, value in zip(dataclasses.fields(cls), values, strict=True):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, f.name, value)
    return obj


def is_prime(p: int) -> bool:
    """Deterministic trial-division primality check (fine for p <= 31)."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, order=True)
class PrimeModulus:
    """A prime local dimension p with 2 <= p <= 31."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p > _MAX_PRIME:
            raise ValueError(f"modulus must be a prime in [2, {_MAX_PRIME}], got {self.p}")


@dataclass(frozen=True)
class FpVector:
    """A record of residues mod p: what CodingSet.nonzero yields and pauli.subgroup_tu reads.

    The library holds vectors as int64 rows; the benchmark's
    t11-p3-distance op (perfbench/workloads.py) still takes these records.
    """

    modulus: PrimeModulus
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) % self.modulus.p for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)


def tagged(p: int, rows: np.ndarray) -> np.ndarray:
    """A view of an int64 array of residues mod p whose dtype's metadata records p.

    StabiliserGroup.gmatrix is one, so lines.lines_from_matrix needs no modulus.
    """
    return rows.view(np.dtype(np.int64, metadata={"p": p}))


def _residue_rows(p: int, rows: np.ndarray | Sequence[Sequence[int]], dim: int) -> list[list[int]]:
    """The rows as lists of residues mod p; a row of another length than dim raises ValueError."""
    a = np.asarray(rows, dtype=np.int64)
    if a.shape == (0,):
        a = a.reshape(0, dim)
    if a.ndim != 2 or a.shape[1] != dim:
        raise ValueError(f"need rows of length {dim}, got an array of shape {a.shape}")
    return (a % p).tolist()


def _echelon(p: int, rows: list[list[int]], columns: range) -> dict[int, list[int]]:
    """The forward pass of Gauss-Jordan elimination over F_p, taking the pivot columns in the given order.

    Each column in turn takes the first of the rows (lists of residues,
    reduced in place) without a pivot that is nonzero there, and clears it
    from the others without one. The result maps each pivot column to its
    row, in the order taken; a pivot row is zero at every pivot taken before
    its own. The pass stops once every row holds a pivot, since a later
    column would find no row, so the number of pivots is the rank.
    """
    pivots: dict[int, list[int]] = {}
    for c in columns:
        if not rows:
            break
        i = next((i for i, row in enumerate(rows) if row[c]), None)
        if i is None:
            continue
        top = rows.pop(i)
        inv = pow(top[c], -1, p)
        for row in rows:
            f = row[c] * inv % p
            if f:
                row[:] = [(a - f * b) % p for a, b in zip(row, top)]
        pivots[c] = top
    return pivots


def _gauss_jordan(p: int, rows: list[list[int]], columns: range) -> dict[int, list[int]]:
    """_echelon, then each pivot row, last taken first, scaled to 1 at its pivot and cleared from the rows above it.

    Afterwards every pivot row is 1 at its own pivot and 0 at every other;
    the rows above change only at that pivot and at columns without one.
    """
    pivots = _echelon(p, rows, columns)
    above = list(pivots.values())
    for c, top in reversed(pivots.items()):
        above.pop()
        inv = pow(top[c], -1, p)
        if inv != 1:
            top[:] = [inv * e % p for e in top]
        for row in above:
            f = row[c]
            if f:
                row[:] = [(a - f * b) % p for a, b in zip(row, top)]
    return pivots


def rref(p: int, rows: np.ndarray | Sequence[Sequence[int]], dim: int) -> np.ndarray:
    """The RREF basis of the row space: leading 1s, zero rows dropped, as a read-only (rank, dim) int64 array.

    The pivots are taken from the first column on, so the basis rows come
    in increasing pivot order. A subspace has exactly one such basis.
    """
    basis = list(_gauss_jordan(p, _residue_rows(p, rows, dim), range(dim)).values())
    out = np.array(basis, dtype=np.int64).reshape(len(basis), dim)
    out.setflags(write=False)
    return out


def null_space(p: int, rows: np.ndarray | Sequence[Sequence[int]], dim: int) -> np.ndarray:
    """The RREF basis of {x in F_p^dim : r·x = 0 for every row r}, as a read-only int64 array.

    The elimination takes its pivot columns from the last column down, so
    pivot row i is 1 at its pivot P_i and zero past it and at every other
    pivot. Such a row sets x[P_i] = −Σ R[i][f]·x[f] over the free columns
    f < P_i, so the null space has one basis row per free column f: 1 at f,
    −R[i][f] at each pivot P_i > f, and zero elsewhere. Each row leads with
    its free column, where every other row is zero, so the rows in
    increasing f are in RREF; a subspace has exactly one RREF basis, so the
    result does not depend on how the rows were reduced. The array is
    (dim − rank, dim), one row per basis vector, entries in [0, p).
    """
    pivots = _gauss_jordan(p, _residue_rows(p, rows, dim), range(dim - 1, -1, -1))
    basis = []
    for f in range(dim):
        if f in pivots:
            continue
        v = [0] * dim
        v[f] = 1
        for c, row in pivots.items():
            v[c] = -row[f] % p
        basis.append(v)
    out = np.array(basis, dtype=np.int64).reshape(len(basis), dim)
    out.setflags(write=False)
    return out


def rank_of_vectors(p: int, vectors: np.ndarray | Sequence[Sequence[int]]) -> int:
    """Rank of a small stack of raw coefficient tuples.

    Bit-packed for p = 2, where a row is one integer and a row operation one
    XOR; otherwise the forward pass of the Gauss-Jordan elimination, which
    is all that a rank needs.
    """
    if isinstance(vectors, np.ndarray):
        vectors = vectors.tolist()
    if p == 2:
        # kept: about 2.5 times as fast as _echelon on a group's rank check (ROADMAP north star 2)
        by_high: dict[int, int] = {}
        for vec in vectors:
            x = 0
            for e in vec:
                x = (x << 1) | (e & 1)
            while x:
                h = x.bit_length()
                if h in by_high:
                    x ^= by_high[h]
                else:
                    by_high[h] = x
                    break
        return len(by_high)
    if len(vectors) == 0:
        return 0
    return len(_echelon(p, _residue_rows(p, vectors, len(vectors[0])), range(len(vectors[0]))))


def is_independent(p: int, vectors: np.ndarray | Sequence[Sequence[int]]) -> bool:
    """True iff the raw coefficient tuples are linearly independent over F_p."""
    return rank_of_vectors(p, vectors) == len(vectors)

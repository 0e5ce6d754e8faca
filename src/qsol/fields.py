"""Exact dense linear algebra over the prime fields F_p, 2 <= p <= 31.

Matrices and vectors are immutable; every entry is stored as its smallest
non-negative representative and all arithmetic reduces eagerly, so equality
of values is equality of objects.  All tie-breaking is lexicographic on
entry tuples, which keeps every downstream search reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

_MAX_PRIME = 31
# budget of one enumerated table, in bytes: a weight table of lines
# (lines.weight_table) above it is refused with TooLarge
MAX_TABLE_BYTES = 2 ** 28


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


@dataclass(frozen=True, order=True)
class FpVector:
    """An immutable vector of residues mod p."""

    modulus: PrimeModulus
    entries: tuple[int, ...]

    def __post_init__(self):
        p = self.modulus.p
        object.__setattr__(self, "entries", tuple(int(e) % p for e in self.entries))

    @property
    def p(self) -> int:
        return self.modulus.p

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __iter__(self):
        return iter(self.entries)

    def __add__(self, other: "FpVector") -> "FpVector":
        self._check(other)
        p = self.p
        return FpVector(self.modulus, tuple((a + b) % p for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "FpVector") -> "FpVector":
        self._check(other)
        p = self.p
        return FpVector(self.modulus, tuple((a - b) % p for a, b in zip(self.entries, other.entries)))

    def scale(self, c: int) -> "FpVector":
        p = self.p
        return FpVector(self.modulus, tuple((c * a) % p for a in self.entries))

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _check(self, other: "FpVector") -> None:
        if self.modulus != other.modulus or len(self) != len(other):
            raise ValueError("vector shape or modulus mismatch")


@dataclass(frozen=True, order=True)
class FpMatrix:
    """An immutable row-major matrix of residues mod p."""

    modulus: PrimeModulus
    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        p = self.modulus.p
        reduced = tuple(tuple(int(e) % p for e in row) for row in self.rows)
        for row in reduced:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")
        object.__setattr__(self, "rows", reduced)

    @classmethod
    def from_rows(cls, modulus: PrimeModulus, rows: Iterable[Sequence[int]], ncols: int | None = None) -> "FpMatrix":
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("ncols required for an empty matrix")
            ncols = len(rows[0])
        return cls(modulus, rows, ncols)

    @classmethod
    def identity(cls, modulus: PrimeModulus, n: int) -> "FpMatrix":
        return cls(modulus, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def transpose(self) -> "FpMatrix":
        return FpMatrix(self.modulus, tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols, self.nrows)


class RrefResult(NamedTuple):
    matrix: FpMatrix
    rank: int
    pivots: tuple[int, ...]


def _rref_rows(rows: list[list[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """In-place Gauss-Jordan elimination; returns (rows, pivot columns)."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], -1, p)
        if inv != 1:
            rows[r] = [(inv * e) % p for e in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def rref(m: FpMatrix) -> RrefResult:
    """Unique reduced row-echelon form, rank and pivot columns."""
    rows = [list(r) for r in m.rows]
    rows, pivots = _rref_rows(rows, m.ncols, m.p)
    return RrefResult(FpMatrix(m.modulus, tuple(tuple(r) for r in rows), m.ncols), len(pivots), tuple(pivots))


def row_space(m: FpMatrix) -> FpMatrix:
    """Canonical basis (RREF, zero rows dropped) of the row space."""
    red = rref(m)
    return FpMatrix(m.modulus, red.matrix.rows[: red.rank], m.ncols)


def null_space(p: int, rows: Sequence[Sequence[int]], dim: int) -> np.ndarray:
    """The RREF basis of {x in F_p^dim : r·x = 0 for every row r}, as a read-only int64 array.

    One Gauss-Jordan pass over the rows takes its pivot columns from the last
    column down. A column with no pivot left zero in every row not yet
    chosen, and each pivot column is cleared from every other row, so after
    the pass pivot row i is 1 at its pivot P_i and zero past it and at every
    other pivot. Such a row sets x[P_i] = −Σ R[i][f]·x[f] over the free
    columns f < P_i, so the null space has one basis row per free column f:
    1 at f, −R[i][f] at each pivot P_i > f, and zero elsewhere. Each row
    leads with its free column, where every other row is zero, so the rows
    in increasing f are in RREF; a subspace has exactly one RREF basis, so
    the result does not depend on how the rows were reduced. The array is
    (dim − rank, dim), one row per basis vector, entries in [0, p).
    """
    unused = [[e % p for e in row] for row in rows]
    if any(len(row) != dim for row in unused):
        raise ValueError(f"rows must have length {dim}")
    pivots: dict[int, list[int]] = {}
    for c in range(dim - 1, -1, -1):
        i = next((i for i, row in enumerate(unused) if row[c]), None)
        if i is None:
            continue
        top = unused.pop(i)
        inv = pow(top[c], -1, p)
        if inv != 1:
            top[: c + 1] = [inv * e % p for e in top[: c + 1]]
        # top is zero past c, so only columns <= c of the other rows change
        head = top[: c + 1]
        for row in [*pivots.values(), *unused]:
            f = row[c]
            if f:
                row[: c + 1] = [(a - f * b) % p for a, b in zip(row, head)]
        pivots[c] = top
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


def kernel_basis(m: FpMatrix) -> FpMatrix:
    """Canonical (RREF) basis of the right null space, one row per basis vector."""
    return FpMatrix(m.modulus, null_space(m.p, m.rows, m.ncols).tolist(), m.ncols)


def quotient_map(vectors: Sequence[FpVector], dim: int) -> np.ndarray:
    """The map F_p^dim -> F_p^(dim - r) that projects from the span of the vectors.

    Its rows are the RREF basis of the vectors' null space (null_space): they
    vanish on the span of the vectors, r its dimension, and have rank
    dim − r, so they map F_p^dim onto F_p^(dim − r) with that span as the
    kernel. The map is returned as a read-only (dim − r, dim) int64 array of
    residues mod p.
    """
    if not vectors:
        raise ValueError("need at least one vector")
    if any(len(v) != dim for v in vectors):
        raise ValueError("vectors must have length dim")
    return null_space(vectors[0].p, [v.entries for v in vectors], dim)


def rank_of_vectors(p: int, vectors: Sequence[Sequence[int]]) -> int:
    """Rank of a small stack of raw coefficient tuples.

    Bit-packed fast path for p = 2; plain elimination otherwise.
    """
    if p == 2:
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
    rows = [[e % p for e in vec] for vec in vectors]
    if not rows:
        return 0
    _, pivots = _rref_rows(rows, len(rows[0]), p)
    return len(pivots)


def is_independent(p: int, vectors: Sequence[Sequence[int]]) -> bool:
    """True iff the raw coefficient tuples are linearly independent over F_p.

    For p = 2 this is the bit-packed rank_of_vectors. Otherwise it is
    forward elimination: unlike Gauss-Jordan it clears only the rows below
    each pivot, about half the row operations on a wide stack such as a
    generator matrix, and it stops once every vector has a pivot.
    """
    if p == 2:
        return rank_of_vectors(2, vectors) == len(vectors)
    rows = [[e % p for e in vec] for vec in vectors]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        if rank == len(rows):
            break
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        inv = pow(top[c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    return rank == len(rows)

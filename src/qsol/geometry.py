"""Points, lines and subspaces of PG(m, p).

A point is the canonical representative of a one-dimensional subspace
(first nonzero coordinate scaled to 1); a rank-r subspace is stored as its
unique RREF basis, so equality of subspaces is equality of values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

from . import fields
from .errors import DimensionMismatch
from .fields import FpMatrix, FpVector, PrimeModulus


@dataclass(frozen=True, order=True)
class ProjPoint:
    """A point of PG(m, p): a normalized nonzero vector of F_p^{m+1}."""

    modulus: PrimeModulus
    coords: tuple[int, ...]

    def __post_init__(self):
        p = self.modulus.p
        object.__setattr__(self, "coords", self.normalise(p, tuple(int(c) % p for c in self.coords)))

    @staticmethod
    def normalise(p: int, coords: tuple[int, ...]) -> tuple[int, ...]:
        """Scale reduced coordinates so that the first nonzero one is 1."""
        lead = next((c for c in coords if c), None)
        if lead is None:
            raise ValueError("zero vector does not define a projective point")
        if lead == 1:
            return coords
        inv = pow(lead, -1, p)
        return tuple((inv * c) % p for c in coords)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def ambient_dim(self) -> int:
        """Projective dimension m of the ambient PG(m, p)."""
        return len(self.coords) - 1

    def vector(self) -> FpVector:
        return FpVector(self.modulus, self.coords)


def _canonical_basis(modulus: PrimeModulus, rows: Iterable[Sequence[int]], ncols: int) -> FpMatrix:
    red = fields.rref(FpMatrix.from_rows(modulus, [tuple(r) for r in rows], ncols))
    return FpMatrix(modulus, red.matrix.rows[: red.rank], ncols)


@dataclass(frozen=True, order=True)
class ProjSubspace:
    """A projective subspace, stored as the RREF basis of its vector span."""

    modulus: PrimeModulus
    basis: FpMatrix

    @classmethod
    def from_rows(cls, modulus: PrimeModulus, rows: Iterable[Sequence[int]], ncols: int) -> "ProjSubspace":
        return cls(modulus, _canonical_basis(modulus, rows, ncols))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def rank(self) -> int:
        return self.basis.nrows

    @property
    def ambient_dim(self) -> int:
        return self.basis.ncols - 1


@dataclass(frozen=True, order=True)
class ProjLine:
    """A line of PG(m, p): a rank-2 subspace in canonical RREF form."""

    modulus: PrimeModulus
    basis: FpMatrix

    def __post_init__(self):
        if self.basis.nrows != 2:
            raise ValueError("line basis must have exactly 2 rows")

    @classmethod
    def from_rows(cls, modulus: PrimeModulus, rows: Iterable[Sequence[int]], ncols: int) -> "ProjLine":
        basis = _canonical_basis(modulus, rows, ncols)
        if basis.nrows != 2:
            raise ValueError("rows do not span a line")
        return cls(modulus, basis)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def ambient_dim(self) -> int:
        return self.basis.ncols - 1


SubspaceLike = Union[ProjPoint, ProjLine, ProjSubspace]


def _basis_rows(obj: SubspaceLike) -> tuple[tuple[int, ...], ...]:
    if isinstance(obj, ProjPoint):
        return (obj.coords,)
    return obj.basis.rows


def points_of(s: ProjSubspace | ProjLine) -> list[ProjPoint]:
    """All (p^r - 1)/(p - 1) points of a subspace, lexicographically sorted."""
    basis = s.basis
    p = basis.p
    seen = set()
    out = []
    for coeffs in itertools.product(range(p), repeat=basis.nrows):
        if not any(coeffs):
            continue
        v = [0] * basis.ncols
        for c, row in zip(coeffs, basis.rows):
            if c:
                v = [(a + c * b) % p for a, b in zip(v, row)]
        pt = ProjPoint(basis.modulus, tuple(v))
        if pt.coords not in seen:
            seen.add(pt.coords)
            out.append(pt)
    out.sort()
    return out


def span(objs: Sequence[SubspaceLike]) -> ProjSubspace:
    """Smallest subspace containing every input object."""
    if not objs:
        raise ValueError("span of nothing is undefined")
    modulus = objs[0].modulus
    rows: list[tuple[int, ...]] = []
    for o in objs:
        rows.extend(_basis_rows(o))
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch("objects live in different ambient spaces")
    return ProjSubspace.from_rows(modulus, rows, ncols)


def iter_rref_bases(ncols: int, r: int, p: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All rank-r RREF matrices with ncols columns, as raw row tuples.

    One per r-dimensional subspace of F_p^ncols; no hashing or dedup needed.
    """
    for pivots in itertools.combinations(range(ncols), r):
        free_positions = [
            (i, c)
            for i in range(r)
            for c in range(pivots[i] + 1, ncols)
            if c not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free_positions)):
            rows = [[0] * ncols for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            for (i, c), v in zip(free_positions, values):
                rows[i][c] = v
            yield tuple(tuple(row) for row in rows)


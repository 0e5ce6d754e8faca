"""Quantum sets of lines and the dependent-point distance.

The i-th line of the set is spanned by columns i and i+n of a generator
matrix G; projecting the set from a pair of sign vectors produces the line
set of the corresponding subgroup, bit for bit, because both sides use the
same quotient map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

from . import fields, geometry
from .errors import CollapsedImage, DegenerateLine, UnsupportedModulus
from .fields import FpMatrix, FpVector, PrimeModulus
from .geometry import ProjLine, ProjPoint


class AtLeast(NamedTuple):
    """Search exhausted the limit: the true value is >= bound."""

    bound: int


DependentSetSize = Union[int, AtLeast]


def distance_value(d: DependentSetSize) -> int:
    """Numeric lower bound carried by a search result."""
    return d.bound if isinstance(d, AtLeast) else d


def min_distance_result(results: Sequence[DependentSetSize]) -> DependentSetSize:
    """The least of the values the results stand for.

    An exact value w is the answer when no AtLeast bound lies below it;
    otherwise only the least bound is known.
    """
    exact = min((r for r in results if not isinstance(r, AtLeast)), default=None)
    bound = min((r.bound for r in results if isinstance(r, AtLeast)), default=None)
    if exact is not None and (bound is None or exact <= bound):
        return exact
    return AtLeast(bound)


@dataclass(frozen=True)
class QuantumLineSet:
    """An ordered list of n lines of PG(m, p)."""

    modulus: PrimeModulus
    lines: tuple[ProjLine, ...]

    def __post_init__(self):
        dims = {ln.ambient_dim for ln in self.lines}
        if len(dims) > 1:
            raise ValueError("lines live in different ambient spaces")

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def n(self) -> int:
        return len(self.lines)

    @property
    def ambient_dim(self) -> int:
        if not self.lines:
            raise ValueError("empty line set has no ambient dimension")
        return self.lines[0].ambient_dim


def lines_from_matrix(g: FpMatrix, n: int, k: int) -> QuantumLineSet:
    """Line i = span of columns i and i+n of the (n-k) x 2n matrix G."""
    if g.nrows != n - k or g.ncols != 2 * n:
        raise ValueError(f"expected a {n - k} x {2 * n} matrix")
    p = g.p
    lines = []
    for i in range(n):
        c1 = tuple(row[i] for row in g.rows)
        c2 = tuple(row[i + n] for row in g.rows)
        if fields.rank_of_vectors(p, [c1, c2]) != 2:
            raise DegenerateLine(f"columns {i} and {i + n} are dependent")
        lines.append(ProjLine.from_rows(g.modulus, [c1, c2], n - k))
    return QuantumLineSet(g.modulus, tuple(lines))


def matrix_from_lines(x: QuantumLineSet) -> FpMatrix:
    """Generator matrix whose column pairs (i, i+n) are the RREF line bases."""
    m = x.ambient_dim + 1
    n = x.n
    cols = [None] * (2 * n)
    for i, ln in enumerate(x.lines):
        cols[i] = ln.basis.rows[0]
        cols[i + n] = ln.basis.rows[1]
    rows = tuple(tuple(col[r] for col in cols) for r in range(m))
    return FpMatrix(x.modulus, rows, 2 * n)


def incident_points(x: QuantumLineSet) -> list[ProjPoint]:
    """Deduplicated, sorted union of the points of all lines."""
    seen = {}
    for ln in x.lines:
        for pt in geometry.points_of(ln):
            seen[pt.coords] = pt
    return sorted(seen.values())


def validate_even_skew(x: QuantumLineSet) -> bool:
    """Check that every co-dimension-2 subspace is skew to evenly many lines.

    Only meaningful over F_2; the equivalent characterisation fails for
    odd primes.  A co-dimension-2 subspace is encoded by a rank-2 matrix
    of constraints; a line is skew to it iff the constraints restrict to
    an invertible 2x2 map on the line.
    """
    if x.p != 2:
        raise UnsupportedModulus("even-skew characterisation requires p = 2")
    m = x.ambient_dim
    if m < 1:
        return True

    def pack(row):
        v = 0
        for e in row:
            v = (v << 1) | (e & 1)
        return v

    line_bits = [(pack(ln.basis.rows[0]), pack(ln.basis.rows[1])) for ln in x.lines]
    for rows in geometry.iter_rref_bases(m + 1, 2, 2):
        b1, b2 = pack(rows[0]), pack(rows[1])
        skew = 0
        for l1, l2 in line_bits:
            a = bin(b1 & l1).count("1") & 1
            b = bin(b1 & l2).count("1") & 1
            c = bin(b2 & l1).count("1") & 1
            d = bin(b2 & l2).count("1") & 1
            if (a & d) ^ (b & c):
                skew += 1
        if skew & 1:
            return False
    return True


def min_dependent_set(x: QuantumLineSet, limit: int) -> DependentSetSize:
    """Least w <= limit with a dependent choice of one point per w lines.

    Line subsets are explored in ascending size and lexicographic order;
    repeated lines in x are legitimate and force a result of 2.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    p = x.p
    pts_per_line = [[pt.coords for pt in geometry.points_of(ln)] for ln in x.lines]
    for w in range(1, limit + 1):
        if w > x.n:
            break
        for idxs in itertools.combinations(range(x.n), w):
            for choice in itertools.product(*(pts_per_line[i] for i in idxs)):
                if fields.rank_of_vectors(p, choice) < w:
                    return w
    return AtLeast(limit + 1)


def project_lines(x: QuantumLineSet, ts: Sequence[FpVector]) -> QuantumLineSet:
    """Project every line from the span of the given vectors.

    Each line's basis rows go through fields.quotient_map of the vectors,
    the same map whose rows generate the subgroup on the generator side
    (pauli.subgroup_fixing).
    """
    q = fields.quotient_map(list(ts), x.ambient_dim + 1).transpose()
    out = []
    for i, ln in enumerate(x.lines):
        image = ln.basis @ q
        if fields.rank_of_vectors(x.p, image.rows) < 2:
            raise CollapsedImage(f"line {i} meets the projection centre", index=i)
        out.append(ProjLine.from_rows(x.modulus, image.rows, image.ncols))
    return QuantumLineSet(x.modulus, tuple(out))

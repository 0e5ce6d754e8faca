"""Quantum sets of lines and the dependent-point distance.

The i-th line of the set is spanned by columns i and i+n of a generator
matrix G; projecting the set from a pair of sign vectors produces the line
set of the corresponding subgroup, bit for bit, because both sides use the
same quotient map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import fields, geometry
from .errors import CollapsedImage, DegenerateLine, TooLarge, UnsupportedModulus
from .fields import FpMatrix, FpVector, PrimeModulus
from .geometry import ProjLine


class AtLeast(NamedTuple):
    """Search exhausted the limit: the true value is >= bound."""

    bound: int


DependentSetSize = Union[int, AtLeast]

# the weight-table entry of every vector outside X_w (see weight_table); no
# weight exceeds the dimension of the ambient space, far below it
OUTSIDE = 255


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


def _line_points(x: QuantumLineSet) -> np.ndarray:
    """The sorted codes of the p+1 points of each line, one row per line."""
    return geometry.point_codes(x.p, np.array([ln.basis.rows for ln in x.lines], dtype=np.int64))


def incident_points(x: QuantumLineSet) -> np.ndarray:
    """The sorted codes of the points that lie on the lines, each once."""
    return geometry.unique(_line_points(x))


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
    """Least w <= limit with a dependent choice of one point on each of w lines.

    A minimal dependent choice puts each of its points in the span of the
    others, which lie on other lines; conversely, a point of a line L in the
    span of w-1 points of other lines makes w dependent points. So the answer
    is 1 + the least weight of a point of some line L in the weight table of
    the other lines. The tables are built one depth at a time, so no layer
    past the answer is built, and to at most n-1, since a least spanning set
    takes at most one point from each other line. A repeated line puts the
    points of its copy at weight 1, giving 2.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if x.n < 2 or limit < 2:
        return AtLeast(limit + 1)
    p, m = x.p, x.ambient_dim + 1
    points = _line_points(x)
    for depth in range(1, min(limit, x.n)):
        for i in range(x.n):
            table = weight_table(p, m, np.delete(points, i, axis=0).ravel(), depth)
            if (table[points[i]] != OUTSIDE).any():
                return depth + 1
    return AtLeast(limit + 1)


def weight_table(p: int, m: int, points: np.ndarray, top: int) -> np.ndarray:
    """X_top of the given points as a weight table over F_p^m, built layer by layer.

    points holds the codes of the points (see geometry.vector_codes), which
    index the table. A vector's entry is its weight, the least number of the
    points whose span holds it, up to top: the zero vector is the span of no
    points and holds 0, and a vector outside X_top holds OUTSIDE. Layer w
    adds the vectors of every line joining a vector new to layer w-1 to one
    of the points, starting from the zero vector; a line from a vector of
    lower weight lies in X_{w-1} already. The table takes one byte per
    vector and is refused above fields.MAX_TABLE_BYTES.
    """
    entries = p ** m
    if entries > fields.MAX_TABLE_BYTES:
        raise TooLarge(
            f"a weight table of {entries} entries needs about {entries / 2 ** 20:.1f} MiB, "
            f"over the {fields.MAX_TABLE_BYTES / 2 ** 20:.0f} MiB budget"
        )
    table = np.full(entries, OUTSIDE, dtype=np.uint8)
    table[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    for w in range(1, top + 1):
        reached = line_codes(p, m, frontier, points).ravel()
        table[reached[table[reached] == OUTSIDE]] = w
        frontier = np.flatnonzero(table == w)
    return table


def line_codes(p: int, m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The codes of a_i + c·b_j for c = 1..p-1, as an array indexed [c-1, i, j].

    a and b hold codes of vectors of F_p^m. For p = 2 the code of a sum is
    the XOR of the codes.
    """
    if p == 2:
        return (a[:, None] ^ b)[None]
    codes = np.zeros((p - 1, len(a), len(b)), dtype=np.int64)
    # digit by digit, most significant first, and scalar by scalar, so temporaries stay (len(a), len(b))
    for a_digit, b_digit in zip(np.unravel_index(a, (p,) * m), np.unravel_index(b, (p,) * m)):
        for c in range(1, p):
            codes[c - 1] = codes[c - 1] * p + (a_digit[:, None] + c * b_digit) % p
    return codes


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

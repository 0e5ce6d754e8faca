"""Quantum sets of lines and the dependent-point distance.

A line is held as the sorted codes of its p + 1 points (see geometry), and
a line set as one array of them, one row per line. The i-th line of the set
is spanned by columns i and i+n of a generator matrix G; projecting the set
from a pair of sign vectors maps every point through the quotient map that
also builds the subgroup's generators, so the result equals the line set of
that subgroup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import fields, geometry, pauli
from .errors import CollapsedImage, DegenerateLine, UnsupportedModulus
from .fields import PrimeModulus


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


@dataclass(frozen=True, eq=False)
class QuantumLineSet:
    """An ordered list of n lines of PG(dim - 1, p), each held as the sorted codes of its p + 1 points.

    points is a read-only (n, p + 1) int64 array, one row per line (see
    lines_spanned_by): the increasing codes of p + 1 points. Two line sets
    are equal when their moduli, dimensions and point arrays are. The
    constructor checks the rows; lines_spanned_by and project_lines build
    their line sets by fields._derived, without the checks.
    """

    modulus: PrimeModulus
    dim: int
    points: np.ndarray

    def __post_init__(self):
        p, points = self.p, np.array(self.points, dtype=np.int64)
        if points.ndim != 2 or points.shape[1] != p + 1:
            raise ValueError(f"need {p + 1} point codes per line, got an array of shape {points.shape}")
        own = geometry.point_code(p, geometry.digits(p, self.dim, points)) == points
        if not (own.all() and (np.diff(points, prepend=0) > 0).all()):
            raise ValueError(f"a line needs the increasing codes of {p + 1} points of PG({self.dim - 1}, {p})")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)

    def __eq__(self, other):
        if not isinstance(other, QuantumLineSet):
            return NotImplemented
        return (self.modulus, self.dim) == (other.modulus, other.dim) and np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash((self.modulus, self.dim, self.points.shape, self.points.tobytes()))

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def n(self) -> int:
        return len(self.points)


def lines_spanned_by(modulus: PrimeModulus, a: np.ndarray, b: np.ndarray) -> QuantumLineSet:
    """Line i = span of a_i and b_i, two (n, m) stacks of vectors of F_p^m.

    Its points are b_i and a_i + c·b_i for c = 0..p-1. They are distinct
    points when a_i and b_i are independent; otherwise one of them is the
    zero vector, and DegenerateLine names the first such line as the
    columns i and i+n of the generator matrix (a^T | b^T). Past that check
    each row holds p + 1 distinct normalised codes, sorted here, so the line
    set is built without the constructor's checks (fields._derived).
    """
    p = modulus.p
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    n, m = a.shape
    vectors = np.concatenate([b[:, None], a[:, None] + np.arange(p)[:, None] * b[:, None]], axis=1)
    codes = geometry.point_code(p, vectors)
    degenerate = np.flatnonzero((codes == 0).any(axis=1))
    if len(degenerate):
        i = int(degenerate[0])
        raise DegenerateLine(f"columns {i} and {i + n} are dependent")
    return fields._derived(QuantumLineSet, modulus, m, np.sort(codes, axis=1))


def lines_from_matrix(g: np.ndarray, n: int, k: int) -> QuantumLineSet:
    """Line i = span of columns i and i+n of the (n-k) x 2n matrix G, an int64 array that records p (fields.tagged)."""
    if g.shape != (n - k, 2 * n):
        raise ValueError(f"expected a {n - k} x {2 * n} matrix")
    p = (g.dtype.metadata or {}).get("p")
    if p is None:
        raise ValueError("the matrix does not record its modulus (see fields.tagged)")
    return lines_spanned_by(PrimeModulus(p), g[:, :n].T, g[:, n:].T)


def matrix_from_lines(x: QuantumLineSet) -> np.ndarray:
    """Generator matrix whose column pairs (i, i+n) are the RREF bases of the lines.

    The RREF basis of a line is its two least codes, the larger first: the
    least is its one point that is 0 at the earlier pivot, the next its one
    point that is 0 at the later. The matrix is a read-only (m, 2n) int64
    array that records p (fields.tagged).
    """
    bases = geometry.digits(x.p, x.dim, x.points[:, [1, 0]])
    g = np.hstack([bases[:, 0].T, bases[:, 1].T])
    g.setflags(write=False)
    return fields.tagged(x.p, g)


def incident_points(x: QuantumLineSet) -> np.ndarray:
    """The sorted codes of the points that lie on the lines, each once."""
    return geometry.unique(x.points)


def validate_even_skew(x: QuantumLineSet) -> bool:
    """Check that every co-dimension-2 subspace is skew to evenly many lines.

    Only meaningful over F_2; the equivalent characterisation fails for
    odd primes. The subspace ker(f, g) meets the line span(a, b) exactly
    when the determinant of [[f·a, f·b], [g·a, g·b]], which is (a∧b)(f, g),
    vanishes. Over F_2 a skew line adds 1, so the count mod 2 is
    (Σ_i a_i∧b_i)(f, g), and it vanishes for every f, g exactly when
    Aᵀ·B − Bᵀ·A = 0 mod 2, with the lines' a_i and b_i as the rows of A and
    B: the generator rows (Aᵀ | Bᵀ) pairwise commute. Any two points of a
    line serve, since over F_2 a change of basis has determinant 1; over
    F_p it scales a∧b by its determinant, which is why the test needs p = 2.
    """
    if x.p != 2:
        raise UnsupportedModulus("even-skew characterisation requires p = 2")
    a, b = geometry.digits(2, x.dim, x.points[:, :2]).transpose(1, 2, 0)
    return pauli.forms_vanish(2, a, b)


def min_dependent_set(x: QuantumLineSet, limit: int) -> DependentSetSize:
    """Least w <= limit with a dependent choice of one point on each of w lines.

    A minimal dependent choice puts each of its points in the span of the
    others, which lie on other lines; conversely, a point of a line L in the
    span of w-1 points of other lines makes w dependent points. So the answer
    is 1 + the least weight of a point of some line L in the weight table of
    the other lines. The tables are built one depth at a time, so no layer
    past the answer is built, and to at most n-1, since a least spanning set
    takes at most one point from each other line. At depth 1 the table of
    the other lines holds just their points, so the answer is 2 exactly when
    some point lies on two lines (a repeated line shares all of them), and
    tables are built only from depth 2.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if x.n < 2 or limit < 2:
        return AtLeast(limit + 1)
    codes = x.points.ravel().tolist()
    if len(set(codes)) < len(codes):
        return 2
    p, m, points = x.p, x.dim, x.points
    for depth in range(2, min(limit, x.n)):
        for i in range(x.n):
            table = weight_table(p, m, np.delete(points, i, axis=0).ravel(), depth)
            if (table[points[i]] != OUTSIDE).any():
                return depth + 1
    return AtLeast(limit + 1)


def weight_table(p: int, m: int, points: np.ndarray, top: int) -> np.ndarray:
    """X_top of the given points as a weight table over F_p^m, built layer by layer.

    points holds the codes of the points (see geometry.point_code), which
    index the table. A vector's entry is its weight, the least number of the
    points whose span holds it, up to top: the zero vector is the span of no
    points and holds 0, and a vector outside X_top holds OUTSIDE. Layer w
    adds the vectors of every line joining a vector new to layer w-1 to one
    of the points, starting from the zero vector; a line from a vector of
    lower weight lies in X_{w-1} already. The table takes one byte per
    vector and is refused above fields.MAX_BYTES. Layer w reads its frontier,
    the entries w-1, off the table in fields.blocks (it writes only w), and
    takes each block's frontier in fields.blocks, writing w where it reaches first.
    """
    entries = p ** m
    fields.check_bytes(f"a weight table of {entries} entries", entries)
    table = np.full(entries, OUTSIDE, dtype=np.uint8)
    table[0] = 0
    for w in range(1, top + 1):
        for part in fields.blocks(entries, 1):
            frontier = part.start + np.flatnonzero(table[part] == w - 1)
            for rows in fields.blocks(len(frontier), (p - 1) * len(points)):
                reached = geometry.line_codes(p, m, frontier[rows], points).ravel()
                table[reached[table[reached] == OUTSIDE]] = w
    return table


def project_lines(x: QuantumLineSet, centre: np.ndarray | Sequence[Sequence[int]]) -> QuantumLineSet:
    """Project every line from the span of the centre's rows.

    Each point goes through the map whose rows are the null space of the
    centre (fields.null_space), the same rows that generate the subgroup
    on the generator side (pauli.subgroup_fixing); with no rows, or zero
    rows only, it is the identity. A line meets the centre exactly when one
    of its points maps to zero, and the first such line raises
    CollapsedImage; the points of every other line map to the p + 1 points
    of its image, distinct and normalised, so the projected set is built
    without the constructor's checks (fields._derived).
    """
    q = fields.null_space(x.p, centre, x.dim)
    codes = geometry.point_code(x.p, geometry.digits(x.p, x.dim, x.points) @ q.T)
    collapsed = np.flatnonzero((codes == 0).any(axis=1))
    if len(collapsed):
        i = int(collapsed[0])
        raise CollapsedImage(f"line {i} meets the projection centre", index=i)
    return fields._derived(QuantumLineSet, x.modulus, len(q), np.sort(codes, axis=1))

"""Quantum sets of lines and the dependent-point distance.

A line is held as the sorted codes of its p + 1 points (see geometry), and
a line set as one array of them, one row per line. The i-th line of the set
is spanned by columns i and i+n of a generator matrix G; projecting the set
from a pair of sign vectors maps every point through the quotient map that
also builds the subgroup's generators, so the result equals the line set of
that subgroup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Union

import numpy as np

from . import fields, geometry, pauli
from .errors import CollapsedImage, DegenerateLine, TooLarge, UnsupportedModulus
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


@dataclass(frozen=True, eq=False)
class QuantumLineSet:
    """An ordered list of n lines of PG(dim - 1, p), each held as the sorted codes of its p + 1 points.

    points is a read-only (n, p + 1) int64 array, one row per line (see
    lines_spanned_by): the increasing codes of p + 1 points. Two line sets
    are equal when their moduli, dimensions and point arrays are.
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
    columns i and i+n of the generator matrix (a^T | b^T).
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
    return QuantumLineSet(modulus, m, np.sort(codes, axis=1))


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

    A line is spanned by any two of its points; the RREF basis of their span
    is the line's one canonical basis. The matrix is a read-only (m, 2n)
    int64 array that records p (fields.tagged).
    """
    pairs = geometry.digits(x.p, x.dim, x.points[:, :2])
    bases = np.array([fields.rref(x.p, pair, x.dim) for pair in pairs]).reshape(x.n, 2, x.dim)
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


def project_lines(x: QuantumLineSet, centre: np.ndarray | Sequence[Sequence[int]]) -> QuantumLineSet:
    """Project every line from the span of the centre's rows.

    Each point goes through the map whose rows are the null space of the
    centre (fields.null_space), the same rows that generate the subgroup
    on the generator side (pauli.subgroup_fixing); with no rows, or zero
    rows only, it is the identity. A line meets the centre exactly when one
    of its points maps to zero, and the first such line raises
    CollapsedImage; the points of every other line map to the p + 1 points
    of its image.
    """
    q = fields.null_space(x.p, centre, x.dim)
    codes = geometry.point_code(x.p, geometry.digits(x.p, x.dim, x.points) @ q.T)
    collapsed = np.flatnonzero((codes == 0).any(axis=1))
    if len(collapsed):
        i = int(collapsed[0])
        raise CollapsedImage(f"line {i} meets the projection centre", index=i)
    return QuantumLineSet(x.modulus, len(q), np.sort(codes, axis=1))

"""Code construction: candidate points, compatibility graph, clique search.

Implements the full graph-to-code recipe: build the line set of a labelled
graph, collect candidate sign points, join compatible pairs into a graph,
take a maximum clique as the coding set, and read the distance bound off
the same excluded-point layers that build the graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import fields, geometry, lines as lines_mod, pauli
from .errors import (
    CollapsedImage,
    DimensionMismatch,
    IsolatedVertex,
    NoClique,
    TimeLimitExceeded,
)
from .fields import PrimeModulus
from .lines import OUTSIDE, AtLeast, DependentSetSize, QuantumLineSet

# X_w as a weight table over the codes of the ambient vectors (see
# lines.weight_table); its guard against fields.MAX_BYTES fires where the one
# table is built, so it covers the candidates, Γ and the distance bound
Weights = np.ndarray


@dataclass(frozen=True, eq=False)
class LabelledGraph:
    """A simple graph with F_p edge labels, as a read-only symmetric (n, n) int64 adjacency array."""

    modulus: PrimeModulus
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=np.int64) % self.modulus.p
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency matrix must be symmetric")
        if a.diagonal().any():
            raise ValueError("adjacency matrix must have zero diagonal")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @classmethod
    def from_edges(cls, modulus: PrimeModulus, n: int, edges: Sequence[tuple[int, int, int]]) -> "LabelledGraph":
        """The graph with the given (i, j, label) edges, labels taken mod p.

        A label that is 0 mod p would leave i and j unjoined, and a pair
        given twice (in either order) would keep only its last label; both
        raise ValueError.
        """
        rows = [[0] * n for _ in range(n)]
        for i, j, label in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            if label % modulus.p == 0:
                raise ValueError(f"edge ({i}, {j}) has label {label}, which is 0 mod {modulus.p}")
            if rows[i][j]:
                raise ValueError(f"edge ({i}, {j}) is given twice")
            rows[i][j] = rows[j][i] = label % modulus.p
        return cls(modulus, np.array(rows, dtype=np.int64).reshape(n, n))

    @classmethod
    def cycle(cls, modulus: PrimeModulus, n: int) -> "LabelledGraph":
        """The n-cycle with every edge labelled 1; n < 3 raises ValueError."""
        if n < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, got {n}")
        return cls.from_edges(modulus, n, [(i, (i + 1) % n, 1) for i in range(n)])

    @property
    def n(self) -> int:
        return len(self.adjacency)


@dataclass(frozen=True, eq=False)
class CompatibilityGraph:
    """Γ: the codes of candidate points, and a read-only symmetric (n, n) bool adjacency array.

    Entry (i, j) is set exactly when vertices i and j are joined. An array
    of another shape than (n, n) for n vertices, a loop (a set diagonal
    entry) and an array that is not equal to its transpose are refused; the
    last names the first pair joined one way only. The array is copied.
    gamma_graph builds Γ by fields._derived, without the checks or the copy.
    """

    vertices: tuple[int, ...]
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.array(self.adjacency, dtype=bool)
        n = len(self.vertices)
        if a.shape != (n, n):
            raise ValueError(f"need an ({n}, {n}) adjacency array for {n} vertices, got shape {a.shape}")
        loops = np.flatnonzero(a.diagonal())
        if len(loops):
            raise ValueError(f"row {loops[0]} must join vertex {loops[0]} only to other vertices")
        one_way = a > a.T
        if one_way.any():
            i, j = divmod(int(one_way.argmax()), n)
            raise ValueError(f"row {i} joins vertex {j}, but row {j} does not join vertex {i}")
        a.setflags(write=False)
        object.__setattr__(self, "adjacency", a)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.adjacency)) // 2


@dataclass(frozen=True, eq=False)
class CodingSet:
    """The sign-vector set T, as a read-only (|T|, m) int64 array of residues mod p, one row per vector.

    An array that is not 2-D, one without a zero row and one with two rows
    equal mod p are refused.
    """

    modulus: PrimeModulus
    vectors: np.ndarray

    def __post_init__(self):
        a = np.array(self.vectors, dtype=np.int64) % self.modulus.p
        if a.ndim != 2:
            raise ValueError(f"need a coding set as an (|T|, m) array, got shape {a.shape}")
        if a.any(axis=1).all():
            raise ValueError("coding set must contain the zero vector")
        # a set of rows, where np.unique would import numpy.ma (see geometry.unique)
        if len(set(map(tuple, a.tolist()))) != len(a):
            raise ValueError("coding set vectors must be distinct")
        a.setflags(write=False)
        object.__setattr__(self, "vectors", a)

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def length(self) -> int:
        return self.vectors.shape[1]

    def nonzero(self) -> list[fields.FpVector]:
        """The nonzero rows as FpVector records, in row order; the benchmark reads them."""
        return [fields.FpVector(self.modulus, row) for row in self.vectors.tolist() if any(row)]


def graph_to_generators(g: LabelledGraph) -> pauli.StabiliserGroup:
    """Stabiliser group with generator matrix (I_n | A) and every phase 0.

    A is symmetric with zero diagonal, so the rows commute, and I_n makes
    them independent: the group is built without the constructor's checks
    (fields._derived).
    """
    isolated = np.flatnonzero(~g.adjacency.any(axis=1))
    if len(isolated):
        raise IsolatedVertex(f"vertex {isolated[0]} has no incident edge")
    rows = np.hstack([np.zeros((g.n, 1), dtype=np.int64), np.eye(g.n, dtype=np.int64), g.adjacency])
    return fields._derived(pauli.StabiliserGroup, g.modulus, g.n, rows)


def excluded_points(x: QuantumLineSet, d: int) -> Weights:
    """X_{d-1}: the points in the span of d-1 or fewer incident points of x.

    Returned as a lines.weight_table, whose entry at each vector of a point
    is its weight: the least number of incident points whose span holds it.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    return lines_mod.weight_table(x.p, x.dim, lines_mod.incident_points(x), d - 1)


def candidate_vertices(
    x: QuantumLineSet,
    excluded: Weights,
    restriction: np.ndarray | None = None,
) -> np.ndarray:
    """The sorted codes of the points not in the excluded set X_{d-1} of x (see excluded_points).

    With a restriction, the (r, m) constraint rows of io.parse_restriction,
    only the points of their null space are considered (the subspace trick
    that keeps the compatibility graph small); a pool that would pass
    fields.MAX_BYTES at 32 bytes a point, above the traced peak of its
    enumeration and filter (at most 24 for p = 2 to 31), is refused with
    TooLarge before it is enumerated. Without one, the points are read off
    the table one range [p^j, 2·p^j) of normalised codes (leading 1 j
    places from the end) at a time.
    """
    p, m = x.p, x.dim
    if restriction is None:
        ranges = [p ** j + np.flatnonzero(excluded[p ** j : 2 * p ** j] == OUTSIDE) for j in range(m)]
        return np.concatenate([np.zeros(0, dtype=np.int64), *ranges])
    if restriction.shape[1] != m:
        raise DimensionMismatch(
            f"the restriction lives in PG({restriction.shape[1] - 1}, p), the lines in PG({m - 1}, p)"
        )
    basis = fields.null_space(p, restriction, m)
    count = (p ** len(basis) - 1) // (p - 1)
    fields.check_bytes(f"a pool of {count} points", 32 * count)
    pool = geometry.points_of(p, basis)
    return pool[excluded[pool] == OUTSIDE]


def gamma_graph(
    x: QuantumLineSet,
    vertices: Sequence[int] | np.ndarray,
    excluded: Weights,
) -> CompatibilityGraph:
    """Join u, v iff no point of the line uv lies in the excluded set X_{d-1}.

    This is the codeword-stabilised condition that u - v is not the
    classical image of an error of weight d-1 or less. For d <= 3 it is the
    same as asking that u, v and any d-1 or fewer incident points be
    independent.

    Γ's vertices are the given codes, those of candidate_vertices, in the
    given order. A code outside [1, p^m), no nonzero vector of the lines'
    space, or of a point of X_{d-1} raises ValueError. The table is read at
    the codes of u + c·v, c = 1..p-1 (geometry.line_codes). For v = u the sum
    u + (p-1)·u is the zero vector, whose entry 0 takes the diagonal out of
    every row. The rows are taken in fields.blocks and written straight into
    the (n, n) bool adjacency array, which is refused with TooLarge, before
    it is allocated, when its n² bytes exceed fields.MAX_BYTES. The join
    rule is symmetric in u and v and the diagonal is empty, so Γ is built
    without the constructor's checks (fields._derived) and holds the array
    itself, with no copy.
    """
    p, m = x.p, x.dim
    codes = np.asarray(vertices, dtype=np.int64)
    n = len(codes)
    fields.check_bytes(f"a compatibility graph on {n} vertices", n * n)
    if ((codes < 1) | (codes >= p ** m)).any() or (excluded[codes] != OUTSIDE).any():
        raise ValueError(f"a vertex of Γ must be the code of a point of PG({m - 1}, {p}) outside X_{{d-1}}")
    adjacency = np.empty((n, n), dtype=bool)
    for block in fields.blocks(n, n * m):
        (excluded[geometry.line_codes(p, m, codes[block], codes)] == OUTSIDE).all(axis=0, out=adjacency[block])
    return fields._derived(CompatibilityGraph, tuple(codes.tolist()), adjacency)


def automorphisms(g: LabelledGraph) -> list[tuple[int, ...]]:
    """A strong generating set of the label-preserving permutations of g's vertices.

    Each generator is a tuple s with s[v] the image of vertex v, and
    A[s[u]][s[v]] = A[u][v] for every pair. The base is a breadth-first
    order b_0, b_1, ... of the vertices. From the last level up, level i
    looks for one permutation fixing b_0..b_{i-1} for each image of b_i
    that the generators found so far do not reach, so each level's
    generators and those below it generate the stabiliser of b_0..b_{i-1}.
    A completion is built by backtracking along the same order: a vertex
    with a parent in the order maps to a neighbour of its parent's image,
    and every choice keeps the labels to the vertices already mapped. The
    group itself is never enumerated (K_12 has 12! automorphisms).
    """
    adj = g.adjacency.tolist()
    n = len(adj)
    # breadth first from each vertex not yet reached; a component's first vertex has no parent
    order: list[int] = []
    parent: list[int | None] = [None] * n
    scanned = 0
    for root in range(n):
        if root not in order:
            order.append(root)
        while scanned < len(order):
            u = order[scanned]
            scanned += 1
            for v, label in enumerate(adj[u]):
                if label and v not in order:
                    order.append(v)
                    parent[v] = u
    # a permutation keeps each vertex's multiset of labels, and so the
    # multiset of (label, multiset) over its neighbours
    labels = [sorted(row) for row in adj]
    kind = [(labels[v], sorted((a, labels[u]) for u, a in enumerate(adj[v]) if a)) for v in range(n)]
    image = [-1] * n
    used = [False] * n

    def fits(t: int, w: int) -> bool:
        """True iff order[t] may map to w, given the images of order[:t]."""
        v = order[t]
        if used[w] or kind[w] != kind[v]:
            return False
        row_v, row_w = adj[v], adj[w]
        return all(row_w[image[u]] == row_v[u] for u in order[:t])

    def complete(t: int) -> bool:
        if t == n:
            return True
        v = order[t]
        pool = range(n) if parent[v] is None else [w for w, label in enumerate(adj[image[parent[v]]]) if label]
        for w in pool:
            if fits(t, w):
                image[v], used[w] = w, True
                if complete(t + 1):
                    return True
                image[v], used[w] = -1, False
        return False

    generators: list[tuple[int, ...]] = []
    for level in reversed(range(n)):
        base = order[level]
        for u in order[level:]:
            image[u], used[u] = -1, False
        for u in order[:level]:
            image[u], used[u] = u, True
        reached = _orbit(base, generators)
        for c in range(n):
            if c in reached or not fits(level, c):
                continue
            image[base], used[c] = c, True
            if complete(level + 1):
                generators.append(tuple(image))
                reached = _orbit(base, generators)
                for u in order[level + 1:]:
                    used[image[u]], image[u] = False, -1
            image[base], used[c] = -1, False
    return generators


def _orbit(v: int, perms: Sequence[Sequence[int]]) -> set[int]:
    """The orbit of v under the group the permutations generate."""
    orbit, todo = {v}, [v]
    for u in todo:
        for s in perms:
            if s[u] not in orbit:
                orbit.add(s[u])
                todo.append(s[u])
    return orbit


def gamma_symmetries(g: LabelledGraph, gamma: CompatibilityGraph) -> list[np.ndarray]:
    """The generators of automorphisms(g), each as an int array that permutes Γ's vertex indices.

    A label-preserving permutation s of g's vertices moves coordinate v of
    each vector to coordinate s[v]. That maps the lines of g's graph state
    onto each other, so it fixes X_{d-1} and permutes the points outside it
    and the joins between them. Γ must therefore be built from g itself
    (k = 0) over a pool the permutations keep, such as the whole space; an
    image that is not a vertex of Γ raises ValueError.
    """
    generators = automorphisms(g)
    if not generators or not gamma.vertices:
        return []
    p, n = g.modulus.p, g.n
    # coordinate s[v] of an image is coordinate v of the vertex, for every
    # generator at once; a scatter and a dict, where argsort and searchsorted
    # would map about 0.4 MiB of numpy's sorting code into every recipe run
    moved = np.empty((len(gamma.vertices), len(generators), n), dtype=np.int64)
    moved[:, np.arange(len(generators))[:, None], generators] = geometry.digits(p, n, gamma.vertices)[:, None]
    index = {code: i for i, code in enumerate(gamma.vertices)}
    try:
        return [np.array([index[code] for code in images]) for images in geometry.point_code(p, moved).T.tolist()]
    except KeyError:
        raise ValueError("a symmetry of the graph moves a vertex of Γ off Γ") from None


class Cliques(list):
    """Maximum cliques as sorted vertex tuples, with the search's node count.

    orbits is the number of orbits of the vertices under the symmetries
    that the search's root was given: the vertex count without any.
    """

    def __init__(self, cliques: list[tuple[int, ...]], nodes: int, orbits: int | None = None):
        super().__init__(cliques)
        self.nodes = nodes
        self.orbits = orbits


def find_cliques(
    g: CompatibilityGraph,
    time_limit: float | None = None,
    symmetries: Sequence[Sequence[int]] = (),
) -> Cliques:
    """Every maximum clique of the compatibility graph, as sorted vertex tuples.

    Branch and bound over integer bitset rows with a greedy-colouring bound
    (Tomita and Seki's MCQ): the candidates of each node are coloured
    greedily, and the search branches on them in reverse colour order while
    the clique so far plus the colour number can still reach the best size.
    The cut is strict, so every clique of the best size is kept.

    A class below k_min = best size - clique size can never be branched on
    (Konc and Janežič's MaxCliqueDyn), so it is built only to take its
    vertices out of the uncoloured set, and only the classes from k_min up
    are kept. The tree is MCQ's, node for node. Inside the search vertex v
    is bit n - 1 - v of non-negative masks, so each colouring step takes the
    lowest free vertex by one bit_length call and two table lookups. The
    masks come from one big-endian packbits of the adjacency array, whose
    row read as a big-endian integer holds v at bit n - 1 - v once the
    padding of the last byte is shifted out.

    symmetries are automorphisms of the graph, each a permutation s of the
    vertex indices (see gamma_symmetries), and change the root only. After
    branching on v the root drops v's whole orbit under the group they
    generate, not v alone, and skips the vertices dropped. The dropped set
    is a union of orbits, so every maximum clique has an image that holds
    the first-branched vertex of the earliest orbit it meets, and the root
    finds that image. The cliques found are closed under the symmetries at
    the end, so the result is the same sorted list. With no symmetries the
    orbits are single vertices and the tree is MCQ's; a symmetry that is not
    a permutation of the vertices raises ValueError.

    The deadline is checked only once the first descent has recorded a
    clique; TimeLimitExceeded then carries the best cliques found so far,
    each of them maximal and not closed under the symmetries, and names
    their number and size. A negative or NaN time_limit raises ValueError.
    """
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be a number of seconds >= 0, got {time_limit}")
    n = g.num_vertices
    perms = [np.asarray(s).tolist() for s in symmetries]
    if any(sorted(s) != list(range(n)) for s in perms):
        raise ValueError(f"a symmetry must be a permutation of the {n} vertices")
    full = (1 << n) - 1
    # vertex v is bit n - 1 - v, so the lowest free vertex is the highest free
    # bit, and b = free.bit_length() = n - v indexes the tables; apart[b]: every
    # vertex other than v that is not joined to it, so may share its colour
    # a row packed big-endian, read as a big-endian integer, has vertex v at
    # bit n - 1 - v once the padding of its last byte is shifted out
    packed = np.packbits(g.adjacency, axis=1)
    rows = [0] + [int.from_bytes(row.tobytes(), "big") >> (-n % 8) for row in packed[::-1]]
    bits = [0] + [1 << i for i in range(n)]
    apart = [full ^ (row | bit) for row, bit in zip(rows, bits)]
    # orbit[b]: the bits of v's orbit, v alone without symmetries
    orbit = list(bits)
    if perms:
        for v in range(n):
            if orbit[n - v] == bits[n - v]:
                members = _orbit(v, perms)
                mask = sum(bits[n - u] for u in members)
                for u in members:
                    orbit[n - u] = mask
    deadline = None if time_limit is None else time.monotonic() + time_limit
    best: list[int] = []
    best_size = 0
    nodes = 0

    def expand(clique: int, size: int, cand: int) -> None:
        nonlocal best, best_size, nodes
        nodes += 1
        if deadline is not None and best and time.monotonic() > deadline:
            raise TimeLimitExceeded(
                f"clique search timed out; best so far: {len(best)} maximal clique(s) of size {best_size}",
                best=sorted(_as_tuples(best, n)),
            )
        if not cand:
            if size > best_size:
                best, best_size = [clique], size
            elif size == best_size:
                best.append(clique)
            return
        # greedy colour classes, each an independent set, so no clique within
        # the classes up to colour k has more than k members
        k_min = best_size - size
        classes: list[int] = []
        colour, uncoloured = 0, cand
        while uncoloured:
            colour += 1
            free, cls = uncoloured, 0
            while free:
                b = free.bit_length()
                free &= apart[b]
                cls |= bits[b]
            uncoloured ^= cls
            if colour >= k_min:
                classes.append(cls)
        # branch in MCQ's order: from the last class down, each class from its
        # highest vertex, which is its lowest bit; after branching on v the root
        # drops v's orbit and an inner node v alone, and cls skips what is dropped
        drop = orbit if not size else bits
        for cls in reversed(classes):
            cls &= cand
            while cls:
                if size + colour < best_size:
                    return
                bit = cls & -cls
                b = bit.bit_length()
                expand(clique | bit, size + 1, cand & rows[b])
                cand &= ~drop[b]
                cls &= cand
            colour -= 1

    if n:
        expand(0, 0, full)
    cliques = _as_tuples(best, n)
    if perms:
        found = set(cliques)
        for clique in cliques:
            for s in perms:
                image = tuple(sorted(s[v] for v in clique))
                if image not in found:
                    found.add(image)
                    cliques.append(image)
    cliques.sort()
    return Cliques(cliques, nodes, len(set(orbit[1:])))


def _as_tuples(cliques: list[int], n: int) -> list[tuple[int, ...]]:
    """The cliques, as masks with vertex v at bit n - 1 - v, as increasing vertex tuples: bit b - 1 is vertex n - b."""
    out = []
    for mask in cliques:
        members = []
        while mask:
            b = mask.bit_length()
            members.append(n - b)
            mask ^= 1 << b - 1
        out.append(tuple(members))
    return out


def is_subspace_t(t: CodingSet) -> bool:
    """True iff the vector set is closed under addition and scaling.

    T lies in its span, which has p^rank(T) vectors, so T is a subspace
    exactly when it has that many.
    """
    return len(t.vectors) == t.p ** fields.rank_of_vectors(t.p, t.vectors)


def distance_bound(x: QuantumLineSet, t: CodingSet, limit: int) -> DependentSetSize:
    """Minimum dependent-set size over projections from all coding pairs.

    Points of w lines become dependent under projection from the span of a
    pair of T exactly when a combination of them is zero, so that d(X) <= w,
    or is a point of the span, which then lies in X_w; a pair (0, t) spans
    the point t. The bound is therefore d(X) or the least weight of a coding
    point or of a point on a line joining two, whichever is smaller, when
    that is at most limit, and AtLeast(limit + 1) otherwise; T = {0} gives
    d(X). A weight-1 point there means that a line of x meets a projection
    centre, and raises CollapsedImage.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    p, m = x.p, x.dim
    if t.length != m:
        raise DimensionMismatch(f"a coding set of length {t.length}, lines in PG({m - 1}, {p})")
    points = geometry.unique(geometry.point_code(p, t.vectors[t.vectors.any(axis=1)]))
    return _bound(x, points, limit, excluded_points(x, max(limit, 2)))


def _bound(x: QuantumLineSet, points: np.ndarray, limit: int, weights: Weights) -> DependentSetSize:
    """distance_bound's rule on the distinct codes of any number of coding points and the table X_{max(limit-1, 1)}."""
    least = _least_weight(x, points, limit, weights)
    # d(X) past least - 1 cannot lower the bound
    bound = min(least, lines_mod.distance_value(lines_mod.min_dependent_set(x, least - 1)))
    return bound if bound <= limit else AtLeast(limit + 1)


def _least_weight(x: QuantumLineSet, points: np.ndarray, limit: int, weights: Weights) -> int:
    """Least weight of one of the points or of a point on a line through two, or limit + 1 if above limit.

    points are the distinct codes of any number of points, and weights is
    the table X_{max(limit-1, 1)}.
    """
    p, m = x.p, x.dim
    i, j = np.triu_indices(len(points), 1)
    on_lines = np.concatenate([points, geometry.line_codes(p, m, points, points)[:, i, j].ravel()])
    least = int(weights[on_lines].min(initial=OUTSIDE))
    if least == 1:
        raise CollapsedImage("a coding point, or a line through two, meets a line of the set")
    if least == OUTSIDE:
        least = limit + 1
    if least > limit >= 2:
        # X_limit is one layer past the table: q lies in it iff, for some
        # incident s, a point of the line qs other than q and s lies in X_{limit-1}
        incident = lines_mod.incident_points(x)
        if (weights[geometry.line_codes(p, m, on_lines, incident)] != OUTSIDE).any():
            least = limit
    return least


def singleton_max_k(n: int, d: int) -> int:
    """Largest k allowed by the quantum Singleton bound: n - 2(d-1)."""
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    return n - 2 * (d - 1)


@dataclass(frozen=True)
class CodeReport:
    """Outcome of a recipe run, with the search statistics."""

    n: int
    k: int
    p: int
    t_size: int
    d_bound: int
    d_bound_exact: bool
    is_subspace: bool
    singleton_k: int
    cliques_found: int
    clique_size: int
    clique_nodes: int
    gamma_orbits: int
    vertices: int
    edges: int
    elapsed_ms: int
    coding_set: CodingSet = field(compare=False)
    group: pauli.StabiliserGroup = field(compare=False)
    warnings: tuple[str, ...] = ()

    @property
    def dimension(self) -> int:
        return self.t_size * self.p ** self.k

    def machine_lines(self) -> list[str]:
        lines = [
            f"n={self.n}",
            f"k={self.k}",
            f"p={self.p}",
            f"T_size={self.t_size}",
            f"K={self.dimension}",
            f"d_bound={self.d_bound}",
            f"subspace={int(self.is_subspace)}",
            f"singleton_max_k={self.singleton_k}",
            f"cliques_found={self.cliques_found}",
            f"edges={self.edges}",
            f"vertices={self.vertices}",
            f"elapsed_ms={self.elapsed_ms}",
            f"count.clique_nodes={self.clique_nodes}",
            f"count.gamma_orbits={self.gamma_orbits}",
        ]
        for w in self.warnings:
            lines.append(f"warning={w}")
        return lines

    def text_lines(self) -> list[str]:
        bound = f">= {self.d_bound}" if not self.d_bound_exact else str(self.d_bound)
        lines = [
            f"(({self.n},{self.dimension},{self.d_bound}))_{self.p} code"
            if self.p != 2
            else f"(({self.n},{self.dimension},{self.d_bound})) code",
            f"  |T| = {self.t_size}, K = |T|*p^k = {self.dimension}",
            f"  distance bound: {bound}",
            f"  T is a subspace: {'yes' if self.is_subspace else 'no'}",
            f"  Singleton bound: k <= {self.singleton_k}",
            f"  graph: {self.vertices} vertices, {self.edges} edges, "
            f"{self.cliques_found} maximum clique(s) of size {self.clique_size}, "
            f"{self.clique_nodes} search nodes",
            f"  elapsed: {self.elapsed_ms} ms",
        ]
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return lines


def run_recipe(
    g: LabelledGraph,
    d: int,
    k: int = 0,
    restriction: np.ndarray | None = None,
    time_limit: float | None = None,
) -> CodeReport:
    """Execute the full construction recipe on a labelled graph.

    Steps: generators from the graph, line set, optional projection from k
    lex-least independent candidate points, candidate vertices, the
    compatibility graph, maximum-clique search, coding set assembly and
    distance-bound verification.
    """
    start = time.monotonic()
    if d < 2:
        raise ValueError("d must be at least 2")
    n = g.n
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    warnings: list[str] = []

    group = graph_to_generators(g)
    x = lines_mod.lines_from_matrix(group.gmatrix, n, 0)

    if k > 0:
        # the centre is chosen among the candidates of the unprojected x
        base_candidates = candidate_vertices(x, excluded_points(x, d))
        centre = _lex_least_independent(g.modulus.p, n, base_candidates, k)
        x = lines_mod.project_lines(x, centre)
        group = pauli.subgroup_fixing(group, centre)

    excluded = excluded_points(x, d)
    verts = candidate_vertices(x, excluded, restriction)
    gamma = gamma_graph(x, verts, excluded)
    # the graph's symmetries act on Γ only in the unprojected coordinates and
    # on the whole pool; a restriction's stabiliser would cost more than its search
    symmetries = gamma_symmetries(g, gamma) if k == 0 and restriction is None else ()
    cliques = find_cliques(gamma, time_limit, symmetries)
    if cliques:
        chosen = cliques[0]
    else:
        # no candidate points at all: nothing beyond the additive code
        chosen = ()
        warnings.append("empty compatibility graph; T = {0}")

    p, length = g.modulus.p, n - k
    # the zero row, then c·point for each point of the clique and c = 1..p-1:
    # distinct rows, reduced mod p, so T is built without the constructor's checks
    codes = np.array([gamma.vertices[i] for i in chosen], dtype=np.int64)
    multiples = (geometry.digits(p, length, codes)[:, None] * np.arange(1, p)[:, None] % p).reshape(-1, length)
    tset = fields._derived(CodingSet, g.modulus, np.vstack([np.zeros((1, length), dtype=np.int64), multiples]))

    # distance_bound's rule for every clique size. The coding points and
    # lines lie outside X_{d-1}, so a bound below d is d(X): a stabiliser
    # element of that weight, which the candidate condition cannot see
    bound = _bound(x, codes, d, excluded)
    d_bound, exact = lines_mod.distance_value(bound), not isinstance(bound, AtLeast)
    if chosen and d_bound < d:
        warnings.append(
            f"additive code has distance {d_bound} < d; "
            f"pairs with the zero vector are certified to {d_bound} only"
        )

    elapsed_ms = int((time.monotonic() - start) * 1000)
    return CodeReport(
        n=n,
        k=k,
        p=p,
        t_size=len(tset.vectors),
        d_bound=d_bound,
        d_bound_exact=exact,
        is_subspace=is_subspace_t(tset),
        singleton_k=singleton_max_k(n, d_bound),
        cliques_found=len(cliques),
        clique_size=len(chosen),
        clique_nodes=cliques.nodes,
        gamma_orbits=cliques.orbits,
        vertices=gamma.num_vertices,
        edges=gamma.num_edges,
        elapsed_ms=elapsed_ms,
        coding_set=tset,
        group=group,
        warnings=tuple(warnings),
    )


def _lex_least_independent(p: int, m: int, codes: np.ndarray, k: int) -> np.ndarray:
    """The first k independent points of the sorted codes, as (k, m) rows.

    The codes are sorted, so their order is the lexicographic one of their vectors.
    """
    chosen: list[list[int]] = []
    for pt in geometry.digits(p, m, codes).tolist():
        if fields.rank_of_vectors(p, chosen + [pt]) == len(chosen) + 1:
            chosen.append(pt)
        if len(chosen) == k:
            return np.array(chosen, dtype=np.int64)
    raise NoClique(f"fewer than {k} independent candidate points")

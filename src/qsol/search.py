"""Code construction: candidate points, compatibility graph, clique search.

Implements the full graph-to-code recipe: build the line set of a labelled
graph, collect candidate sign points, join compatible pairs into a graph,
take a maximum clique as the coding set, and verify the distance bound by
projecting the line set from every pair of coding vectors.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

from . import fields, geometry, lines as lines_mod, pauli
from .errors import (
    CollapsedImage,
    IsolatedVertex,
    NoClique,
    TimeLimitExceeded,
    UnsupportedDistance,
)
from .fields import FpMatrix, FpVector, PrimeModulus
from .geometry import ProjPoint, ProjSubspace
from .lines import AtLeast, DependentSetSize, QuantumLineSet

MAX_EXACT_VERTICES = 200
MAX_CANDIDATE_DISTANCE = 4


@dataclass(frozen=True)
class LabelledGraph:
    """A simple graph with F_p edge labels, as a symmetric adjacency matrix."""

    modulus: PrimeModulus
    adjacency: FpMatrix

    def __post_init__(self):
        a = self.adjacency
        if a.nrows != a.ncols:
            raise ValueError("adjacency matrix must be square")
        if a != a.transpose():
            raise ValueError("adjacency matrix must be symmetric")
        if any(a.rows[i][i] for i in range(a.nrows)):
            raise ValueError("adjacency matrix must have zero diagonal")

    @classmethod
    def from_edges(cls, modulus: PrimeModulus, n: int, edges: Sequence[tuple[int, int, int]]) -> "LabelledGraph":
        rows = [[0] * n for _ in range(n)]
        for i, j, label in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"bad edge ({i}, {j})")
            rows[i][j] = rows[j][i] = label % modulus.p
        return cls(modulus, FpMatrix.from_rows(modulus, rows, n))

    @classmethod
    def cycle(cls, modulus: PrimeModulus, n: int) -> "LabelledGraph":
        return cls.from_edges(modulus, n, [(i, (i + 1) % n, 1) for i in range(n)])

    @property
    def n(self) -> int:
        return self.adjacency.nrows


@dataclass(frozen=True)
class CompatibilityGraph:
    """Vertices are candidate projective points; edges are index pairs."""

    vertices: tuple[ProjPoint, ...]
    edges: frozenset[tuple[int, int]]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbours(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in self.vertices]
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj


@dataclass(frozen=True)
class CodingSet:
    """The sign-vector set T, including the zero vector."""

    modulus: PrimeModulus
    length: int
    vectors: tuple[FpVector, ...]
    clique_indices: tuple[int, ...] = ()

    def __post_init__(self):
        zero = FpVector(self.modulus, (0,) * self.length)
        if zero not in self.vectors:
            raise ValueError("coding set must contain the zero vector")
        if len(set(self.vectors)) != len(self.vectors):
            raise ValueError("coding set vectors must be distinct")
        for v in self.vectors:
            if len(v) != self.length:
                raise ValueError("coding set vector of wrong length")

    @property
    def p(self) -> int:
        return self.modulus.p

    def nonzero(self) -> list[FpVector]:
        return [v for v in self.vectors if not v.is_zero()]


def graph_to_generators(g: LabelledGraph) -> pauli.StabiliserGroup:
    """Stabiliser group with generator matrix (I_n | A)."""
    n = g.n
    for i in range(n):
        if not any(g.adjacency.rows[i]):
            raise IsolatedVertex(f"vertex {i} has no incident edge")
    ident = FpMatrix.identity(g.modulus, n)
    rows = tuple(ir + ar for ir, ar in zip(ident.rows, g.adjacency.rows))
    return pauli.StabiliserGroup.from_matrix(g.modulus, n, FpMatrix(g.modulus, rows, 2 * n))


def excluded_points(x: QuantumLineSet, d: int) -> set[tuple[int, ...]]:
    """X_{d-1}: the points in the span of d-1 or fewer incident points of x.

    Points are normalised coordinate tuples. X_1 is the set of incident
    points, and X_{w+1} adds every point of each line joining a point of
    X_w to an incident point.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if d > MAX_CANDIDATE_DISTANCE:
        raise UnsupportedDistance(f"candidate enumeration limited to d <= {MAX_CANDIDATE_DISTANCE}")
    p = x.p
    incident = [pt.coords for pt in lines_mod.incident_points(x)]
    excluded = set(incident)
    for _ in range(d - 2):
        excluded = excluded.union(*(_line(p, r, s) for r in excluded for s in incident if r != s))
    return excluded


def _line(p: int, u: tuple[int, ...], v: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The p+1 points of the line through the distinct points u and v."""
    return [u, v] + [
        ProjPoint.normalise(p, tuple((a + c * b) % p for a, b in zip(u, v))) for c in range(1, p)
    ]


def candidate_vertices(
    x: QuantumLineSet,
    excluded: set[tuple[int, ...]],
    restriction: ProjSubspace | None = None,
) -> list[ProjPoint]:
    """Points not in the excluded set X_{d-1} of x (see excluded_points).

    With a restriction subspace, only its points are considered (the
    subspace trick that keeps the compatibility graph small).
    """
    if restriction is not None:
        pool = geometry.points_of(restriction)
    else:
        pool = geometry.all_points(x.ambient_dim, x.modulus)
    return [pt for pt in pool if pt.coords not in excluded]


def gamma_graph(
    x: QuantumLineSet,
    vertices: Sequence[ProjPoint],
    excluded: set[tuple[int, ...]],
) -> CompatibilityGraph:
    """Join u, v iff no point of the line uv lies in the excluded set X_{d-1}.

    This is the codeword-stabilised condition that u - v is not the
    classical image of an error of weight d-1 or less. For d <= 3 it is the
    same as asking that u, v and any d-1 or fewer incident points be
    independent.
    """
    p = x.p
    verts = tuple(sorted(set(vertices)))
    coords = [v.coords for v in verts]
    edges = frozenset(
        (a, b)
        for a, b in itertools.combinations(range(len(verts)), 2)
        if excluded.isdisjoint(_line(p, coords[a], coords[b]))
    )
    return CompatibilityGraph(verts, edges)


def find_cliques(
    g: CompatibilityGraph,
    mode: str = "exact",
    time_limit: float | None = None,
) -> list[tuple[int, ...]]:
    """Maximum cliques of the compatibility graph, as sorted vertex tuples.

    ``exact``: every maximum clique via Bron-Kerbosch with pivoting and a
    best-size bound; refuses graphs above MAX_EXACT_VERTICES.
    ``greedy``: a single maximal clique by lowest-index extension.
    Raises TimeLimitExceeded carrying the best cliques found so far.
    """
    nv = g.num_vertices
    if nv == 0:
        return []
    adj = g.neighbours()
    if mode == "greedy":
        clique: list[int] = []
        for v in range(nv):
            if all(v in adj[c] for c in clique):
                clique.append(v)
        return [tuple(clique)]
    if mode != "exact":
        raise ValueError(f"unknown clique mode: {mode}")
    if nv > MAX_EXACT_VERTICES:
        raise ValueError(
            f"exact search limited to {MAX_EXACT_VERTICES} vertices; use greedy mode"
        )

    deadline = None if time_limit is None else time.monotonic() + time_limit
    best: list[tuple[int, ...]] = []
    best_size = 0

    def expand(r: list[int], cand: set[int], excl: set[int]) -> None:
        nonlocal best, best_size
        if deadline is not None and time.monotonic() > deadline:
            raise TimeLimitExceeded("clique search timed out", best=list(best))
        if not cand and not excl:
            if len(r) > best_size:
                best_size = len(r)
                best = [tuple(sorted(r))]
            elif len(r) == best_size:
                best.append(tuple(sorted(r)))
            return
        if len(r) + len(cand) < best_size:
            return
        pivot = max(cand | excl, key=lambda w: (len(cand & adj[w]), -w))
        for v in sorted(cand - adj[pivot]):
            expand(r + [v], cand & adj[v], excl & adj[v])
            cand = cand - {v}
            excl = excl | {v}

    expand([], set(range(nv)), set())
    return sorted(best)


def is_subspace_t(t: CodingSet) -> bool:
    """True iff the vector set is closed under addition and scaling."""
    vs = set(t.vectors)
    for a, b in itertools.product(t.vectors, repeat=2):
        if a + b not in vs:
            return False
    for a in t.vectors:
        for c in range(2, t.p):
            if a.scale(c) not in vs:
                return False
    return True


def proportional_pairs(t: CodingSet) -> list[tuple[FpVector, FpVector]]:
    """Nonzero pairs defining the same projective point (skipped by the bound)."""
    out = []
    for a, b in itertools.combinations(t.nonzero(), 2):
        if fields.rank_of_vectors(t.p, [a.entries, b.entries]) < 2:
            out.append((a, b))
    return out


def distance_bound(x: QuantumLineSet, t: CodingSet, limit: int) -> DependentSetSize:
    """Minimum dependent-set size over projections from all coding pairs.

    Pairs of nonzero vectors defining the same projective point are
    skipped; with no valid pair at all the bound is vacuous (AtLeast).
    """
    results: list[DependentSetSize] = []
    for a, b in itertools.combinations(t.nonzero(), 2):
        if fields.rank_of_vectors(t.p, [a.entries, b.entries]) < 2:
            continue
        projected = lines_mod.project_lines(x, [a, b])
        results.append(lines_mod.min_dependent_set(projected, limit))
    if not results:
        return AtLeast(limit + 1)
    return lines_mod.min_distance_result(results)


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
            f"{self.cliques_found} maximum clique(s) of size {self.clique_size}",
            f"  elapsed: {self.elapsed_ms} ms",
        ]
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return lines


def run_recipe(
    g: LabelledGraph,
    d: int,
    k: int = 0,
    restriction: ProjSubspace | None = None,
    clique_mode: str = "exact",
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
        centre = _lex_least_independent(g.modulus, base_candidates, k)
        x = lines_mod.project_lines(x, centre)
        group = pauli.subgroup_fixing(group, centre)

    excluded = excluded_points(x, d)
    verts = candidate_vertices(x, excluded, restriction)
    gamma = gamma_graph(x, verts, excluded)
    if clique_mode == "greedy":
        warnings.append("greedy clique mode; maximality only")
    cliques = find_cliques(gamma, clique_mode, time_limit)
    if cliques:
        chosen = cliques[0]
    else:
        # no candidate points at all: nothing beyond the additive code
        chosen = ()
        warnings.append("empty compatibility graph; T = {0}")

    modulus = g.modulus
    length = n - k
    vectors = [FpVector(modulus, (0,) * length)]
    for idx in chosen:
        pt = gamma.vertices[idx]
        for c in range(1, modulus.p):
            vectors.append(FpVector(modulus, pt.coords).scale(c))
    tset = CodingSet(modulus, length, tuple(vectors), clique_indices=chosen)

    if tset.nonzero():
        # the candidate condition sees only errors with a nonzero image; an
        # error of weight d(X) < d can have image 0, a stabiliser element
        # that acts on the components of T with different phases, so the
        # pairs containing the zero vector are certified to min(d, d(X))
        additive = lines_mod.distance_value(lines_mod.min_dependent_set(x, d - 1))
        if additive < d:
            warnings.append(
                f"additive code has distance {additive} < d; "
                f"pairs with the zero vector are certified to {additive} only"
            )
        bound = lines_mod.min_distance_result([distance_bound(x, tset, d), AtLeast(additive)])
    else:
        # T = {0}: the additive code itself, whose distance is d(X)
        bound = lines_mod.min_dependent_set(x, d)
    if isinstance(bound, AtLeast):
        d_bound, exact = bound.bound, False
    else:
        d_bound, exact = bound, True
    if proportional_pairs(tset):
        warnings.append("coding set contains proportional pairs (skipped by the bound)")

    elapsed_ms = int((time.monotonic() - start) * 1000)
    return CodeReport(
        n=n,
        k=k,
        p=modulus.p,
        t_size=len(tset.vectors),
        d_bound=d_bound,
        d_bound_exact=exact,
        is_subspace=is_subspace_t(tset),
        singleton_k=singleton_max_k(n, d_bound),
        cliques_found=len(cliques),
        clique_size=len(chosen),
        vertices=gamma.num_vertices,
        edges=gamma.num_edges,
        elapsed_ms=elapsed_ms,
        coding_set=tset,
        group=group,
        warnings=tuple(warnings),
    )


def _lex_least_independent(modulus: PrimeModulus, points: Sequence[ProjPoint], k: int) -> list[FpVector]:
    chosen: list[FpVector] = []
    for pt in sorted(points):
        v = pt.vector()
        if fields.rank_of_vectors(modulus.p, [c.entries for c in chosen] + [v.entries]) == len(chosen) + 1:
            chosen.append(v)
        if len(chosen) == k:
            return chosen
    raise NoClique(f"fewer than {k} independent candidate points")

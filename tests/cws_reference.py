"""Independent codeword-stabilised (CWS) reference for binary graph codes.

A graph state with adjacency matrix A carries the stabiliser generators
X_i Z^{A_i}. The Pauli error E = X^a Z^b flips the eigenvalues of those
generators by the classical image Cl_G(E) = b + A a over F_2 (Cross, Smith,
Smolin and Zeng, "Codeword stabilized quantum codes", arXiv:0708.1021; Yu,
Chen and Oh, "Graphical quantum error-correcting codes", arXiv:0709.1780).
When no error of weight 1..d-1 has Cl_G(E) = 0, a coding set T detects every
error of weight <= d-1 iff t - u is not in Cl_G(E) for any such E and any
t != u in T. With 0 in T this splits into a vertex condition (t is not an
image) and an edge condition (t + u is not an image), and the largest
coding sets are {0} together with a maximum clique.

Everything here works on integer bitmasks straight from the adjacency
matrix: coordinate i of a vector of F_2^n is bit i. Nothing in qsol is
used, so the results can be compared with ``qsol.search``.
"""

from __future__ import annotations

import itertools


def to_mask(coords) -> int:
    """The bitmask of a 0/1 coordinate sequence."""
    return sum(1 << i for i, c in enumerate(coords) if c % 2)


def error_images(adjacency, max_weight: int) -> set[int]:
    """Cl_G(E) for every Pauli error E of weight 1..max_weight.

    Raises ValueError when such an error has image 0, i.e. acts as a
    stabiliser element: degenerate codes are outside this reference.
    """
    n = len(adjacency)
    column = [to_mask(adjacency[j][i] for j in range(n)) for i in range(n)]
    # X_i, Z_i and Y_i on qubit i
    local = [(column[i], 1 << i, column[i] ^ (1 << i)) for i in range(n)]
    images: set[int] = set()
    for w in range(1, max_weight + 1):
        for support in itertools.combinations(range(n), w):
            for letters in itertools.product(*(local[i] for i in support)):
                image = 0
                for part in letters:
                    image ^= part
                if image == 0:
                    raise ValueError(f"an error on qubits {support} lies in the stabiliser")
                images.add(image)
    return images


def in_kernel(x: int, constraints) -> bool:
    """True iff x satisfies every constraint row (a homogeneous system)."""
    return all(bin(x & to_mask(row)).count("1") % 2 == 0 for row in constraints)


def candidates(images: set[int], n: int, constraints=()) -> list[int]:
    """Nonzero vectors of F_2^n in the restriction that are not error images."""
    return [x for x in range(1, 1 << n) if in_kernel(x, constraints) and x not in images]


def edges(images: set[int], vertices) -> set[frozenset[int]]:
    """Pairs {u, v} of vertices whose difference u + v is not an error image."""
    return {frozenset((u, v)) for u, v in itertools.combinations(vertices, 2) if u ^ v not in images}


def maximum_cliques(vertices, edge_set) -> list[frozenset[int]]:
    """Every maximum clique, by extending cliques in increasing vertex order.

    Each clique is reached once, from its members in index order. A branch
    is cut when it cannot reach the best size found so far: a clique takes
    at most one vertex of each colour class of a proper colouring of the
    remaining candidates, so its size is at most the clique's plus the
    number of colours of a greedy colouring. A branch that can only tie the
    best size is still searched, so every maximum clique is found.
    """
    index = {v: i for i, v in enumerate(vertices)}
    neighbours = [0] * len(vertices)
    for u, v in (tuple(e) for e in edge_set):
        neighbours[index[u]] |= 1 << index[v]
        neighbours[index[v]] |= 1 << index[u]
    best: list[int] = []
    best_size = 0

    def colours(mask: int) -> int:
        """The number of classes of the greedy colouring of mask in index order."""
        count = 0
        while mask:
            count += 1
            # one class: each vertex in turn that no vertex of the class is joined to
            free = mask
            while free:
                low = free & -free
                mask ^= low
                free &= ~(low | neighbours[low.bit_length() - 1])
        return count

    def extend(clique: int, size: int, later: int) -> None:
        # later: vertices after the last member that are adjacent to all members
        nonlocal best, best_size
        if size + colours(later) < best_size:
            return
        if later == 0:
            if size > best_size:
                best, best_size = [clique], size
            elif size == best_size:
                best.append(clique)
            return
        while later:
            i = (later & -later).bit_length() - 1
            later &= later - 1
            extend(clique | 1 << i, size + 1, later & neighbours[i])

    extend(0, 0, (1 << len(vertices)) - 1)
    return [frozenset(v for i, v in enumerate(vertices) if c >> i & 1) for c in best]

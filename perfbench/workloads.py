"""The benchmark workloads: seeded inputs, one operation each, output checks.

The seed picks a relabelling of the qupits. It is applied to the graph, the
restriction, the generators and the coding set alike, and qsol only ever sees
the relabelled files. Seed 0 is the identity.

Every operation goes through module attributes (``qsol.search.distance_bound``
rather than a name imported from it), so the tracer's wrappers see the call.
"""

from __future__ import annotations

import contextlib
import io as stdio
import itertools
import random
from pathlib import Path
from typing import Callable

# An operation returns the counters that must repeat exactly from op to op
Op = Callable[[], dict[str, int]]

DATA = Path(__file__).resolve().parent / "data"


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def relabelling(n: int, seed: int) -> list[int]:
    """Qupit i becomes qupit perm[i]."""
    perm = list(range(n))
    if seed:
        random.Random(seed).shuffle(perm)
    return perm


def _rows(name: str) -> list[list[int]]:
    """Integer rows of a data file, comments and blank lines dropped."""
    out = []
    for raw in (DATA / name).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append([int(v) for v in line.split()])
    return out


def _permute(row, perm):
    out = [0] * len(perm)
    for i, e in enumerate(row):
        out[perm[i]] = e
    return out


def _text(rows) -> str:
    return "".join(" ".join(str(e) for e in row) + "\n" for row in rows)


def _cycle_graph(p: int, n: int, perm) -> str:
    return _text([[p, n]] + [[perm[i], perm[(i + 1) % n], 1] for i in range(n)])


def _cycle_generators(n: int, perm) -> str:
    """Graph-state generators (I | A) of the relabelled binary n-cycle."""
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n):
        a, b = perm[i], perm[(i + 1) % n]
        adjacency[a][b] = adjacency[b][a] = 1
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return _text([[2, n, 0]] + [x + z for x, z in zip(identity, adjacency)])


def _machine(argv: list[str]) -> dict[str, str]:
    """Run the qsol CLI in-process and parse its key=value output."""
    import qsol.cli

    buf = stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = qsol.cli.main(argv + ["--format", "machine"])
    if rc != 0:
        raise CheckFailed(f"qsol {argv[0]} exited with {rc}")
    return dict(line.split("=", 1) for line in buf.getvalue().splitlines() if "=" in line)


def _expect(out: dict[str, str], **want) -> None:
    for key, value in want.items():
        if out.get(key) != str(value):
            raise CheckFailed(f"{key}={out.get(key)}, expected {value}")


def _recipe(graph: Path, d: int, restrict: Path | None, want: dict) -> Op:
    argv = ["recipe", "--graph", str(graph), "--d", str(d)]
    if restrict is not None:
        argv += ["--restrict", str(restrict)]

    def op() -> dict[str, int]:
        out = _machine(argv)
        _expect(out, **want)
        return {key: int(out[key]) for key in ("vertices", "edges", "cliques_found")}

    return op


def setup_c9_restricted(work: Path, seed: int) -> Op:
    perm = relabelling(9, seed)
    graph = work / "c9.graph"
    graph.write_text(_cycle_graph(2, 9, perm))
    restrict = work / "c9.restrict"
    restrict.write_text(_text(_permute(row, perm) for row in _rows("nine_cycle.restrict")))
    # clique size 11 shows as T_size = 1 + 11 * (p - 1)
    return _recipe(graph, 3, restrict, dict(n=9, p=2, K=12, d_bound=3, T_size=12))


def setup_c5_p3(work: Path, seed: int) -> Op:
    graph = work / "c5.graph"
    graph.write_text(_cycle_graph(3, 5, relabelling(5, seed)))
    # clique size 13 shows as T_size = 1 + 13 * (p - 1)
    return _recipe(graph, 2, None, dict(n=5, p=3, K=27, d_bound=2, T_size=27))


def setup_verify_c9(work: Path, seed: int) -> Op:
    perm = relabelling(9, seed)
    gens = work / "c9.gens"
    gens.write_text(_cycle_generators(9, perm))
    tset_rows = _rows("nine_cycle.tset")
    tset = work / "c9.tset"
    tset.write_text(_text(tset_rows[:1] + [_permute(row, perm) for row in tset_rows[1:]]))
    argv = ["verify", "--gens", str(gens), "--tset", str(tset), "--d", "3"]

    def op() -> dict[str, int]:
        out = _machine(argv)
        _expect(out, kl_pass=1, dim=12, error_classes=351)
        if not float(out["max_residual"]) <= 1e-9:
            raise CheckFailed(f"max_residual={out['max_residual']} > 1e-9")
        return {"error_classes": int(out["error_classes"])}

    return op


def _proportional(p: int, a, b) -> bool:
    return any(all((c * x - y) % p == 0 for x, y in zip(a, b)) for c in range(1, p))


def setup_t11_p3_distance(work: Path, seed: int) -> Op:
    perm = relabelling(11, seed)
    gen_rows = _rows("ternary.gens")
    header, body = gen_rows[0], gen_rows[1:]
    n = header[1]
    # a qupit relabelling permutes the X block and the Z block alike; the
    # coding set indexes generators, whose order does not change
    gens = work / "t11.gens"
    gens.write_text(_text([header] + [_permute(r[:n], perm) + _permute(r[n:], perm) for r in body]))
    tset = work / "t11.tset"
    tset.write_text(_text(_rows("ternary.tset")))

    def op() -> dict[str, int]:
        from qsol import io, lines, pauli, search

        _expect(_machine(["validate", "--gens", str(gens)]), valid=1, n=11, k=4, p=3)
        group = io.parse_generators(gens.read_text())
        t = io.parse_coding_set(tset.read_text())
        x = lines.lines_from_matrix(group.gmatrix, group.n, group.k)
        bound = search.distance_bound(x, t, 3)
        if bound != 3 or not isinstance(bound, int):
            raise CheckFailed(f"distance bound {bound!r}, expected exactly 3")
        pairs = 0
        for a, b in itertools.combinations(t.nonzero(), 2):
            if _proportional(t.p, a.entries, b.entries):
                continue
            sub = pauli.subgroup_tu(group, a, b)
            if sub.num_generators != group.num_generators - 2:
                raise CheckFailed(f"subgroup_tu gave {sub.num_generators} generators")
            pairs += 1
        if pairs != 24:
            raise CheckFailed(f"{pairs} non-proportional pairs, expected 24")
        return {"pairs": pairs}

    return op


# name: (set-up, whether the op is bound by the Python interpreter, so that its
# times are scaled by the reference kernel; verify-c9 is almost all BLAS, which
# the machine's drift barely moves)
WORKLOADS = {
    "c9-restricted": (setup_c9_restricted, True),
    "c5-p3": (setup_c5_p3, True),
    "verify-c9": (setup_verify_c9, False),
    "t11-p3-distance": (setup_t11_p3_distance, True),
}

"""A span tracer that times qsol's layers from outside.

It wraps every public function of each qsol module by replacing the module
attribute. Each call records a span: name, start, end, parent span and op id.
Spans are kept in flat in-memory arrays and written out when the run ends.
A span's self time is its duration minus the durations of its child spans.

Blind spot: a name bound with ``from .x import f`` keeps pointing at the
unwrapped function, so module-attribute wrapping cannot see that call (for
example ``cli``'s ``kernel_basis``). Methods of classes are not wrapped either.
Counts inside a function, such as branch-and-bound nodes or the size of the
excluded set, need tracing inside the program.
"""

from __future__ import annotations

import collections
import functools
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("fields", "geometry", "pauli", "lines", "search", "oracle", "io", "cli")

BLIND_SPOT = (
    "module-attribute wrapping misses names bound with 'from .x import f' "
    "(e.g. cli's kernel_basis) and class methods; counts inside a function "
    "(branch-and-bound nodes, excluded-set size) need tracing inside the program"
)


_UNITS = {
    "search.gamma.edge_yield": "ratio",
    "oracle.gflops.computed": "GFLOP/s",
    "oracle.kl.max_residual": "ratio",
    "trace.overhead": "ratio",
}


def unit(name: str) -> str:
    return _UNITS.get(name, "s" if name.endswith("self_s") else "count")


def _gamma(counts, args, graph):
    nv = graph.num_vertices
    counts["search.gamma.pairs"] += nv * (nv - 1) // 2
    counts["search.gamma.edges"] += graph.num_edges


def _cliques(counts, args, cliques):
    counts["search.cliques.found"] += len(cliques)
    counts["search.cliques.size"] = max(counts["search.cliques.size"], len(cliques[0]) if cliques else 0)


def _projector(counts, args, proj):
    s = args[0]
    products = s.num_generators * s.p
    counts["oracle.matmuls.computed"] += products
    counts["oracle.flops.computed"] += products * 8 * proj.shape[0] ** 3


def _kl(counts, args, report):
    products = 1 + len(report)
    counts["oracle.matmuls.computed"] += products
    counts["oracle.flops.computed"] += products * 8 * args[0].shape[0] ** 3
    counts["oracle.kl.max_residual"] = max(counts["oracle.kl.max_residual"], report.max_residual)


def _count(key):
    def observe(counts, args, result):
        counts[key] += len(result)

    return observe


# Counts taken from the arguments and results of a call, after it returns
OBSERVERS = {
    "search.gamma_graph": _gamma,
    "search.find_cliques": _cliques,
    "search.candidate_vertices": _count("search.candidates.count"),
    "geometry.points_of": _count("geometry.points_of.points"),
    "oracle.component_projector": _projector,
    "oracle.kl_detect": _kl,
    "oracle.error_classes": _count("oracle.error_classes.count"),
}


class Tracer:
    def __init__(self, qsol_modules: dict):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: list[collections.Counter] = []
        self.patches = []
        for layer in LAYERS:
            mod = qsol_modules[layer]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                self.patches.append((mod, attr, fn, self._wrap(f"{layer}.{attr}", fn)))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        start, end, names, parents, ops, stack = self.start, self.end, self.name, self.parent, self.op, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if observe is not None:
                observe(self.counts[self.op_id], args, result)
            return result

        return traced

    def begin_op(self) -> None:
        self.op_id += 1
        self.counts.append(collections.Counter())
        for mod, attr, _, wrapper in self.patches:
            setattr(mod, attr, wrapper)

    def end_op(self) -> None:
        for mod, attr, fn, _ in self.patches:
            setattr(mod, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        # copies, so that the arrays can still grow afterwards
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "names": np.array(self.names),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays())

    def per_op(self) -> list[dict[str, float]]:
        """Per-layer metrics of each traced op."""
        a = self.arrays()
        ops = self.op_id + 1
        nnames = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.zeros_like(dur)
        np.add.at(children, a["parent"][has_parent], dur[has_parent])
        key = a["op"].astype(np.int64) * nnames + a["name"]
        self_s = np.bincount(key, weights=dur - children, minlength=ops * nnames).reshape(ops, nnames)
        calls = np.bincount(key, minlength=ops * nnames).reshape(ops, nnames)
        # distance-bound pairs: project_lines spans whose parent is distance_bound
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        bound_pairs = np.bincount(
            a["op"][(a["name"] == self.names.index("lines.project_lines"))
                    & (parent_name == self.names.index("search.distance_bound"))],
            minlength=ops,
        )
        ix = {name: i for i, name in enumerate(self.names)}
        oracle = [i for name, i in ix.items() if name.startswith("oracle.")]
        io_parse = [i for name, i in ix.items() if name.startswith("io.parse_")]
        cli = [i for name, i in ix.items() if name.startswith("cli.")]
        out = []
        for op in range(ops):
            c = self.counts[op]
            s, n = self_s[op], calls[op]
            oracle_s = float(s[oracle].sum())
            m = {
                "search.gamma.pairs": c["search.gamma.pairs"],
                "search.gamma.edges": c["search.gamma.edges"],
                "search.gamma.edge_yield": c["search.gamma.edges"] / max(c["search.gamma.pairs"], 1),
                "search.cliques.found": c["search.cliques.found"],
                "search.cliques.size": c["search.cliques.size"],
                "search.candidates.count": c["search.candidates.count"],
                "search.distance_bound.pairs": int(bound_pairs[op]),
                "geometry.points_of.points": c["geometry.points_of.points"],
                "oracle.error_classes.count": c["oracle.error_classes.count"],
                "oracle.matmuls.computed": c["oracle.matmuls.computed"],
                "oracle.gflops.computed": c["oracle.flops.computed"] / oracle_s / 1e9 if oracle_s else 0.0,
                "oracle.kl.max_residual": c["oracle.kl.max_residual"],
                "io.parse.self_s": float(s[io_parse].sum()),
                "cli.main.self_s": float(s[cli].sum()),
            }
            for name in (
                "search.gamma_graph", "search.find_cliques", "search.candidate_vertices",
                "search.distance_bound", "fields.rank_of_vectors", "fields.rref",
                "lines.min_dependent_set", "lines.project_lines", "pauli.subgroup_tu",
                "oracle.component_projector", "oracle.kl_detect", "oracle.apply_right",
            ):
                m[f"{name}.self_s"] = float(s[ix[name]])
            for name in (
                "fields.rank_of_vectors", "fields.rref", "geometry.points_of", "geometry.span",
                "lines.min_dependent_set", "lines.project_lines", "pauli.multiply",
                "oracle.component_projector",
            ):
                m[f"{name}.calls"] = int(n[ix[name]])
            out.append(m)
        return out

"""A machine-speed reference kernel, to take a shared machine's drift out of op times.

On a shared machine the speed of the Python interpreter drifts by a third or
more within seconds, as other tenants come and go. The op times of a
Python-bound workload are therefore scaled by R0 / R: R is the median time of
a fixed reference kernel run right before and right after the op in the same
process, and R0 is the kernel's nominal time. The kernel never calls qsol, so
a change to qsol moves a scaled time exactly as much as its wall time; only
the machine's drift cancels.
"""

from __future__ import annotations

import statistics
import time

SAMPLES = 5


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    rank = 0
    ncols = len(rows[0])
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(e * inv) % p for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _set_work() -> int:
    adj = [frozenset((i * 7 + j * 13) % 97 for j in range(40)) for i in range(97)]
    total = 0
    for r in range(6):
        cand = set(range(97))
        for v in range(97):
            cand = (cand & adj[v]) | adj[(v + r) % 97]
            total += len(cand)
    counts: dict[tuple[int, int, int], int] = {}
    for i in range(3000):
        key = (i % 17, i % 5, i % 3)
        counts[key] = counts.get(key, 0) + 1
    return total + len(counts)


def python_kernel() -> int:
    """The kinds of work qsol's search layers do, in pure Python: row reduction
    over F_3, set intersections and unions, and tuple-keyed dictionaries."""
    rank = sum(
        _rank_mod_p([[(i * 7 + j * 3 + shift) % 3 for j in range(12)] for i in range(6)], 3)
        for shift in range(120)
    )
    return rank + _set_work()


# Nominal kernel time R0: about the fastest median seen on a shared 2-core
# x86_64 VM with Python 3.11
NOMINAL_S = 0.008


class Reference:
    """Samples the kernel between timed intervals and scales each interval."""

    def __init__(self):
        self.last = self.sample()

    def sample(self) -> float:
        times = []
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            python_kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self) -> float:
        """Call right after a timed interval: R0 over the mean reference time around it."""
        before, self.last = self.last, self.sample()
        return NOMINAL_S / ((before + self.last) / 2)

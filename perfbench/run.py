"""qsol benchmark: one workload, timed from outside, checked for correctness.

    python3 perfbench/run.py --workload c9-restricted --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single client: ops run
back to back, with no concurrency, for --seconds (at least one op; the last op
may run past the deadline). The seed picks a relabelling of the qupits; qsol
sees only the relabelled input files.

With --trace 0 the last line of stdout is a JSON object whose metrics are the
end-to-end ones: op_s.p50, op_s.tail, setup_s and peak_rss_mib. The op times
of Python-bound workloads, and setup_s, are scaled to a nominal machine speed
by a reference kernel (see reference.py); the line before gives them unscaled.
With --trace 1
untraced and traced ops alternate, and the metrics are the per-layer ones,
averaged over the traced ops, plus trace.overhead. The spans of a traced run
are written to .perfbench_out/ at the root of the checkout.

qsol is imported from src/ next to this directory; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 7

sys.path.insert(0, str(HERE))
from reference import Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare(workload: str, seed: int):
    """Import qsol from the checkout's sources and write the seeded inputs."""
    sys.path.insert(0, str(SRC))
    import qsol.cli  # noqa: F401  (imports every layer, numpy included)

    if Path(qsol.cli.__file__).resolve().parent != (SRC / "qsol").resolve():
        raise SystemExit(f"qsol was imported from {qsol.cli.__file__}, not from {SRC}")
    work = WORK_DIR / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    setup, _ = WORKLOADS[workload]
    return work, setup(work, seed)


def setup_probe(args) -> int:
    """Child process: set up, then print the monotonic time at which an op is ready."""
    work, _ = prepare(args.workload, args.seed)
    print(repr(time.monotonic()), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh interpreters from spawn to op-ready: wall times, and the same scaled
    by the reference kernel (set-up is Python-bound for every workload).

    CLOCK_MONOTONIC is system-wide, so the child's reading compares with ours.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    reference = Reference()
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.split()[-1]) - t0)
        scaled.append(raw[-1] * reference.scale())
    return raw, scaled


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.split()[-1]}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(load_at_start) -> dict:
    import numpy as np

    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load_at_start,
        "load_model": "closed loop, 1 client, no concurrency, 1 process per workload",
    }


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, but not below p75.

    Below 40 samples no percentile from p75 up has ten beyond it, and p75
    (nearest rank) is reported instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.75 * n))
    return ordered[rank - 1], f"p{100 * rank / n:.1f}"


def run_ops(op, seconds: float, reference=None, tracer=None):
    """Closed loop until the deadline; with a tracer, every second op is traced.

    Returns the op times (scaled by the reference, if there is one) of plain
    and traced ops, the raw times of plain ops, the ops' counters and failures.
    """
    plain, traced, raw, counters = [], [], [], []
    failures = []
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        trace_this = tracer is not None and i % 2 == 1
        gc.collect()
        if trace_this:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            counters.append(op())
        except Exception:  # a raised op is a failed op, whatever the cause
            failures.append(traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if trace_this:
            tracer.end_op()
        else:
            raw.append(elapsed)
        (traced if trace_this else plain).append(elapsed * (reference.scale() if reference else 1.0))
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or traced):
            return plain, traced, raw, counters, failures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qsol" / "__init__.py").is_file():
        print(f"error: qsol sources not found in {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    load_at_start = os.getloadavg()
    if not args.trace:  # a traced run reports no setup_s
        setup_raw, setup_times = measure_setup(args)
    work, op = prepare(args.workload, args.seed)
    reference = Reference() if WORKLOADS[args.workload][1] else None
    try:
        tracer = None
        if args.trace:
            import qsol
            from tracer import BLIND_SPOT, LAYERS, Tracer, unit

            tracer = Tracer({layer: getattr(qsol, layer) for layer in LAYERS})
        plain, traced, raw, counters, failures = run_ops(op, args.seconds, reference, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    attempted = len(plain) + len(traced)
    if failures:
        print(f"first of {len(failures)} failed ops:\n{failures[0]}", file=sys.stderr)
    repeat = all(c == counters[0] for c in counters)
    print("# env " + json.dumps(environment(load_at_start)))
    print(f"# workload {args.workload} seed {args.seed}: {attempted} ops, {len(failures)} failed, "
          f"failed_frac = {len(failures) / attempted}")
    print(f"# counters {json.dumps(counters[0] if counters else {})} repeat exactly: {repeat}")

    if tracer is None:
        value, which = tail(plain)
        print(f"# op_s.tail is {which} of {len(plain)} ops; setup_s is the median of {len(setup_times)} fresh interpreters")
        print(f"# unscaled: op_s.p50 = {statistics.median(raw)} s, setup_s = {statistics.median(setup_raw)} s; "
              + ("op times are scaled by the reference kernel" if reference else "op times are not scaled"))
        metrics = {
            "op_s.p50": (statistics.median(plain), "s"),
            "op_s.tail": (value, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(path)
        per_op = tracer.per_op()
        print(f"# spans of {len(traced)} traced ops written to {path.relative_to(ROOT)}")
        print(f"# tracer blind spot: {BLIND_SPOT}")
        counts_repeat = all(
            m[k] == per_op[0][k] for m in per_op for k in m if not k.endswith(("self_s", "gflops.computed"))
        )
        print(f"# per-layer counts repeat exactly across traced ops: {counts_repeat}")
        values = {name: statistics.fmean(m[name] for m in per_op) for name in per_op[0]}
        values["trace.overhead"] = statistics.median(traced) / statistics.median(plain) - 1
        metrics = {name: (value, unit(name)) for name, value in values.items()}

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Every benchmark workload (perfbench/workloads.py) sets up and runs one op with its output checks.

A workload whose op no longer passes its own checks would otherwise fail only
in a benchmark run. One op of each workload also runs under the span tracer
(perfbench/tracer.py), whose counters read the results of the wrapped
calls, such as error_classes and kl_detect. Both modules are loaded by path
and write nothing next to them.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"

# the counters each op returns, the same at every seed
COUNTERS = {
    "c9-restricted": {"vertices": 39, "edges": 450, "cliques_found": 6},
    "c5-p3": {"vertices": 101, "edges": 3450, "cliques_found": 75},
    "verify-c9": {"error_classes": 351},
    "t11-p3-distance": {"pairs": 24},
}


def load(monkeypatch, name, path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    return load(monkeypatch, "perfbench_workloads", WORKLOADS)


def test_every_workload_is_covered(monkeypatch):
    assert set(load_workloads(monkeypatch).WORKLOADS) == set(COUNTERS)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_one_op_passes_its_checks(monkeypatch, tmp_path, name, seed):
    setup, _ = load_workloads(monkeypatch).WORKLOADS[name]
    op = setup(tmp_path, seed)
    assert op() == COUNTERS[name]


def make_tracer(monkeypatch):
    tracer_module = load(monkeypatch, "perfbench_tracer", PERFBENCH / "tracer.py")
    return tracer_module.Tracer({layer: importlib.import_module(f"qsol.{layer}") for layer in tracer_module.LAYERS})


def test_traced_verify_op_counts_every_error_class(monkeypatch, tmp_path):
    # the tracer counts error classes by len() of error_classes' result and
    # reads max_residual off kl_detect's report
    tracer = make_tracer(monkeypatch)
    setup, _ = load_workloads(monkeypatch).WORKLOADS["verify-c9"]
    op = setup(tmp_path, 0)
    tracer.begin_op()
    try:
        assert op() == COUNTERS["verify-c9"]
    finally:
        tracer.end_op()
    (metrics,) = tracer.per_op()
    assert metrics["oracle.error_classes.count"] == 351
    assert metrics["oracle.kl.max_residual"] <= 1e-9


# per-layer counts that per_op reads off the results of the wrapped calls
TRACED = {
    "c9-restricted": {"search.candidates.count": 39, "search.gamma.edges": 450, "search.cliques.found": 6},
    "c5-p3": {"search.candidates.count": 101, "search.gamma.edges": 3450, "search.cliques.found": 75},
    "verify-c9": {"oracle.error_classes.count": 351},
    "t11-p3-distance": {"lines.min_dependent_set.calls": 1},
}


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_traced_op_repeats_its_counters(monkeypatch, tmp_path, name):
    # every public fields, geometry and lines name the op reaches runs
    # wrapped; the traced op gives the untraced counters, and per_op finds
    # every name it reads (a missing one raises KeyError)
    tracer = make_tracer(monkeypatch)
    setup, _ = load_workloads(monkeypatch).WORKLOADS[name]
    op = setup(tmp_path, 0)
    untraced = op()
    tracer.begin_op()
    try:
        traced = op()
    finally:
        tracer.end_op()
    assert traced == untraced == COUNTERS[name]
    (metrics,) = tracer.per_op()
    assert {key: metrics[key] for key in TRACED[name]} == TRACED[name]

"""Every benchmark workload (perfbench/workloads.py) sets up and runs one op with its output checks.

A workload whose op no longer passes its own checks would otherwise fail only
in a benchmark run. The module is loaded by path, as test_tracer_names.py
loads the tracer, and writes nothing next to it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

# the counters each op returns, the same at every seed
COUNTERS = {
    "c9-restricted": {"vertices": 39, "edges": 450, "cliques_found": 6},
    "c5-p3": {"vertices": 101, "edges": 3450, "cliques_found": 75},
    "verify-c9": {"error_classes": 351},
    "t11-p3-distance": {"pairs": 24},
}


def load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_is_covered(monkeypatch):
    assert set(load_workloads(monkeypatch).WORKLOADS) == set(COUNTERS)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_one_op_passes_its_checks(monkeypatch, tmp_path, name, seed):
    setup, _ = load_workloads(monkeypatch).WORKLOADS[name]
    op = setup(tmp_path, seed)
    assert op() == COUNTERS[name]

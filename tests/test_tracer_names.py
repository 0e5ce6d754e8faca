"""The benchmark's span tracer (perfbench/tracer.py) finds every qsol name it reads.

The tracer looks up functions such as geometry.span and
search.distance_bound by name; a rename or deletion in qsol would otherwise
surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_per_op_finds_every_traced_name():
    # per_op raises KeyError for a name the wrapped modules no longer define
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer({layer: importlib.import_module(f"qsol.{layer}") for layer in tracer_module.LAYERS})
    tracer.begin_op()
    tracer.end_op()
    (metrics,) = tracer.per_op()
    assert metrics["geometry.span.calls"] == 0
    assert metrics["search.distance_bound.self_s"] == 0.0
    # qsol itself no longer calls pauli.multiply, but the tracer reads both pauli names
    assert metrics["pauli.multiply.calls"] == 0
    assert metrics["pauli.subgroup_tu.self_s"] == 0.0

"""The benchmark tracer patches package functions by name: keep them there.

``perfbench/tracing.py`` lists (owner, attribute) pairs and its Tracer reads
each from ``owner.__dict__``; a renamed or deleted function would break the
traced benchmark runs, which no other test executes.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in tracing.TARGETS
               if attr not in owner.__dict__]
    assert tracing.TARGETS and not missing

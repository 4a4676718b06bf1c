"""The traced benchmark wraps callables of the package by name; a rename
must fail here rather than in a traced run of `perfbench/run.py`."""

import importlib.util
from pathlib import Path

import milnorscope.cli  # noqa: F401  (loads every module the spans wrap)

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_layer_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.layer_targets()
    assert targets
    missing = [(name, attr) for name, owner, attr, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []

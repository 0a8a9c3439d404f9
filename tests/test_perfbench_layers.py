"""Every function the benchmark's tracer wraps still exists under its name."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS_MODULE = _spans_module()
TARGETS = [(layer, target) for layer, targets in SPANS_MODULE.LAYERS.items()
           for target in targets]


@pytest.mark.parametrize("layer,target", TARGETS, ids=[t for _, t in TARGETS])
def test_layer_target_resolves(layer, target):
    owner, attr = SPANS_MODULE._resolve(target)
    assert callable(getattr(owner, attr, None)), f"{layer}: {target} is gone"

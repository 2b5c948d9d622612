"""The benchmark's span tracer names dolab functions by (module, attribute
path); a rename or deletion in dolab must show up here, not as a crash of
`perfbench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("layer", sorted(tracer.LAYERS))
def test_layer_targets_resolve(layer):
    for module, path in tracer.LAYERS[layer]:
        importlib.import_module(module)
        _, _, fn = tracer._resolve(module, path)
        assert callable(fn), f"{module}:{path} is not a function"


def test_counters_name_layers():
    assert set(tracer.COUNTERS) <= set(tracer.LAYERS)

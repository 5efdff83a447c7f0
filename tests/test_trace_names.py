"""The benchmark tracer in `perfbench/tracing.py` finds spans by name
(`layer.function` or `layer.Class.method`). A rename in `mexp` would make its
metrics read 0 without an error, so every name it looks up must still name a
function or method defined in that layer module."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("name", sorted({*tracing.OBSERVERS, *tracing.SMO_STAGES}))
def test_traced_name_resolves(name):
    layer, *path = name.split(".")
    assert layer in tracing.LAYERS
    module = importlib.import_module(f"mexp.{layer}")
    obj = getattr(module, path[0])
    # install() wraps only what the layer module itself defines
    assert obj.__module__ == module.__name__
    if len(path) == 2:
        assert inspect.isfunction(vars(obj)[path[1]])
    else:
        assert inspect.isfunction(obj) and len(path) == 1

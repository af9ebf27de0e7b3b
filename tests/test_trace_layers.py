"""The benchmark's traced layer names must all exist on the engine.

``perfbench/tracing.py`` wraps each name in ``LAYERS`` by attribute lookup,
so a refactor that renames or removes one breaks ``--trace 1``.  This test
loads that file without installing anything and resolves every name the
way ``Tracer.install`` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("name", load_layers())
def test_traced_layer_resolves_to_callable(name):
    module, *owners, attr = name.split(".")
    owner = importlib.import_module(f"advreplay.{module}")
    for part in owners:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr, None)), f"{name} is not a callable on the engine"

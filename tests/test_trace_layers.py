"""The benchmark's traced layer names must all exist on the engine.

``perfbench/tracing.py`` wraps each name in ``LAYERS`` by attribute lookup,
so a refactor that renames or removes one breaks ``--trace 1``.  This test
loads that file without installing anything and resolves every name the
way ``Tracer.install`` does.  Its per-layer extras read call arguments by
position, so one small run under the installed tracer checks those too.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from advreplay import runner
from test_harness import csv_config

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", load_tracing().LAYERS)
def test_traced_layer_resolves_to_callable(name):
    module, *owners, attr = name.split(".")
    owner = importlib.import_module(f"advreplay.{module}")
    for part in owners:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr, None)), f"{name} is not a callable on the engine"


def test_traced_run_counts_rows_bytes_and_calls(tmp_path):
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        runner.run_benchmark(csv_config(tmp_path))
    finally:
        tracer.uninstall()
    for key in ("data.load_csv.bytes", "classify.predict.rows",
                "replay.adversarial_attack.rows", "calib.save_store.bytes"):
        assert tracer.counters[key] > 0, key
    # two tasks: one calibration, which draws every old class's drift samples
    assert tracer.summarize()["calib.generate_drift_samples"]["calls"] == 1

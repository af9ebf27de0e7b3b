"""The one-thread BLAS scope of a run and the process pool of ``run_many``.

No test here starts more processes than the machine has CPUs.
"""

import os

import pytest
from test_harness import tiny_config

from advreplay import blas, runner
from advreplay.errors import ConfigError

needs_openblas = pytest.mark.skipif(blas.lookup() is None,
                                    reason="numpy is not linked to a findable OpenBLAS")


@pytest.fixture
def two_threads():
    """The real OpenBLAS at two threads; the count it had is restored after."""
    get, put = blas.lookup()
    before = get()
    put(2)
    yield get
    put(before)


@needs_openblas
def test_scope_restores_count_after_return(two_threads):
    with blas.single_thread():
        assert two_threads() == 1
    assert two_threads() == 2


@needs_openblas
def test_scope_restores_count_after_exception(two_threads):
    with pytest.raises(ZeroDivisionError):
        with blas.single_thread():
            assert two_threads() == 1
            1 / 0
    assert two_threads() == 2


@needs_openblas
def test_scope_does_nothing_without_setter(monkeypatch, two_threads):
    monkeypatch.setattr(blas, "lookup", lambda: None)
    with blas.single_thread():
        assert two_threads() == 2
    assert two_threads() == 2


@needs_openblas
def test_run_body_sees_one_thread(tmp_path, monkeypatch, two_threads):
    seen = []
    build = runner.stream_from_config

    def spy(config):
        seen.append(two_threads())
        return build(config)

    monkeypatch.setattr(runner, "stream_from_config", spy)
    runner.run_benchmark(tiny_config(tmp_path))
    assert seen == [1]
    assert two_threads() == 2


def test_worker_count_is_cpus_capped_by_runs(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)), raising=False)
    assert [runner.worker_count(n) for n in (0, 1, 2, 3, 8)] == [0, 1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert [runner.worker_count(n) for n in (2, 9)] == [2, 5]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert runner.worker_count(4) == 1


def seed_configs(tmp_path, *extra):
    return [tiny_config(tmp_path, f"seeds.randomness={seed}", f'output.tag="s{seed}"', *extra)
            for seed in (0, 1)]


def test_run_many_matches_serial_runs(tmp_path):
    serial = [runner.run_benchmark(cfg) for cfg in seed_configs(tmp_path / "serial")]
    parallel = runner.run_many(seed_configs(tmp_path / "pool"))
    assert [r.run_dir.name for r in parallel] == ["s0", "s1"]
    for a, b in zip(serial, parallel):
        assert (a.run_dir / "metrics.csv").read_bytes() == (b.run_dir / "metrics.csv").read_bytes()
        assert a.summary == b.summary and a.gammas == b.gammas


def test_run_many_reraises_child_error(tmp_path):
    # passes validation; fails once the stream is built, inside the child
    bad = "dataset.n_train=2"
    with pytest.raises(ConfigError) as local:
        runner.run_benchmark(tiny_config(tmp_path / "local", bad))
    with pytest.raises(ConfigError) as pooled:
        runner.run_many(seed_configs(tmp_path / "pool", bad))
    assert type(pooled.value) is type(local.value)
    assert str(pooled.value) == str(local.value)


def test_run_many_rejects_shared_run_directory(tmp_path):
    cfg = tiny_config(tmp_path)
    with pytest.raises(ConfigError, match="output.tag"):
        runner.run_many([cfg, cfg])


def test_run_many_with_one_worker_runs_in_process(tmp_path, monkeypatch):
    serial = [runner.run_benchmark(cfg) for cfg in seed_configs(tmp_path / "serial")]
    bad = "dataset.n_train=2"
    with pytest.raises(ConfigError) as local:
        runner.run_benchmark(tiny_config(tmp_path / "local", bad))
    monkeypatch.setattr(runner, "worker_count", lambda n_runs: 1)
    # reversed input order: results must follow it
    inline = runner.run_many(seed_configs(tmp_path / "inline")[::-1])
    assert [r.run_dir.name for r in inline] == ["s1", "s0"]
    for a, b in zip(serial, inline[::-1]):
        assert (a.run_dir / "metrics.csv").read_bytes() == (b.run_dir / "metrics.csv").read_bytes()
        assert a.summary == b.summary and a.gammas == b.gammas
    with pytest.raises(ConfigError) as inline_err:
        runner.run_many(seed_configs(tmp_path / "inline-bad", bad))
    assert type(inline_err.value) is type(local.value)
    assert str(inline_err.value) == str(local.value)

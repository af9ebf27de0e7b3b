"""The one-thread BLAS scope of a run, the evaluation helper of a run and
the process pool of ``run_many``.

No test here starts more processes than the machine has CPUs.
"""

import csv
import io
import json
import multiprocessing
import os
import queue
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_harness import tiny_config

from advreplay import blas, runner
from advreplay import calib as C
from advreplay import classify as CL
from advreplay import config as CFG
from advreplay import model as M
from advreplay import train as TR
from advreplay.errors import ConfigError, ContractError, EngineError, NumericError

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


@pytest.mark.parametrize("cpus,runs,expected", [
    ((0, 1), 2, [{0}, {1}]),
    ((0, 1, 2, 3), 2, [{0, 1}, {2, 3}]),
    ((0, 1), 3, [{0}, {1}]),
    ((2, 5, 7), 2, [{2, 5}, {7}]),
])
def test_pool_workers_split_the_usable_cpus(monkeypatch, cpus, runs, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    sets = runner.split_cpus(cpus, runner.worker_count(runs))
    assert sets == expected
    assert all(sets) and set().union(*sets) == set(cpus)
    assert sum(map(len, sets)) == len(cpus)  # disjoint


def test_split_cpus_needs_a_cpu_per_worker():
    for workers in (0, 3):
        with pytest.raises(ContractError, match="cannot split 2 CPUs"):
            runner.split_cpus((0, 1), workers)


def test_pool_initializer_pins_the_next_cpu_set(monkeypatch):
    pinned = []
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pinned.append(cpus),
                        raising=False)
    cpu_sets = queue.SimpleQueue()
    for cpus in ({0}, {1}):
        cpu_sets.put(cpus)
    runner._take_cpus(cpu_sets)
    runner._take_cpus(cpu_sets)
    assert pinned == [{0}, {1}]


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


def test_engine_import_loads_no_process_pool():
    """``run_many`` imports the pool's modules only when it starts a pool, so
    a single run's process neither loads them nor carries their memory."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, advreplay.cli, advreplay.runner; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- the evaluation helper -------------------------------------------------------------


needs_two_cpus = pytest.mark.skipif(
    not TR.use_helper(), reason="the evaluation helper is forked on two or more CPUs "
                                "under OpenBLAS")


def on_one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def log_pid(path):
    with path.open("a") as fh:
        fh.write(f"{os.getpid()}\n")


def pids_other_than_mine(path):
    return set(path.read_text().split()) - {str(os.getpid())} if path.exists() else set()


@needs_two_cpus
def test_forked_evaluations_give_the_inline_bytes(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    assert cfg["tasks"]["count"] == 3
    assert cfg["classifiers"] == ["linear", "ncm", "mahalanobis"]
    pids, predict = tmp_path / "pids", CL.predict

    def logged(*args, **kwargs):
        log_pid(pids)
        return predict(*args, **kwargs)

    monkeypatch.setattr(CL, "predict", logged)
    forked = runner.run_benchmark(cfg, tmp_path / "forked")
    assert pids_other_than_mine(pids)  # an evaluation ran in another process
    on_one_cpu(monkeypatch)
    pids.unlink()
    inline = runner.run_benchmark(cfg, tmp_path / "inline")
    assert not pids_other_than_mine(pids)
    for name in ("metrics.csv", "store.json", "model.json"):
        assert (forked.run_dir / name).read_bytes() == (inline.run_dir / name).read_bytes()
    assert forked.summary == inline.summary
    assert forked.gammas == inline.gammas
    assert forked.accuracy == inline.accuracy


def failing_task0_tuning(monkeypatch, pids):
    """``C.tune_shrinkage`` raises on task 0 (the store holds its two classes
    only) and logs the pid of the process that raised."""
    tune = C.tune_shrinkage

    def failing(scorer, *args, **kwargs):
        if len(scorer.ids) == 2:
            log_pid(pids)
            raise NumericError("non-finite validation scores")
        return tune(scorer, *args, **kwargs)

    monkeypatch.setattr(C, "tune_shrinkage", failing)


def raised_inline_and_forked(tmp_path, monkeypatch, pids, *extra):
    """The errors of the tiny run on two CPUs and on one."""
    errors = []
    for where in ("forked", "inline"):
        if where == "inline":
            on_one_cpu(monkeypatch)
        with pytest.raises(EngineError) as raised:
            runner.run_benchmark(tiny_config(tmp_path / where, *extra))
        errors.append(raised.value)
        assert bool(pids_other_than_mine(pids)) == (where == "forked")
        pids.unlink()
    return errors


def metrics_bytes(tmp_path, *extra):
    """``metrics.csv`` of the tiny run with ``extra`` under ``tmp_path``."""
    return (runner._run_dir(tiny_config(tmp_path, *extra), None) / "metrics.csv").read_bytes()


@needs_two_cpus
def test_evaluation_error_is_raised_with_its_type_and_message(tmp_path, monkeypatch):
    pids = tmp_path / "pids"
    failing_task0_tuning(monkeypatch, pids)
    forked, inline = raised_inline_and_forked(tmp_path, monkeypatch, pids)
    assert type(forked) is type(inline) is NumericError
    assert str(forked) == str(inline) == \
        "stage 'shrinkage-tuning': non-finite validation scores"


@needs_two_cpus
def test_evaluation_error_comes_before_the_next_tasks_error(tmp_path, monkeypatch):
    pids = tmp_path / "pids"
    failing_task0_tuning(monkeypatch, pids)

    def failing_training(*args, **kwargs):
        raise ContractError("task 1 cannot train")

    monkeypatch.setattr(TR, "run_task", failing_training)
    forked, inline = raised_inline_and_forked(tmp_path, monkeypatch, pids)
    assert type(forked) is type(inline) is NumericError
    assert str(forked) == str(inline) == \
        "stage 'shrinkage-tuning': non-finite validation scores"


@needs_two_cpus
def test_evaluation_helper_that_dies_is_an_engine_error(tmp_path, monkeypatch):
    me, predict = os.getpid(), CL.predict

    def dying(*args, **kwargs):
        if os.getpid() != me:
            os._exit(3)
        return predict(*args, **kwargs)

    monkeypatch.setattr(CL, "predict", dying)
    with pytest.raises(EngineError, match="^evaluation helper exited with code 3 "):
        runner.run_benchmark(tiny_config(tmp_path))


@pytest.mark.parametrize("where", [pytest.param("forked", marks=needs_two_cpus), "inline"])
def test_training_error_after_an_evaluation_keeps_its_rows(tmp_path, monkeypatch, where):
    """Task 1's training fails once task 0 is evaluated: task 0's eval rows
    are written, the training error is raised and task 1 writes no row."""
    if where == "inline":
        on_one_cpu(monkeypatch)

    def failing_training(*args, **kwargs):
        raise ContractError("task 1 cannot train")

    monkeypatch.setattr(TR, "run_task", failing_training)
    cfg = tiny_config(tmp_path)
    with pytest.raises(ContractError, match="^stage 'task-training': task 1 cannot train$"):
        runner.run_benchmark(cfg)
    with (runner._run_dir(cfg, None) / "metrics.csv").open(newline="") as fh:
        rows = [(row["stage"], row["task"]) for row in csv.DictReader(fh)]
    assert rows.count(("eval", "0")) == len(cfg["classifiers"])
    assert ("calibration", "0") in rows
    assert not [row for row in rows if row[1] != "0"]


@pytest.mark.parametrize("where", [pytest.param("forked", marks=needs_two_cpus), "inline"])
def test_each_evaluation_helper_is_reaped_once_its_task_is_recorded(tmp_path, monkeypatch,
                                                                   where):
    """When task t starts training, task t-1's helper is the only evaluation
    helper open on two CPUs: task t-2's was reaped once it was recorded, not
    at the end of the run.  On one CPU none is open."""
    if where == "inline":
        on_one_cpu(monkeypatch)
    open_helpers, seen, learn = [], [], runner.learn

    class Counted(TR.Helper):
        def __init__(self, items, name):
            super().__init__(items, name)
            if name == "evaluation helper":
                open_helpers.append(self)

        def close(self):
            super().close()
            if self in open_helpers:
                open_helpers.remove(self)

    def counted(*args, **kwargs):
        seen.append(len(open_helpers))
        return learn(*args, **kwargs)

    monkeypatch.setattr(TR, "Helper", Counted)
    monkeypatch.setattr(runner, "learn", counted)
    runner.run_benchmark(tiny_config(tmp_path, "dataset.n_classes=8", "tasks.count=4"))
    assert seen == ([1, 1, 1] if where == "forked" else [0, 0, 0])
    assert not open_helpers


@needs_two_cpus
def test_a_failed_run_says_so_in_its_meta(tmp_path, monkeypatch):
    """A run that fails once its directory exists records the failure and
    its error in meta.json, forked and inline alike."""
    pids = tmp_path / "pids"
    failing_calibration(monkeypatch, pids, 1)
    raised_inline_and_forked(tmp_path, monkeypatch, pids)
    forked, inline = (json.loads((runner._run_dir(tiny_config(tmp_path / where), None)
                                  / "meta.json").read_text()) for where in ("forked", "inline"))
    assert forked["status"] == inline["status"] == "failed"
    assert forked["error"] == inline["error"] == {
        "type": "NumericError", "message": "stage 'calibration': transfer map diverged"}
    assert metrics_bytes(tmp_path / "forked") == metrics_bytes(tmp_path / "inline")


# -- the settled store comes back from the evaluation helper ----------------------------


NO_REPLAY = "replay.enabled=false"


@needs_two_cpus
@pytest.mark.parametrize("covariance", [['covariance.mode="full"'],
                                        ['covariance.mode="svd"', "covariance.svd_k=4"]])
def test_a_run_that_does_not_replay_settles_in_the_helper(tmp_path, monkeypatch, covariance):
    """Without replay a task trains before it reads the store, so task t
    is calibrated in the helper while task t+1 trains; the last task is
    calibrated here.  The bytes are those of a run on one CPU."""
    cfg = tiny_config(tmp_path, NO_REPLAY, *covariance)
    assert cfg["tasks"]["count"] == 3 and cfg["adc"]["enabled"]
    pids, fit = tmp_path / "pids", C.fit_transfer_matrix

    def logged(*args, **kwargs):
        log_pid(pids)
        return fit(*args, **kwargs)

    monkeypatch.setattr(C, "fit_transfer_matrix", logged)
    forked = runner.run_benchmark(cfg, tmp_path / "forked")
    assert pids_other_than_mine(pids)  # task 1, in the helper
    assert str(os.getpid()) in pids.read_text().split()  # task 2, here
    on_one_cpu(monkeypatch)
    pids.unlink()
    inline = runner.run_benchmark(cfg, tmp_path / "inline")
    assert not pids_other_than_mine(pids)
    for name in ("metrics.csv", "store.json", "model.json"):
        assert (forked.run_dir / name).read_bytes() == (inline.run_dir / name).read_bytes()
    assert forked.gammas == inline.gammas


@pytest.mark.parametrize("where", [pytest.param("forked", marks=needs_two_cpus), "inline"])
def test_stored_arrays_stay_read_only(tmp_path, monkeypatch, where):
    """The store the last task settles here came back from the helper on
    two CPUs: unpickled arrays are writeable unless the entries freeze them,
    and the rank-k entries must still hold only their factors."""
    if where == "inline":
        on_one_cpu(monkeypatch)
    me, settle, seen = os.getpid(), runner.settle, []

    def checked(config, stream, state, store, t):
        if os.getpid() == me:
            seen.append(t)
            for entry in store.entries.values():
                for a in (entry.mu, entry.cov, *(entry.svd or ())):
                    assert not a.flags.writeable
                # a rank-k entry holds no covariance, also once unpickled
                assert set(vars(entry)) == {"mu", "svd", "created_task", "calibrated_task"}
        return settle(config, stream, state, store, t)

    monkeypatch.setattr(runner, "settle", checked)
    runner.run_benchmark(tiny_config(tmp_path, 'covariance.mode="svd"', "covariance.svd_k=4"))
    assert seen == ([2] if where == "forked" else [1, 2])


def failing_calibration(monkeypatch, pids, at_task):
    """``C.calibrate`` raises at ``at_task`` and logs the pid of the process
    that raised."""
    calibrate = C.calibrate

    def failing(entry, w, delta, task):
        if task == at_task:
            log_pid(pids)
            raise NumericError("transfer map diverged")
        return calibrate(entry, w, delta, task=task)

    monkeypatch.setattr(C, "calibrate", failing)


def failing_task1_tuning(monkeypatch, pids):
    """``C.tune_shrinkage`` raises at task 1 (the store holds four classes)
    and logs the pid of the process that raised."""
    tune = C.tune_shrinkage

    def failing(scorer, *args, **kwargs):
        if len(scorer.ids) == 4:
            log_pid(pids)
            raise NumericError("non-finite validation scores")
        return tune(scorer, *args, **kwargs)

    monkeypatch.setattr(C, "tune_shrinkage", failing)


@needs_two_cpus
@pytest.mark.parametrize("extra", [[], [NO_REPLAY]])
def test_calibration_error_is_raised_with_its_type_message_and_rows(tmp_path, monkeypatch,
                                                                     extra):
    """With replay task 2 reads the settled store before it samples
    candidates; without, once it has trained.  Either way the error of task
    1's calibration is raised as on one CPU, and task 1 writes no row."""
    pids = tmp_path / "pids"
    failing_calibration(monkeypatch, pids, 1)
    errors = raised_inline_and_forked(tmp_path, monkeypatch, pids, *extra)
    assert type(errors[0]) is type(errors[1]) is NumericError
    assert str(errors[0]) == str(errors[1]) == "stage 'calibration': transfer map diverged"
    forked, inline = (metrics_bytes(tmp_path / where, *extra) for where in ("forked", "inline"))
    assert forked == inline
    rows = list(csv.DictReader(io.StringIO(forked.decode())))
    assert ("eval", "0") in {(row["stage"], row["task"]) for row in rows}
    assert {row["task"] for row in rows} == {"0"}


@needs_two_cpus
@pytest.mark.parametrize("extra", [[], [NO_REPLAY],
                                   [NO_REPLAY, "dataset.n_classes=8", "tasks.count=4"]])
def test_evaluation_error_of_a_settled_task_keeps_its_training_rows(tmp_path, monkeypatch,
                                                                   extra):
    """Task 1 settles and its evaluation fails: task 1's training rows are
    written, as on one CPU, although without replay the helper of a task
    two or more before the last evaluates before it sends the store."""
    pids = tmp_path / "pids"
    failing_task1_tuning(monkeypatch, pids)
    errors = raised_inline_and_forked(tmp_path, monkeypatch, pids, *extra)
    assert str(errors[0]) == str(errors[1]) == \
        "stage 'shrinkage-tuning': non-finite validation scores"
    forked, inline = (metrics_bytes(tmp_path / where, *extra) for where in ("forked", "inline"))
    assert forked == inline
    rows = list(csv.DictReader(io.StringIO(forked.decode())))
    assert ("train", "1") in {(row["stage"], row["task"]) for row in rows}
    assert "2" not in {row["task"] for row in rows}


@needs_two_cpus
@pytest.mark.parametrize("extra", [[], [NO_REPLAY]])
def test_last_task_error_comes_after_the_helpers_evaluation_error(tmp_path, monkeypatch,
                                                                 extra):
    """The last task is settled here while the helper may still evaluate
    task 1: task 1's evaluation error is raised, as on one CPU, although
    task 2's calibration failed first."""
    pids, raised_last = tmp_path / "pids", tmp_path / "raised_last"
    failing_task1_tuning(monkeypatch, pids)
    failing_calibration(monkeypatch, raised_last, 2)
    forked, inline = raised_inline_and_forked(tmp_path, monkeypatch, pids, *extra)
    assert str(os.getpid()) in raised_last.read_text().split()
    assert type(forked) is type(inline) is NumericError
    assert str(forked) == str(inline) == "stage 'shrinkage-tuning': non-finite validation scores"
    assert metrics_bytes(tmp_path / "forked", *extra) == metrics_bytes(tmp_path / "inline", *extra)


@needs_two_cpus
def test_calibration_error_comes_before_the_next_tasks_training_error(tmp_path, monkeypatch):
    pids = tmp_path / "pids"
    failing_calibration(monkeypatch, pids, 1)
    run_task = TR.run_task

    def failing_training(state, *args, **kwargs):
        if state.task_index == 2:
            raise ContractError("task 2 cannot train")
        return run_task(state, *args, **kwargs)

    monkeypatch.setattr(TR, "run_task", failing_training)
    forked, inline = raised_inline_and_forked(tmp_path, monkeypatch, pids, NO_REPLAY)
    assert type(forked) is type(inline) is NumericError
    assert str(forked) == str(inline) == "stage 'calibration': transfer map diverged"
    assert metrics_bytes(tmp_path / "forked", NO_REPLAY) == \
        metrics_bytes(tmp_path / "inline", NO_REPLAY)


@needs_two_cpus
@pytest.mark.parametrize("extra", [[], [NO_REPLAY]])
def test_evaluation_helper_that_dies_calibrating_is_an_engine_error(tmp_path, monkeypatch,
                                                                    extra):
    me, fit = os.getpid(), C.fit_transfer_matrix

    def dying(*args, **kwargs):
        if os.getpid() != me:
            os._exit(5)
        return fit(*args, **kwargs)

    monkeypatch.setattr(C, "fit_transfer_matrix", dying)
    with pytest.raises(EngineError, match="^evaluation helper exited with code 5 "):
        runner.run_benchmark(tiny_config(tmp_path, *extra))


# -- forked equals inline over the config space -----------------------------------------


# tiny values for the keys whose branches the helpers meet: replay, attack,
# noise and ADC on and off, no distillation, full and svd stores, cold and
# warm tasks, both activations and head modes, classifier subsets, lone
# rows and partial 4-row blocks (batch_new 1 and 5), one replay group per
# task to one step per group, and a feature width (42) at which this BLAS
# rounds gathered rows otherwise.  Repeated values weight the draw toward
# attacked runs, which the replay helper serves; k = 40 can exceed a
# task's rows, a ConfigError.
DRAWN = {
    "seeds.randomness": st.integers(0, 3),
    "dataset.n_train": st.sampled_from([10, 24, 4]),
    "model.hidden": st.sampled_from([[24, 16], [8], [42]]),
    "model.feature_dim": st.sampled_from([8, 4, 42]),
    "model.activation": st.sampled_from(M.ACTIVATIONS),
    "model.head_mode": st.sampled_from(M.HEAD_MODES),
    "optim.epochs_initial": st.integers(1, 3),
    "optim.epochs_incremental": st.integers(1, 3),
    "optim.batch_new": st.sampled_from([5, 1, 16]),
    "optim.batch_replay": st.sampled_from([64, TR.ROWS, 16, 6, 1]),
    "loss.lambda_kd": st.sampled_from([10.0, 10.0, 0.0]),
    "replay.enabled": st.sampled_from([True, True, False]),
    "replay.k": st.sampled_from([2, 6, 40]),
    "attack.enabled": st.sampled_from([True, True, False]),
    "attack.noise": st.booleans(),
    "adc.enabled": st.booleans(),
    "covariance.mode": st.sampled_from(["full", "svd"]),
    "covariance.svd_k": st.integers(1, 4),
    "classifiers": st.lists(st.sampled_from(["linear", "ncm", "mahalanobis"]),
                            min_size=1, max_size=3, unique=True),
}
# (dataset.n_classes, tasks.count, tasks.mode) that split into whole class groups
SPLITS = [(6, 3, "cold"), (4, 2, "cold"), (4, 3, "warm"), (6, 2, "warm"), (8, 4, "cold")]


def outcome(cfg):
    """What a run of ``cfg`` leaves: its metrics.csv, store.json and
    model.json bytes, or its engine error's type and message and its
    metrics.csv bytes (None where a file is missing)."""
    run_dir = runner._run_dir(cfg, None)
    try:
        runner.run_benchmark(cfg)
    except EngineError as err:
        names, error = ("metrics.csv",), (type(err), str(err))
    else:
        names, error = ("metrics.csv", "store.json", "model.json"), None
    return error, [(run_dir / name).read_bytes() if (run_dir / name).exists() else None
                   for name in names]


# lone-row batches with a linear head: task-0 training diverges
DIVERGING = ["dataset.n_classes=6", "tasks.count=2", 'tasks.mode="warm"', "dataset.n_train=10",
             "optim.batch_new=1", "optim.epochs_initial=2", 'model.head_mode="linear"',
             "model.hidden=[8]", "model.feature_dim=42", "seeds.randomness=3"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_diverging_run_reports_only_the_engine_error(tmp_path, monkeypatch, cpus):
    """The engine owns its floating-point state: numpy's overflow and
    invalid-value warnings do not escape a run (the suite turns them into
    errors), and the engine's finiteness checks report the divergence."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    with pytest.raises(NumericError) as raised:
        runner.run_benchmark(tiny_config(tmp_path, *DIVERGING))
    assert str(raised.value) == "stage 'initial-training': non-finite gradient"


# data at these scales is finite in float64 and trains in float64, but the
# replay attack, which runs in float32, meets a squared distance (1e18) or
# an input row (1e40) beyond float32's range
@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("cluster_std", ["1e18", "1e40"])
def test_float32_attack_overflow_names_float32_range(tmp_path, monkeypatch, cluster_std, cpus):
    """One CPU attacks inline, two share the attacks with the replay helper:
    either way the error names the float32 attack's range, not the data."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    with pytest.raises(NumericError, match=r"^stage 'task-training': non-finite .*: finite in "
                                           r"float64, but beyond the float32 attack's range "
                                           r"\(about 3\.4e38\)$"):
        runner.run_benchmark(tiny_config(tmp_path, f"dataset.cluster_std={cluster_std}"))


@pytest.mark.skipif(blas.lookup() is None or "fork" not in
                    multiprocessing.get_all_start_methods(),
                    reason="the helpers are forked under OpenBLAS")
@pytest.mark.filterwarnings("ignore:drift sampling wants")  # tiny tasks hold few rows
@settings(max_examples=30, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(split=st.sampled_from(SPLITS), drawn=st.fixed_dictionaries(DRAWN))
def test_forked_runs_equal_inline_runs_over_drawn_configs(tmp_path_factory, split, drawn):
    """Each drawn config runs with both helpers (two CPUs) and with
    ``train.use_helper`` off: the same files, or the same engine error and
    metrics.csv.  Any other exception fails the test."""
    drawn = dict(drawn, **dict(zip(("dataset.n_classes", "tasks.count", "tasks.mode"), split)))
    for key, value in drawn.items():
        assert CFG.SCHEMA[key][1].test(value), key
    out = tmp_path_factory.mktemp("drawn")
    cfg = tiny_config(out, *(f"{key}={json.dumps(value)}" for key, value in drawn.items()))
    results = []
    for helpers in (True, False):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            if not helpers:
                mp.setattr(TR, "use_helper", lambda: False)
            results.append(outcome(cfg))
        shutil.rmtree(runner._run_dir(cfg, None), ignore_errors=True)
    forked, inline = results
    assert forked[0] == inline[0]
    assert forked[1] == inline[1]
    assert inline[0] is not None or None not in inline[1]

"""Benchmark orchestration: the full incremental loop, persistence, metrics.

A run is a fold over tasks.  ``first_task`` trains the initial model with
cross-entropy and stores its class statistics.  ``learn`` trains each later
task: snapshot, candidate sampling and replay training.  ``settle`` then
calibrates the stored classes for the drift and adds the task's class
statistics, and ``evaluation`` tunes the shrinkage and scores every
configured classifier.  Each is a function of the config, the task stream,
the model state, the store and the task index.  The next task reads the
settled store only for its candidate sampling, or after its training when
the run does not replay, and no later stage reads an evaluation.  So once
task t has trained, one call (``_settling``) starts its settling and
evaluation: on a spare CPU in a forked process, which works while task t+1
trains and sends the settled store back first; for the last task, and on
one CPU, here and now.  Each task t but the last is recorded once task
t+1 has trained and its settling has started; its helper is reaped then.
Everything an emitted number depends on lands in the run directory:
resolved config, seed record, per-epoch loss rows, per-task accuracy rows,
and the final summary.  The rows are one list, written whole to
``metrics.csv`` at each task boundary and before an error is raised: a pure
function of (config, seeds).  Wall-clock and host metadata, and whether the
run completed or failed with which engine error, go to ``meta.json`` so
identical runs stay byte-identical.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import blas
from . import calib as C
from . import classify as CL
from . import config as CFG
from . import data as D
from . import model as M
from . import replay as R
from . import train as TR
from .arrays import csv_text, write_atomic
from .errors import ConfigError, ContractError, DecodeError, EngineError

# named rng stream ids (entropy = [seed, stream, task])
_STREAM_MODEL = 0
_STREAM_TRAIN = 1
_STREAM_CANDIDATES = 2

METRICS_HEADER = ("stage", "task", "epoch", "key", "value")


@dataclass
class RunResult:
    run_dir: Path
    summary: dict            # classifier -> {"A_inc": ..., "A_last": ...}
    accuracy: dict           # classifier -> EvalResult
    gammas: list             # per-task tuned (gamma1, gamma2) or None


def _rng(seed: int, stream: int, task: int = 0):
    return np.random.default_rng([seed, stream, task])


def stream_from_config(config: dict) -> D.TaskStream:
    ds = config["dataset"]
    t_count, mode = config["tasks"]["count"], config["tasks"]["mode"]
    shuffle_seed = config["seeds"]["class_shuffle"]
    seed = config["seeds"]["randomness"]
    if ds["kind"] == "synthetic":
        return D.make_task_stream(CFG.build_synthetic_spec(config), t_count, mode,
                                  seed, shuffle_seed)
    loader = D.load_csv if ds["kind"] == "csv" else D.load_binary
    pool = loader(ds["train_path"], split="train")
    test = loader(ds["test_path"], split="test")
    return _partition_ingested(pool, test, ds, t_count, mode, seed, shuffle_seed)


def _partition_ingested(pool: D.LabeledSet, test: D.LabeledSet, ds: dict,
                        t_count: int, mode: str, seed: int, shuffle_seed: int) -> D.TaskStream:
    train_ids, test_ids = set(pool.classes()), set(test.classes())
    if test_ids != train_ids:
        raise DecodeError(f"{ds['test_path']}: must hold exactly the classes of "
                          f"{ds['train_path']}; test-only classes "
                          f"{sorted(test_ids - train_ids)}, train-only classes "
                          f"{sorted(train_ids - test_ids)}")
    try:
        groups = D.shuffled_groups(pool.classes(), t_count, mode, shuffle_seed)
    except ConfigError as err:
        raise ConfigError(f"{ds['train_path']} holds {len(train_ids)} classes, "
                          f"tasks.count={t_count}, tasks.mode={mode!r}: {err}") from None
    rng = np.random.default_rng([seed, 9])
    labels, test_labels = np.asarray(pool.y), np.asarray(test.y)
    train, val, tests = [], [], []
    for group in groups:
        tr_rows, tr_y, va_rows, va_y = [], [], [], []
        for cid in group:
            rows = pool.x[labels == cid]
            perm = rng.permutation(len(rows))
            n_val = max(1, int(round(ds["val_fraction"] * len(rows))))
            if len(rows) - n_val < 2:
                raise DecodeError(f"{ds['train_path']}: class {cid} has {len(rows)} rows; "
                                  f"dataset.val_fraction={ds['val_fraction']} takes {n_val} "
                                  f"and leaves {len(rows) - n_val} for training, fewer than "
                                  f"the 2 a class's covariance needs")
            val_idx, train_idx = perm[:n_val], perm[n_val:]
            tr_rows.append(rows[train_idx])
            tr_y.extend([cid] * len(train_idx))
            va_rows.append(rows[val_idx])
            va_y.extend([cid] * n_val)
        train.append(D.LabeledSet(np.concatenate(tr_rows), tuple(tr_y), "train"))
        val.append(D.LabeledSet(np.concatenate(va_rows), tuple(va_y), "val"))
        keep = np.isin(test_labels, group)
        tests.append(D.LabeledSet(test.x[keep], tuple(int(v) for v in test_labels[keep]), "test"))
    return D.TaskStream(mode, groups, tuple(train), tuple(val), tuple(tests))


def _run_dir(config: dict, out_dir) -> Path:
    seed = config["seeds"]["randomness"]
    shuffle_seed = config["seeds"]["class_shuffle"]
    tag = config["output"]["tag"] or f"run_s{seed}_c{shuffle_seed}"
    return Path(out_dir if out_dir is not None else config["output"]["dir"]) / tag


def worker_count(n_runs: int) -> int:
    """Processes for ``n_runs`` independent runs: one per usable CPU, at most
    one per run."""
    return min(len(blas.usable_cpus()), n_runs)


def split_cpus(cpus, workers: int) -> list[set[int]]:
    """``cpus`` dealt into ``workers`` disjoint, non-empty sets of consecutive
    ids that together cover them."""
    cpus = sorted(cpus)
    if not 1 <= workers <= len(cpus):
        raise ContractError(f"cannot split {len(cpus)} CPUs among {workers} workers")
    return [set(part.tolist()) for part in np.array_split(cpus, workers)]


def _take_cpus(cpu_sets) -> None:
    """Pool initializer: pin this worker to the next unclaimed CPU set."""
    cpus = cpu_sets.get()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def run_many(configs, out_dir=None) -> list[RunResult]:
    """``run_benchmark`` for each config, in parallel processes.

    Results come back in input order.  Each run is a pure function of its
    config, so its artifacts do not depend on which process ran it.  With
    one worker the runs execute in this process.  Otherwise each worker is
    pinned to its own share of the usable CPUs (``split_cpus``), so a
    worker left with one CPU forks no helper process and the pool
    never asks for more CPUs than it has.  An error raised in a run is
    raised here with its type and message.  Every config is validated here
    first, and two configs may not share a run directory.
    """
    configs = list(configs)
    dirs = set()
    for config in configs:
        CFG.validate_config(config)
        run_dir = _run_dir(config, out_dir)
        if run_dir in dirs:
            raise ConfigError(f"two runs would write the same run directory {run_dir}; "
                              f"give them distinct output.tag values")
        dirs.add(run_dir)
    workers = worker_count(len(configs))
    if workers <= 1:
        return [run_benchmark(config, out_dir) for config in configs]
    # imported here so that a single run's process does not carry the pool's
    # modules (about 1 MB of peak RSS)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("spawn")
    cpu_sets = ctx.SimpleQueue()
    for cpus in split_cpus(blas.usable_cpus(), workers):
        cpu_sets.put(cpus)
    pool = ProcessPoolExecutor(workers, mp_context=ctx, initializer=_take_cpus,
                               initargs=(cpu_sets,))
    try:
        return list(pool.map(run_benchmark, configs, [out_dir] * len(configs)))
    finally:
        pool.shutdown(cancel_futures=True)
        cpu_sets.close()


def run_benchmark(config: dict, out_dir=None) -> RunResult:
    """Execute one seeded run end to end, on one BLAS thread, and persist its
    artifacts.  numpy's overflow, invalid-value and divide warnings are off
    for the run and the helpers it forks: the engine checks finiteness
    itself and reports a divergence as its own ``NumericError``."""
    with blas.single_thread(), np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _run(config, out_dir)


def _stage(name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with the stage's name before an engine error."""
    try:
        return fn(*args, **kwargs)
    except EngineError as err:
        raise type(err)(f"stage {name!r}: {err}") from err


def _add_stats(config, stream, state, store, t) -> None:
    """Add task ``t``'s class statistics under ``state``'s extractor to ``store``."""
    svd_k = config["covariance"]["svd_k"] if config["covariance"]["mode"] == "svd" else None
    for cid, (mu, cov) in TR.compute_class_stats(state.extractor, stream.train[t]).items():
        store.add(cid, mu, cov, task=t, svd_k=svd_k)


def first_task(config: dict, stream: D.TaskStream) -> tuple[M.ModelState, C.PrototypeStore]:
    """Task 0: a fresh model trained with cross-entropy alone, and a store of
    its classes' statistics."""
    seed, model = config["seeds"]["randomness"], config["model"]
    rng_model = _rng(seed, _STREAM_MODEL)
    extractor = M.default_extractor(stream.train[0].input_dim, model["feature_dim"], rng_model,
                                    model["hidden"], model["activation"])
    head = M.init_head(stream.class_groups[0], model["feature_dim"], rng_model,
                       mode=model["head_mode"], scale=model["cosine_scale"],
                       init_std=model["head_init_std"])
    state = _stage("initial-training", TR.train_initial, M.ModelState(extractor, head, None, 0),
                   stream.train[0], CFG.build_loss_config(config),
                   CFG.build_optim_config(config, initial=True), _rng(seed, _STREAM_TRAIN, 0))
    store = C.PrototypeStore()
    _stage("statistics", _add_stats, config, stream, state, store, 0)
    return state, store


@contextmanager
def _keeping_frozen(state: M.ModelState, t: int):
    """Raise ``ContractError`` if the block returns with ``state``'s frozen
    model changed."""
    frozen_sum = M.checksum(*state.frozen)
    yield
    if M.checksum(*state.frozen) != frozen_sum:
        raise ContractError(f"frozen model mutated during task {t}")


def learn(config: dict, stream: D.TaskStream, state: M.ModelState,
          store: C.PrototypeStore | None, t: int) -> tuple[M.ModelState, list]:
    """Task ``t`` >= 1 from ``begin_task`` to the end of its training: the
    trained state and the task's metric rows, not yet written.

    ``store`` is the store as settled after task t-1, read only when the
    run replays, for candidate sampling; a run that does not replay passes
    None, and its task trains while the store may still be settling.  The
    task's ``noise_r`` row is logged only when its replay rows are attacked
    with noise.
    """
    seed = config["seeds"]["randomness"]
    state = M.begin_task(state, stream.class_groups[t], _rng(seed, _STREAM_MODEL, t),
                         init_std=config["model"]["head_init_std"])
    loss_cfg = CFG.build_loss_config(config)
    attack_cfg = CFG.build_attack_config(config) if config["attack"]["enabled"] else None

    bank = centers = None
    noise_r, rows = 0.0, []
    with _keeping_frozen(state, t):
        if _replays(config):
            prototypes = store.prototypes()
            bank = _stage("candidate-sampling", R.build_candidate_set,
                          state.frozen[0], stream.train[t], prototypes,
                          config["replay"]["k"], _rng(seed, _STREAM_CANDIDATES, t),
                          config["replay"]["cap"],
                          CFG.build_family(config, input_dim=stream.train[t].input_dim))
            # the bank's class order
            centers = np.array([prototypes[cid] for cid in sorted(prototypes)])
            if attack_cfg is not None and config["attack"]["noise"]:
                noise_r = R.noise_magnitude({cid: e.cov for cid, e in store.entries.items()},
                                            config["model"]["feature_dim"])
                rows.append(("attack", t, "", "noise_r", noise_r))
        trained, epochs = _stage("task-training", TR.run_task, state, stream.train[t],
                                 bank, centers, noise_r, loss_cfg,
                                 CFG.build_optim_config(config, initial=False),
                                 attack_cfg, _rng(seed, _STREAM_TRAIN, t))
    return trained, rows + [
        ("train", t, row["epoch"], key, row[key])
        for row in epochs for key in ("ce_loss", "kd_loss", "lr")]


def _calibrate(config: dict, stream: D.TaskStream, state: M.ModelState,
               store: C.PrototypeStore, t: int) -> None:
    """Replace each stored class by its calibration for the drift from the
    frozen extractor to ``state``'s, fitted on its drift samples (ADC)."""
    adc, frozen_ext = config["adc"], state.frozen[0]
    samples = C.generate_drift_samples(frozen_ext, stream.train[t], store.prototypes(),
                                       *CFG.build_drift_config(config))
    for cid, drift in samples.items():
        feats_old = M.features(frozen_ext, drift)
        feats_new = M.features(state.extractor, drift)
        # cap the step at the GD stability bound; feature scale is
        # data-dependent and a fixed lr can silently diverge
        lr = min(adc["transfer_lr"], C.stable_transfer_lr(feats_old))
        w, delta = C.fit_transfer_matrix(feats_old, feats_new, lr, adc["transfer_epochs"])
        store.entries[cid] = C.calibrate(store.entries[cid], w, delta, task=t)


def settle(config: dict, stream: D.TaskStream, state: M.ModelState,
           store: C.PrototypeStore, t: int) -> None:
    """Settle ``store`` in place once task ``t`` >= 1 has trained into
    ``state``: with ADC, calibrate the stored classes; then add task ``t``'s
    class statistics."""
    with _keeping_frozen(state, t):
        if config["adc"]["enabled"]:
            _stage("calibration", _calibrate, config, stream, state, store, t)
        _stage("statistics", _add_stats, config, stream, state, store, t)


def evaluation(config: dict, stream: D.TaskStream, state: M.ModelState,
               store: C.PrototypeStore, t: int) -> tuple[tuple | None, dict]:
    """The tuned shrinkage pair (None without the Mahalanobis head) and each
    classifier's per-group test accuracies after task ``t``."""
    gamma = scorer = None
    if "mahalanobis" in config["classifiers"]:
        vals = stream.val[:t + 1]
        val = D.LabeledSet(np.concatenate([v.x for v in vals]),
                           tuple(y for v in vals for y in v.y), "val")
        # one scorer per task serves the grid scan and the eval at the tuned pair
        scorer = _stage("shrinkage-tuning", CL.MahalanobisScorer, store)
        gamma = _stage("shrinkage-tuning", C.tune_shrinkage, scorer, state.extractor, val,
                       config["shrinkage"]["grid"])
    # every seen group in one extractor pass, shared by every classifier
    tests = stream.test[:t + 1]
    feats = _stage("eval-features", M.features, state.extractor,
                   np.concatenate([test.x for test in tests]))
    ends = np.cumsum([len(test) for test in tests])[:-1]
    accuracies = {}
    for name in config["classifiers"]:
        pred = _stage(f"eval-{name}", CL.predict, name, state, store, feats, gamma, scorer)
        accuracies[name] = [float(np.mean(group_pred == np.asarray(test.y)))
                            for test, group_pred in zip(tests, np.split(pred, ends))]
    return gamma, accuracies


def evaluation_rows(t: int, gamma: tuple | None, accuracies: dict) -> list:
    """The metric rows of task ``t``'s evaluation: the tuned shrinkage pair,
    if any, then each classifier's per-group accuracies."""
    rows = [] if gamma is None else [("calibration", t, "", "gamma1", gamma[0]),
                                     ("calibration", t, "", "gamma2", gamma[1])]
    return rows + [("eval", t, "", f"acc/{name}/group{j}", acc)
                   for name, row in accuracies.items() for j, acc in enumerate(row)]


def _replays(config: dict) -> bool:
    """Whether each task t >= 1 replays old classes, and so reads the store
    before it trains."""
    return config["replay"]["enabled"] and CFG.build_loss_config(config).lambda_kd > 0.0


def _settled_then_evaluated(config: dict, stream: D.TaskStream, state: M.ModelState,
                            store: C.PrototypeStore, t: int):
    """Two items: ``store`` settled after task ``t`` (``first_task`` settles
    task 0's), then ``evaluation`` of task ``t``.

    A helper that sends a store larger than its pipe holds waits there for
    the reader.  So where the next task reads the store only once it has
    trained, and then waits for the evaluation too, the evaluation is
    computed before the store is yielded.  Before the last task the store
    comes first: the run settles and evaluates the last task while this
    evaluation goes on.
    """
    if t > 0:
        settle(config, stream, state, store, t)
    evaluated = _items(lambda: evaluation(config, stream, state, store, t))
    if not _replays(config) and t < stream.task_count - 2:
        with suppress(Exception):  # raised below, after the store
            evaluated(0)
    yield store
    yield evaluated(0)


def _items(recv):
    """``item(i)``: the i-th result of successive ``recv()`` calls.  Every
    call returns the same value or raises the same error."""
    got = []  # (value, error) per result received

    def item(i):
        while len(got) <= i:
            try:
                got.append((recv(), None))
            except Exception as err:
                got.append((None, err))
        value, err = got[i]
        if err is not None:
            raise err
        return value

    return item


def _record(t: int, learned: list, rows: list, results: list, item) -> None:
    """Once task ``t``'s store is settled (``item(0)``), append ``learned``,
    its training rows, to ``rows``; then its evaluation (``item(1)``) to
    ``results`` and its rows to ``rows``."""
    item(0)
    rows += learned
    results.append(item(1))
    rows += evaluation_rows(t, *results[-1])


def _settling(config: dict, stream: D.TaskStream, state: M.ModelState,
              store: C.PrototypeStore, t: int, helpers: ExitStack):
    """``_items`` over ``_settled_then_evaluated(config, stream, state, store,
    t)``, once task ``t`` has trained into ``state``.  Where ``TR.use_helper``
    holds and ``t`` is not the last task, a forked ``TR.Helper`` computes both
    items from its copy of the arguments while the run goes on; it is entered
    on ``helpers``, whose exit reaps it.  Elsewhere both are computed here
    and now.  An error is raised where the failed item is asked for."""
    items = partial(_settled_then_evaluated, config, stream, state, store, t)
    if t < stream.task_count - 1 and TR.use_helper():
        helper = helpers.enter_context(closing(TR.Helper(items, "evaluation helper")))
        return _items(helper.recv)
    computed = items()
    item = _items(lambda: next(computed))
    with suppress(Exception):
        item(1)
    return item


def _run(config: dict, out_dir) -> RunResult:
    CFG.validate_config(config)
    seed = config["seeds"]["randomness"]
    shuffle_seed = config["seeds"]["class_shuffle"]
    started = time.time()
    stream = _stage("dataset", stream_from_config, config)
    t_count = stream.task_count
    if _replays(config) and t_count > 1:
        # each old class takes k of an incremental task's training rows
        k, smallest = config["replay"]["k"], min(len(train) for train in stream.train[1:])
        if k > smallest:
            raise ConfigError(f"replay.k={k} exceeds {smallest}, the training rows of "
                              f"the smallest incremental task")

    # the run directory appears only once the data and the config checks pass
    run_dir = _run_dir(config, out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_atomic(run_dir / "config.json", json.dumps(config, indent=2, sort_keys=True))
    write_atomic(run_dir / "seeds.json",
                 json.dumps({"randomness": seed, "class_shuffle": shuffle_seed}))
    metrics = run_dir / "metrics.csv"
    rows, results = [], []  # every metric row so far; (gamma, accuracies) per task
    status = None  # set once the run completes or fails with an engine error
    try:
        with ExitStack() as helpers:  # the evaluation helpers not yet reaped
            state, store = first_task(config, stream)
            item, learned = _settling(config, stream, state, store, 0, helpers), []
            del store  # replaced by item(0): a helper settles its own copy
            for t in range(1, t_count):
                # task t trains while task t-1 settles; task t-1 is recorded
                # once task t's settling has started, then its helper is reaped
                with helpers.pop_all():
                    try:
                        state, trained = learn(config, stream, state,
                                               item(0) if _replays(config) else None, t)
                        settling = _settling(config, stream, state, item(0), t, helpers)
                    finally:
                        _record(t - 1, learned, rows, results, item)
                item, learned = settling, trained
                write_atomic(metrics, csv_text(METRICS_HEADER, rows))
        _record(t_count - 1, learned, rows, results, item)

        summary, accuracy = {}, {}
        for name in config["classifiers"]:
            accuracy[name] = CL.metrics([acc[name] for _, acc in results], t_count)
            summary[name] = {"A_inc": accuracy[name].incremental, "A_last": accuracy[name].final}
            rows += [("summary", t_count - 1, "", f"A_inc/{name}", accuracy[name].incremental),
                     ("summary", t_count - 1, "", f"A_last/{name}", accuracy[name].final)]
        M.save_checkpoint(state, run_dir / "model.json")
        C.save_store(item(0), run_dir / "store.json")
        status = {"status": "completed"}
    except EngineError as err:
        status = {"status": "failed", "error": {"type": type(err).__name__, "message": str(err)}}
        raise
    finally:
        # every row up to the last task boundary, or up to the stage that raised
        write_atomic(metrics, csv_text(METRICS_HEADER, rows))
        if status is not None:
            write_atomic(run_dir / "meta.json", json.dumps({
                **status,
                "wall_seconds": time.time() - started,
                "task_count": t_count,
                "argv": sys.argv,
                "engine_version": _package_version(),
            }))
    return RunResult(run_dir, summary, accuracy, [gamma for gamma, _ in results])


def _package_version() -> str:
    from . import __version__

    return __version__


# -- storage accounting ----------------------------------------------------------


def storage_report(n_old_classes: int, feature_dim: int,
                   n_candidates_per_class: int, n_task_samples: int,
                   svd_k: int | None = None, float_bytes: int = 8,
                   index_bytes: int = 4) -> dict:
    """Byte counts per stored component: one ``data.POLICY_DTYPE`` record per
    task sample, and ``float_bytes``/``index_bytes`` per stored scalar so the
    report can mirror external accounting conventions (e.g. f32 + int64).
    """
    if n_old_classes < 0:
        raise ConfigError("class count must be non-negative")
    d = feature_dim
    report = {
        "prototypes": n_old_classes * d * float_bytes,
        "covariances_full": n_old_classes * d * d * float_bytes,
        "candidate_indices": n_old_classes * n_candidates_per_class * index_bytes,
        "augmentation_params": n_task_samples * D.POLICY_RECORD_BYTES,
    }
    if svd_k is not None:
        report["covariances_svd"] = (
            n_old_classes * C.decomposed_scalars(d, svd_k) * float_bytes)
    return report


def format_storage_table(report: dict) -> str:
    lines = [f"{'component':<22}{'bytes':>14}{'MB':>10}"]
    for key, nbytes in report.items():
        lines.append(f"{key:<22}{nbytes:>14}{nbytes / 1e6:>10.2f}")
    return "\n".join(lines)

"""Benchmark orchestration: the full incremental loop, persistence, metrics.

A run executes: initial CE training, class statistics, then per task —
snapshot, candidate sampling, replay training, drift calibration, new-class
statistics, shrinkage tuning, and evaluation with every configured
classifier.  A task's evaluation feeds no later stage, so on a spare CPU it
runs in a forked process while the next task trains.  Everything an emitted
number depends on lands in the run directory: resolved config, seed record,
per-epoch loss rows, per-task accuracy rows, and the final summary.  The
metrics CSV is a pure function of (config, seeds); wall-clock and host
metadata go to a separate file so identical runs stay byte-identical.
"""

from __future__ import annotations

import csv
import json
import os
import sys
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
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
from .arrays import write_text_atomic
from .errors import ConfigError, ContractError, DecodeError, EngineError

# named rng stream ids (entropy = [seed, stream, task])
_STREAM_MODEL = 0
_STREAM_TRAIN = 1
_STREAM_CANDIDATES = 2


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
    labels = np.asarray(pool.y)
    test_labels = np.asarray(test.y)

    def carve(group):
        tr_rows, tr_y, va_rows, va_y = [], [], [], []
        for cid in group:
            rows = pool.x[labels == cid]
            perm = rng.permutation(len(rows))
            n_val = max(1, int(round(ds["val_fraction"] * len(rows))))
            val_idx, train_idx = perm[:n_val], perm[n_val:]
            tr_rows.append(rows[train_idx])
            tr_y.extend([cid] * len(train_idx))
            va_rows.append(rows[val_idx])
            va_y.extend([cid] * n_val)
        return (D.LabeledSet(np.concatenate(tr_rows), tuple(tr_y), "train"),
                D.LabeledSet(np.concatenate(va_rows), tuple(va_y), "val"))

    def test_of(group):
        keep = np.isin(test_labels, group)
        return D.LabeledSet(test.x[keep],
                            tuple(int(v) for v in test_labels[keep]), "test")

    carved = [carve(g) for g in groups]
    return D.TaskStream(
        mode, groups,
        tuple(tr for tr, _ in carved),
        tuple(va for _, va in carved),
        tuple(test_of(g) for g in groups),
    )


def _merged_val(stream: D.TaskStream, upto: int) -> D.LabeledSet:
    xs = np.concatenate([stream.val[j].x for j in range(upto + 1)])
    ys = tuple(y for j in range(upto + 1) for y in stream.val[j].y)
    return D.LabeledSet(xs, ys, "val")


class _CsvLog:
    """Append-only (stage, task, epoch, key, value) rows."""

    def __init__(self, path: Path):
        self.path = path
        with path.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["stage", "task", "epoch", "key", "value"])

    def add(self, stage, task, epoch, key, value):
        if isinstance(value, float):  # numpy scalars included, written as plain floats
            value = repr(float(value))
        with self.path.open("a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow([stage, task, epoch, key, value])


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
    artifacts."""
    with blas.single_thread():
        return _run(config, out_dir)


def _run(config: dict, out_dir) -> RunResult:
    CFG.validate_config(config)
    seed = config["seeds"]["randomness"]
    shuffle_seed = config["seeds"]["class_shuffle"]
    started = time.time()

    def stage(name, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except EngineError as err:
            raise type(err)(f"stage {name!r}: {err}") from err

    stream = stage("dataset", stream_from_config, config)
    t_count = stream.task_count
    d = config["model"]["feature_dim"]
    family = CFG.build_family(config, input_dim=stream.train[0].input_dim)
    loss_cfg = CFG.build_loss_config(config)
    replaying = config["replay"]["enabled"] and loss_cfg.lambda_kd > 0.0
    if replaying and t_count > 1:
        # each old class takes k of an incremental task's training rows
        k, rows = config["replay"]["k"], min(len(train) for train in stream.train[1:])
        if k > rows:
            raise ConfigError(f"replay.k={k} exceeds {rows}, the training rows of "
                              f"the smallest incremental task")
    attack_cfg = CFG.build_attack_config(config) if config["attack"]["enabled"] else None
    drift_cfg = CFG.build_drift_config(config)
    cov_mode = config["covariance"]["mode"]
    svd_k = config["covariance"]["svd_k"] if cov_mode == "svd" else None
    classifiers = list(config["classifiers"])
    grid = tuple(config["shrinkage"]["grid"])
    use_maha = "mahalanobis" in classifiers

    # the run directory appears only once the data and the config checks pass
    run_dir = _run_dir(config, out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    write_text_atomic(run_dir / "config.json", json.dumps(config, indent=2, sort_keys=True))
    write_text_atomic(run_dir / "seeds.json",
                      json.dumps({"randomness": seed, "class_shuffle": shuffle_seed}))
    log = _CsvLog(run_dir / "metrics.csv")

    rng_model = _rng(seed, _STREAM_MODEL)
    extractor = M.default_extractor(stream.train[0].input_dim, d, rng_model,
                                    config["model"]["hidden"], config["model"]["activation"])
    head = M.init_head(stream.class_groups[0], d, rng_model,
                       mode=config["model"]["head_mode"],
                       scale=config["model"]["cosine_scale"],
                       init_std=config["model"]["head_init_std"])
    state = M.ModelState(extractor, head, None, 0)

    state = stage("initial-training", TR.train_initial, state, stream.train[0],
                  loss_cfg, CFG.build_optim_config(config, initial=True),
                  _rng(seed, _STREAM_TRAIN, 0))

    store = C.PrototypeStore()

    def add_stats(task_index, extractor):
        stats = TR.compute_class_stats(extractor, stream.train[task_index])
        for cid, (mu, cov) in stats.items():
            store.add(cid, mu, cov, task=task_index, svd_k=svd_k)

    stage("statistics", add_stats, 0, state.extractor)

    def learn(t, state):
        """Task ``t`` from ``begin_task`` to its new-class statistics: the
        trained state and the task's metric rows, not yet written."""
        state = M.begin_task(state, stream.class_groups[t], _rng(seed, _STREAM_MODEL, t),
                             init_std=config["model"]["head_init_std"])
        frozen_ext, _ = state.frozen
        frozen_sum = M.checksum(*state.frozen)

        candidates = None
        if replaying:
            candidates = stage("candidate-sampling", R.build_candidate_set,
                               frozen_ext, stream.train[t], store.prototypes(),
                               config["replay"]["k"], _rng(seed, _STREAM_CANDIDATES, t),
                               config["replay"]["cap"], family)

        rows, noise_r = [], 0.0
        if attack_cfg is not None and config["attack"]["noise"]:
            noise_r = R.noise_magnitude(store.covariances(), d)
            rows.append(("attack", t, "", "noise_r", noise_r))

        state, epochs = stage("task-training", TR.run_task, state, stream.train[t],
                              candidates, store.prototypes(), noise_r, loss_cfg,
                              CFG.build_optim_config(config, initial=False),
                              attack_cfg, _rng(seed, _STREAM_TRAIN, t))
        rows += [("train", t, row["epoch"], key, row[key])
                 for row in epochs for key in ("ce_loss", "kd_loss", "lr")]

        if config["adc"]["enabled"]:
            def calibrate_old():
                samples = C.generate_drift_samples(frozen_ext, stream.train[t],
                                                   store.prototypes(), *drift_cfg)
                for cid, drift in samples.items():
                    feats_old = M.features(frozen_ext, drift)
                    feats_new = M.features(state.extractor, drift)
                    # cap the step at the GD stability bound; feature scale is
                    # data-dependent and a fixed lr can silently diverge
                    lr = min(config["adc"]["transfer_lr"], C.stable_transfer_lr(feats_old))
                    w, delta = C.fit_transfer_matrix(
                        feats_old, feats_new, lr, config["adc"]["transfer_epochs"])
                    store.entries[cid] = C.calibrate(store.entries[cid], w, delta, task=t)
            stage("calibration", calibrate_old)

        stage("statistics", add_stats, t, state.extractor)
        if M.checksum(*state.frozen) != frozen_sum:
            raise ContractError(f"frozen model mutated during task {t}")
        return state, rows

    def evaluation(task_index, state, store):
        """The tuned shrinkage pair (None without the Mahalanobis head) and each
        classifier's per-group test accuracies after task ``task_index``."""
        gamma = scorer = None
        if use_maha:
            # one scorer per task serves both the grid scan and the eval
            scorer = stage("shrinkage-tuning", CL.MahalanobisScorer, store, grid[0], grid[0])
            gamma = stage("shrinkage-tuning", C.tune_shrinkage, store, state.extractor,
                          _merged_val(stream, task_index), grid, scorer)
        # every seen group in one pass: one scorer per classifier and task
        tests = stream.test[:task_index + 1]
        x = np.concatenate([test.x for test in tests])
        ends = np.cumsum([len(test) for test in tests])[:-1]
        accuracies = {}
        for name in classifiers:
            pred = stage(f"eval-{name}", CL.predict, name, state, store, x,
                         *(gamma if gamma else (1.0, 1.0)), scorer=scorer)
            accuracies[name] = [float(np.mean(group_pred == np.asarray(test.y)))
                                for test, group_pred in zip(tests, np.split(pred, ends))]
        return gamma, accuracies

    @contextmanager
    def evaluating(task_index, state, store):
        """Yield a function that returns ``evaluation(task_index, state,
        store)``.  Where ``TR.use_helper`` holds, a forked ``TR.Helper``
        computes it from its copy of the two while the caller goes on, and is
        reaped on exit; elsewhere it is computed here, on entry."""
        if not TR.use_helper():
            result = evaluation(task_index, state, store)
            yield lambda: result
            return
        with closing(TR.Helper(lambda: [evaluation(task_index, state, store)],
                               "evaluation helper")) as helper:
            yield helper.recv

    gammas: list = []
    acc_rows: dict[str, list[list[float]]] = {name: [] for name in classifiers}

    def record(task_index, result):
        gamma, accuracies = result
        if gamma is not None:
            log.add("calibration", task_index, "", "gamma1", gamma[0])
            log.add("calibration", task_index, "", "gamma2", gamma[1])
        gammas.append(gamma)
        for name, row in accuracies.items():
            for j, acc in enumerate(row):
                log.add("eval", task_index, "", f"acc/{name}/group{j}", acc)
            acc_rows[name].append(row)

    # task t-1 is evaluated while task t learns; its rows come first
    for t in range(1, t_count):
        with evaluating(t - 1, state, store) as evaluated:
            try:
                state, rows = learn(t, state)
            except Exception:
                record(t - 1, evaluated())  # an error of task t-1 comes first, as inline
                raise
            record(t - 1, evaluated())
        for row in rows:
            log.add(*row)
    record(t_count - 1, evaluation(t_count - 1, state, store))

    summary = {}
    results = {}
    for name in classifiers:
        result = CL.metrics(acc_rows[name], t_count)
        results[name] = result
        summary[name] = {"A_inc": result.incremental, "A_last": result.final}
        log.add("summary", t_count - 1, "", f"A_inc/{name}", result.incremental)
        log.add("summary", t_count - 1, "", f"A_last/{name}", result.final)

    M.save_checkpoint(state, run_dir / "model.json")
    C.save_store(store, run_dir / "store.json")
    write_text_atomic(run_dir / "meta.json", json.dumps({
        "wall_seconds": time.time() - started,
        "task_count": t_count,
        "argv": sys.argv,
        "engine_version": _package_version(),
    }))
    return RunResult(run_dir, summary, results, gammas)


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

"""Config handling, benchmark orchestration, storage accounting, CLI."""

import csv
import importlib.util
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_calib import BAD_STORES
from test_data import BAD_APRDS, BAD_CSVS

from advreplay import calib as C
from advreplay import classify as CL
from advreplay import cli
from advreplay import config as CFG
from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
from advreplay import runner
from advreplay import train as TR
from advreplay.errors import ConfigError, ContractError, DecodeError, EngineError

TINY = [
    "dataset.n_classes=6", "dataset.n_train=24", "dataset.n_val=8",
    "dataset.n_test=10", "tasks.count=3",
    "model.hidden=[24,16]", "model.feature_dim=8",
    "optim.epochs_initial=4", "optim.epochs_incremental=4",
    "optim.batch_new=16", "optim.batch_replay=16",
    "replay.k=8", "attack.n_attack=2", "attack.alpha=2",
    "adc.candidates=20", "adc.transfer_epochs=50",
]


def tiny_config(tmp_path, *extra):
    cfg = CFG.load_config()
    for item in TINY + list(extra) + [f'output.dir="{tmp_path}"']:
        cfg = CFG.apply_override(cfg, item)
    return cfg


# -- config ------------------------------------------------------------------


def test_defaults_load_and_validate():
    cfg = CFG.load_config()
    assert cfg["loss"]["lambda_kd"] == 10.0
    assert cfg["seeds"]["class_shuffle"] == 1993
    assert len(cfg["shrinkage"]["grid"]) == 17


@pytest.mark.parametrize("override", [
    "attack.strenght=3", "optim.momentum=0.9", "attack.unit_norm=true"])
def test_unknown_key_rejected(override):
    with pytest.raises(ConfigError, match="unknown config key"):
        CFG.apply_override(CFG.load_config(), override)


# values that escaped as raw errors, were accepted and failed or misbehaved
# later, or were rejected by a message without their key; `advreplay run`
# must reject each naming its key
EARLY_REJECTED = [
    "replay.k=abc", "attack.alpha=abc", "adc.magnitude=0", "adc.iterations=0",
    "adc.transfer_epochs=-5",
    "model.hidden=abc", "model.hidden=[0]", 'shrinkage.grid=["a"]',
    "shrinkage.grid=[0,1]",
    "replay.cap=0", "dataset.val_fraction=1.5", "dataset.val_fraction=1.0",
    "dataset.val_fraction=-0.5", "dataset.n_train=1", "dataset.n_val=0", "dataset.n_test=0",
    'model.activation="sigmoid"', 'model.head_mode="foo"', "model.cosine_scale=0",
    "model.cosine_scale=-4",
    'classifiers=["ncm","ncm"]', "seeds.randomness=-1", "seeds.class_shuffle=-1",
    "output.dir=5", "output.tag=5", "dataset.train_path=5", "dataset.test_path=5",
    "optim.batch_new=0", "optim.epochs_initial=0", 'dataset.kind="x"', 'tasks.mode="x"',
    "attack.alpha=-1", "loss.kd_temperature=0",
    # overflow in cluster_std**2, a zero covariance for Cholesky, and
    # overflow in kd_temperature**2
    "dataset.cluster_std=1e300", "dataset.cluster_std=1e-300",
    "loss.kd_temperature=1e300", "loss.kd_temperature=1e155",
]

def test_oversized_replay_k_rejected_before_training(tmp_path, monkeypatch):
    # 2 rows per class and 2 classes per task: k=8 cannot be met in any task
    trained = []
    monkeypatch.setattr(TR, "train_initial", lambda *args: trained.append(args))
    with pytest.raises(ConfigError, match=r"^replay\.k=8 exceeds 4,"):
        runner.run_benchmark(tiny_config(tmp_path, "dataset.n_train=2"))
    assert not trained


BAD_OVERRIDES = [
    "augmentation.crop_width_min=5", "augmentation.crop_width_min=-1",
    "augmentation.jitter_sigma_min=-0.5", "augmentation.scale_min=-3",
    "augmentation.scale_min=0", "augmentation.scale_max=0.5",
    "augmentation.crop_prob=1.5", "augmentation.flip_prob=-0.1",
    "augmentation.jitter_prob=2",
    "replay.k=0", "adc.candidates=0", "model.feature_dim=0", "adc.transfer_lr=-1",
    "dataset.n_classes=0", "dataset.input_dim=0", "dataset.cluster_std=0",
    "model.head_init_std=-1",
    *EARLY_REJECTED,
    "replay.cap=abc", "replay.k=2.5", "attack.noise=1", 'attack.enabled="false"',
    "model=3", "attack.alpha=NaN", "loss.lambda_kd=Infinity",
    'model.hidden=[2, "x"]', "model.hidden=[1.5]", "model.hidden=[true]",
    "shrinkage.grid=[-5]", "shrinkage.grid=[1e400]", "shrinkage.grid=[true]",
    "shrinkage.grid=[]", "shrinkage.grid=8", "shrinkage.grid=[8,8]", 'classifiers="ncm"',
    "classifiers=[1]",
]


@pytest.mark.parametrize("override", BAD_OVERRIDES)
def test_bad_value_rejected_naming_key(override):
    key = override.split("=")[0]
    with pytest.raises(ConfigError, match=re.escape(key)):
        CFG.load_config(overrides=[override])


# the last value each range derived from the code accepts, and the next
# float beyond it
@pytest.mark.parametrize("key,edge,beyond", [
    ("dataset.cluster_std", 2.1095373229726e-154, 0.0),
    ("dataset.cluster_std", 1.0947429332533783e+154, math.inf),
    ("loss.kd_temperature", 1.3407807929942596e+154, math.inf),
])
def test_a_value_at_a_derived_bound_runs_or_fails_as_an_engine_error(tmp_path, key, edge, beyond):
    with pytest.raises(ConfigError, match=re.escape(key)):
        CFG.load_config(overrides=[f"{key}={math.nextafter(edge, beyond)!r}"])
    try:
        runner.run_benchmark(tiny_config(tmp_path, f"{key}={edge!r}"))
    except EngineError:
        pass


# any JSON value, plus the names and small integers the rules turn on
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 70) | st.floats() | st.text()
    | st.sampled_from(["csv", "binary", "warm", "svd", "tanh", "linear", "ncm", ""]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@settings(max_examples=400, deadline=None, database=None)
@given(key=st.sampled_from(sorted(CFG.SCHEMA)), value=JSON_VALUES)
def test_any_json_value_loads_or_names_its_key(key, value):
    try:
        CFG.load_config(overrides=[f"{key}={json.dumps(value)}"])
    except ConfigError as err:
        assert key in str(err)


@pytest.mark.parametrize("overrides,keys", [
    (["tasks.count=7"], ["dataset.n_classes", "tasks.count", "tasks.mode"]),
    (['tasks.mode="warm"'], ["dataset.n_classes", "tasks.count", "tasks.mode"]),
    (['covariance.mode="svd"', "covariance.svd_k=40"],
     ["covariance.svd_k", "model.feature_dim", "covariance.mode"]),
    (['dataset.kind="binary"'], ["dataset.train_path", "dataset.kind"]),
    (["augmentation.scale_max=0.5"], ["augmentation.scale_min", "augmentation.scale_max"]),
])
def test_cross_key_rejection_names_every_key(overrides, keys):
    with pytest.raises(ConfigError) as err:
        CFG.load_config(overrides=overrides)
    assert [key for key in keys if key not in str(err.value)] == []


def test_missing_leaf_and_unknown_key_named_by_validation():
    cfg = CFG.load_config()
    del cfg["attack"]["noise"]
    with pytest.raises(ConfigError, match=r"^attack\.noise is missing$"):
        CFG.validate_config(cfg)
    cfg["attack"].update(noise=True, strength=3)
    with pytest.raises(ConfigError, match="unknown config key 'attack.strength'"):
        CFG.validate_config(cfg)


ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def load_workloads():
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1000])
@pytest.mark.parametrize("name", sorted(load_workloads().WORKLOADS))
def test_benchmark_workloads_load(tmp_path, name, seed):
    # the schema must never reject a workload the benchmark runs; empty
    # files stand in for the generated csv60 inputs
    workloads = load_workloads()
    for path in workloads.csv_paths(tmp_path, seed):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    cfg = CFG.load_config(*workloads.config_args(name, seed, ROOT, tmp_path))
    assert cfg["seeds"] == {"randomness": seed, "class_shuffle": 1993 + seed}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("*.json")))
def test_shipped_configs_load(name):
    CFG.load_config(CONFIG_DIR / name)


def test_nullable_and_integer_valued_numbers_accepted():
    cfg = CFG.load_config(overrides=["replay.cap=3", "replay.cap=null", "attack.alpha=2"])
    assert cfg["replay"]["cap"] is None and cfg["attack"]["alpha"] == 2


def test_reference_config_equals_defaults():
    assert CFG.load_config("configs/reference_cold20.json") == CFG.load_config()


def test_override_parses_json_values():
    cfg = CFG.apply_override(CFG.load_config(), "replay.cap=4")
    assert cfg["replay"]["cap"] == 4
    cfg = CFG.apply_override(cfg, "attack.noise=false")
    assert cfg["attack"]["noise"] is False
    cfg = CFG.apply_override(cfg, 'tasks.mode="warm"')
    assert cfg["tasks"]["mode"] == "warm"


def test_config_file_and_annotations(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "_note": "ignored",
        "tasks": {"count": 4, "_note": "also ignored"},
        "dataset": {"n_classes": 8},
    }))
    cfg = CFG.load_config(path)
    assert cfg["tasks"]["count"] == 4
    assert cfg["dataset"]["n_classes"] == 8


def test_missing_ingestion_paths_rejected():
    with pytest.raises(ConfigError, match="train_path"):
        CFG.load_config(overrides=['dataset.kind="csv"'])


def test_indivisible_task_split_rejected():
    with pytest.raises(ConfigError):
        CFG.load_config(overrides=["tasks.count=7"])


def test_shipped_reference_configs_load():
    for name in ("reference_cold20.json", "finetune_baseline.json", "warm20_t6.json"):
        cfg = CFG.load_config(f"configs/{name}")
        CFG.validate_config(cfg)


# -- runner ------------------------------------------------------------------


def test_tiny_run_products(tmp_path):
    result = runner.run_benchmark(tiny_config(tmp_path))
    run_dir = result.run_dir
    for artifact in ("config.json", "seeds.json", "metrics.csv", "model.json",
                     "store.json", "meta.json"):
        assert (run_dir / artifact).exists(), artifact
    text = (run_dir / "metrics.csv").read_text()
    assert "A_inc/ncm" in text and "A_last/mahalanobis" in text
    assert "ce_loss" in text and "gamma1" in text
    echoed = json.loads((run_dir / "config.json").read_text())
    assert echoed["tasks"]["count"] == 3
    meta = json.loads((run_dir / "meta.json").read_text())
    assert meta["status"] == "completed" and "error" not in meta
    for name in ("linear", "ncm", "mahalanobis"):
        assert 0.0 <= result.summary[name]["A_last"] <= 1.0


def test_identical_seeds_byte_identical_csv(tmp_path):
    a = runner.run_benchmark(tiny_config(tmp_path / "a"))
    b = runner.run_benchmark(tiny_config(tmp_path / "b"))
    csv_a = (a.run_dir / "metrics.csv").read_bytes()
    csv_b = (b.run_dir / "metrics.csv").read_bytes()
    assert csv_a == csv_b


def test_every_metrics_value_is_a_number(tmp_path):
    run = runner.run_benchmark(tiny_config(tmp_path))
    with (run.run_dir / "metrics.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert {"lr", "noise_r", "gamma1", "ce_loss"} <= {row["key"] for row in rows}
    for row in rows:
        float(row["value"])  # e.g. not "np.float64(0.01)"
    assert type(TR.cosine_lr(0.01, 1, 4)) is float


def test_capped_run_byte_identical_csv(tmp_path, monkeypatch):
    caps = []
    assign = R.assign_nearest

    def spy(dists, k, cap=None, *rest):
        caps.append(cap)
        return assign(dists, k, cap, *rest)

    monkeypatch.setattr(R, "assign_nearest", spy)
    a = runner.run_benchmark(tiny_config(tmp_path / "a", "replay.cap=2"))
    b = runner.run_benchmark(tiny_config(tmp_path / "b", "replay.cap=2"))
    assert 2 in caps  # the capped assignment ran
    assert (a.run_dir / "metrics.csv").read_bytes() == (b.run_dir / "metrics.csv").read_bytes()


def test_single_task_degenerates_to_joint_training(tmp_path):
    cfg = tiny_config(tmp_path, "tasks.count=1")
    result = runner.run_benchmark(cfg)
    assert len(result.accuracy["ncm"].accuracy) == 1
    text = (result.run_dir / "metrics.csv").read_text()
    assert "candidate" not in text  # no replay stages ran
    assert result.summary["ncm"]["A_last"] > 0.5


def test_warm_mode_runs(tmp_path):
    cfg = tiny_config(tmp_path, 'tasks.mode="warm"', "tasks.count=4")
    result = runner.run_benchmark(cfg)
    assert len(result.accuracy["ncm"].accuracy) == 4
    assert [len(g) for g in runner.stream_from_config(cfg).class_groups] == [3, 1, 1, 1]


def csv_value(value):
    """A metrics row value as ``metrics.csv`` writes it."""
    return repr(float(value)) if isinstance(value, float) else str(value)


def metrics_rows(run_dir):
    with (run_dir / "metrics.csv").open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def test_a_run_is_a_fold_over_tasks(tmp_path):
    """``first_task``, then ``learn``, ``settle`` and ``evaluation`` per task,
    called by hand give the rows of ``run_benchmark``, in its order."""
    cfg = tiny_config(tmp_path)
    stream = runner.stream_from_config(cfg)
    state, store = runner.first_task(cfg, stream)
    rows, evaluated = [], []
    for t in range(stream.task_count):
        if t:
            state, learned = runner.learn(cfg, stream, state, store, t)
            runner.settle(cfg, stream, state, store, t)
            rows += learned
        gamma, accuracies = runner.evaluation(cfg, stream, state, store, t)
        rows += [("calibration", t, "", f"gamma{i + 1}", g) for i, g in enumerate(gamma)]
        rows += [("eval", t, "", f"acc/{name}/group{j}", acc)
                 for name, row in accuracies.items() for j, acc in enumerate(row)]
        evaluated.append(accuracies)
    for name in cfg["classifiers"]:
        result = CL.metrics([acc[name] for acc in evaluated], stream.task_count)
        rows += [("summary", t, "", f"A_inc/{name}", result.incremental),
                 ("summary", t, "", f"A_last/{name}", result.final)]
    run = runner.run_benchmark(cfg)
    assert [[csv_value(v) for v in row] for row in rows] == metrics_rows(run.run_dir)


def test_learn_hands_run_task_the_centers_in_the_banks_class_order(tmp_path, monkeypatch):
    """The bank's classes ascend by id, whatever the store's order, and
    ``learn`` stacks the prototypes it sampled for in that order."""
    cfg = tiny_config(tmp_path)
    stream = runner.stream_from_config(cfg)
    state, store = runner.first_task(cfg, stream)
    sampled, handed, sample, train = [], [], R.build_candidate_set, TR.run_task

    def sampling(f_old, data, prototypes, *args):
        sampled.append(dict(prototypes))
        return sample(f_old, data, prototypes, *args)

    def training(state, data, bank, centers, *args):
        handed.append(centers)
        return train(state, data, bank, centers, *args)

    monkeypatch.setattr(R, "build_candidate_set", sampling)
    monkeypatch.setattr(TR, "run_task", training)
    for t in range(1, stream.task_count):
        state, _ = runner.learn(cfg, stream, state, store, t)
        runner.settle(cfg, stream, state, store, t)
    assert len(sampled) == len(handed) == stream.task_count - 1
    assert any(list(protos) != sorted(protos) for protos in sampled)
    for protos, centers in zip(sampled, handed):
        assert centers.tobytes() == np.array([protos[cid] for cid in sorted(protos)]).tobytes()


def test_learn_names_the_task_whose_training_changed_the_frozen_model(tmp_path, monkeypatch):
    """A frozen parameter replaced while task 2 trains fails ``learn`` with
    a ``ContractError`` naming task 2; task 1, untouched, passes."""
    cfg = tiny_config(tmp_path)
    stream = runner.stream_from_config(cfg)
    state, store = runner.first_task(cfg, stream)
    state, _ = runner.learn(cfg, stream, state, store, 1)
    runner.settle(cfg, stream, state, store, 1)
    train = TR.run_task

    def mutating(state, *args):
        frozen_ext = state.frozen[0]
        frozen_ext.biases[-1] = frozen_ext.biases[-1] + 1e-9
        return train(state, *args)

    monkeypatch.setattr(TR, "run_task", mutating)
    with pytest.raises(ContractError, match=r"^frozen model mutated during task 2$"):
        runner.learn(cfg, stream, state, store, 2)


def test_evaluation_runs_the_extractor_once_over_the_test_rows(tmp_path, monkeypatch):
    """Every classifier of a task's ``evaluation`` scores the features of
    one extractor pass over the seen test rows."""
    cfg = tiny_config(tmp_path)
    assert cfg["classifiers"] == ["linear", "ncm", "mahalanobis"]
    stream = runner.stream_from_config(cfg)
    state, store = runner.first_task(cfg, stream)
    passes, real = [], M.feature_vjp

    def spy(params, x):
        passes.append(x.tobytes())
        return real(params, x)

    for t in range(2):
        if t:
            state = runner.learn(cfg, stream, state, store, t)[0]
            runner.settle(cfg, stream, state, store, t)
        monkeypatch.setattr(M, "feature_vjp", spy)
        runner.evaluation(cfg, stream, state, store, t)
        monkeypatch.undo()
        test_rows = np.concatenate([test.x for test in stream.test[:t + 1]]).tobytes()
        assert passes.count(test_rows) == 1
        passes.clear()


def csv_config(tmp_path, *extra, n_classes=4):
    """Tiny config over a synthetic stream exported to CSV files."""
    spec = D.SyntheticSpec(n_classes=n_classes, input_dim=6, radius=7.0, cluster_std=1.0,
                           n_train=20, n_val=1, n_test=8)
    stream = D.make_task_stream(spec, 1, "cold", 3, 3)
    tmp_path.mkdir(parents=True, exist_ok=True)
    train_path, test_path = tmp_path / "train.csv", tmp_path / "test.csv"
    D.save_csv(stream.train[0], train_path)
    D.save_csv(stream.test[0], test_path)
    return tiny_config(
        tmp_path, 'dataset.kind="csv"',
        f'dataset.train_path="{train_path}"', f'dataset.test_path="{test_path}"',
        "dataset.n_classes=4", "tasks.count=2", "replay.k=4", "adc.candidates=10", *extra,
    )


def test_csv_ingestion_roundtrip_run(tmp_path):
    result = runner.run_benchmark(csv_config(tmp_path))
    assert len(result.accuracy["ncm"].accuracy) == 2


@pytest.mark.parametrize("change,named", [
    ("drop", r"test-only classes \[\], train-only classes \[2\]"),
    ("add", r"test-only classes \[9\], train-only classes \[\]"),
], ids=["test lacks a class", "test adds a class"])
def test_ingested_test_file_must_hold_the_train_classes(tmp_path, change, named):
    cfg = csv_config(tmp_path)
    test_path = tmp_path / "test.csv"
    test = D.load_csv(test_path, split="test")
    if change == "drop":
        keep = np.asarray(test.y) != 2
        test = D.LabeledSet(test.x[keep], tuple(np.asarray(test.y)[keep].tolist()), "test")
    else:
        test = D.LabeledSet(np.concatenate([test.x, test.x[:3]]), test.y + (9, 9, 9), "test")
    D.save_csv(test, test_path)
    with pytest.raises(DecodeError, match=f"^stage 'dataset': {re.escape(str(test_path))}: "
                                          f"must hold exactly the classes of .*{named}$"):
        runner.run_benchmark(cfg)
    assert not runner._run_dir(cfg, None).exists()


def test_ingested_task_split_counts_the_file_classes(tmp_path):
    """``dataset.n_classes`` belongs to the synthetic generator: 12 tasks of
    a 12-class file run although the key's 20 classes do not split in 12."""
    cfg = csv_config(tmp_path, "dataset.n_classes=20", "tasks.count=12", n_classes=12)
    assert len(runner.run_benchmark(cfg).accuracy["ncm"].accuracy) == 12
    cfg = CFG.apply_override(cfg, "tasks.count=5")
    CFG.validate_config(cfg)
    with pytest.raises(ConfigError, match=f"{re.escape(str(tmp_path / 'train.csv'))} holds "
                                          f"12 classes, tasks.count=5, tasks.mode='cold': "):
        runner.run_benchmark(cfg)


@pytest.mark.parametrize("rows", [1, 2, 3])
def test_ingested_class_needs_two_training_rows(tmp_path, rows):
    """At ``dataset.val_fraction=0.2`` a class gives one row to validation,
    so three rows keep the two its covariance needs."""
    cfg = csv_config(tmp_path)
    train_path = tmp_path / "train.csv"
    pool = D.load_csv(train_path, split="train")
    labels = np.asarray(pool.y)
    keep = (labels != 1) | (np.cumsum(labels == 1) <= rows)
    D.save_csv(D.LabeledSet(pool.x[keep], tuple(labels[keep].tolist()), "train"), train_path)
    if rows == 3:
        run = runner.run_benchmark(cfg)
        assert 1 in C.load_store(run.run_dir / "store.json").class_ids()
        return
    with pytest.raises(DecodeError, match=f"^stage 'dataset': {re.escape(str(train_path))}: "
                                          f"class 1 has {rows} rows; .* leaves {rows - 1} for "
                                          f"training, fewer than the 2 "):
        runner.run_benchmark(cfg)
    assert not runner._run_dir(cfg, None).exists()


def test_svd_covariance_mode(tmp_path):
    cfg = tiny_config(tmp_path, 'covariance.mode="svd"', "covariance.svd_k=4")
    result = runner.run_benchmark(cfg)
    assert 0.0 <= result.summary["mahalanobis"]["A_last"] <= 1.0


@pytest.mark.parametrize("extra", [(), ('covariance.mode="svd"', "covariance.svd_k=4")],
                         ids=["full", "svd"])
def test_saved_model_and_store_evaluate_to_the_last_task_rows(tmp_path, extra):
    cfg = tiny_config(tmp_path, *extra)
    run = runner.run_benchmark(cfg)
    stream = runner.stream_from_config(cfg)
    last = stream.task_count - 1
    state = M.load_checkpoint(run.run_dir / "model.json")
    store = C.load_store(run.run_dir / "store.json")
    gamma, accuracies = runner.evaluation(cfg, stream, state, store, last)
    got = [["calibration", "gamma1", gamma[0]], ["calibration", "gamma2", gamma[1]]]
    got += [["eval", f"acc/{name}/group{j}", acc]
            for name, row in accuracies.items() for j, acc in enumerate(row)]
    want = [[stage, key, value] for stage, task, _, key, value in metrics_rows(run.run_dir)
            if task == str(last) and stage in ("calibration", "eval")]
    assert [[stage, key, csv_value(v)] for stage, key, v in got] == want


class ReadRecorder(dict):
    """Config tree that records the dotted path of every key read from it."""

    def __init__(self, tree, seen, prefix=""):
        super().__init__({key: ReadRecorder(value, seen, f"{prefix}{key}.")
                          if isinstance(value, dict) else value
                          for key, value in tree.items()})
        self.seen, self.prefix = seen, prefix

    def __getitem__(self, key):
        self.seen.add(self.prefix + key)
        return super().__getitem__(key)


def leaf_keys(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_validation_reads_no_option():
    seen = set()
    CFG.validate_config(ReadRecorder(CFG.load_config(), seen))
    assert not seen


def test_every_default_key_is_read(tmp_path):
    # a synthetic run with full covariances plus a CSV run with SVD
    # covariances must read every option; an unread one is a dead knob
    seen = set()
    for cfg in (tiny_config(tmp_path / "synthetic"),
                csv_config(tmp_path / "csv", 'covariance.mode="svd"', "covariance.svd_k=4")):
        runner.run_benchmark(ReadRecorder(cfg, seen), out_dir=None)
    unread = sorted(set(leaf_keys(CFG.DEFAULTS)) - seen)
    assert not unread, f"config keys no run reads: {unread}"


# -- storage accounting ---------------------------------------------------------


def test_storage_report_zero_classes():
    report = runner.storage_report(0, 512, 200, 0, svd_k=8)
    assert all(v == 0 for v in report.values())


def test_storage_report_reference_accounting():
    report = runner.storage_report(90, 512, 200, 13000, svd_k=8,
                                   float_bytes=4, index_bytes=8)
    assert report["covariances_full"] == 90 * 512 * 512 * 4 == 94_371_840
    assert report["covariances_svd"] == 90 * (2 * 8 * 512 + 64) * 4 == 2_972_160
    assert report["prototypes"] == 90 * 512 * 4 == 184_320
    assert report["candidate_indices"] == 90 * 200 * 8 == 144_000


# -- cli --------------------------------------------------------------------------


def cli_args(tmp_path, *extra):
    args = []
    for item in TINY:
        args += ["--set", item]
    for item in extra:
        args += ["--set", item]
    return args + ["--out", str(tmp_path)]


def test_cli_run(tmp_path, capsys):
    assert cli.main(["run"] + cli_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "A_inc" in out and "run dir" in out


def test_cli_report(tmp_path, capsys):
    code = cli.main(["report", "--old-classes", "90", "--feature-dim", "512",
                     "--task-samples", "13000", "--float-bytes", "4",
                     "--set", "replay.k=200", "--set", 'covariance.mode="svd"',
                     "--json-out", str(tmp_path / "sizes.json")])
    assert code == 0
    sizes = json.loads((tmp_path / "sizes.json").read_text())
    assert sizes["covariances_full"] == 94_371_840
    assert "94.37" in capsys.readouterr().out


@pytest.mark.parametrize("config,want", [
    ("reference_cold20.json", (4096, 4096, 14000)),  # 5 groups of 4
    ("warm20_t6.json", (4608, 4608, 7000)),  # 10 classes, then 5 groups of 2
])
def test_cli_report_defaults_follow_the_last_task(tmp_path, config, want):
    """Unset, the old classes and task rows are those of the last task,
    which has the most old classes."""
    out = tmp_path / "sizes.json"
    assert cli.main(["report", "--config", str(CONFIG_DIR / config), "--json-out", str(out)]) == 0
    sizes = json.loads(out.read_text())
    assert (sizes["prototypes"], sizes["candidate_indices"],
            sizes["augmentation_params"]) == want


def test_cli_report_defaults_count_the_ingested_rows(tmp_path):
    """From CSV files the last task's rows are those the split keeps, not
    the synthetic generator's ``dataset.n_train`` per class: 2 classes of
    20 rows, less 4 validation rows each."""
    config = tmp_path / "csv.json"
    config.write_text(json.dumps(csv_config(tmp_path / "csv")))
    out = tmp_path / "sizes.json"
    assert cli.main(["report", "--config", str(config), "--json-out", str(out)]) == 0
    sizes = json.loads(out.read_text())
    assert sizes["prototypes"] == 2 * 8 * 8
    assert sizes["augmentation_params"] == 2 * 16 * D.POLICY_RECORD_BYTES == 1120


@pytest.mark.parametrize("flag,least", [
    ("--old-classes", 0), ("--task-samples", 0), ("--feature-dim", 1),
    ("--float-bytes", 1), ("--index-bytes", 1),
])
def test_cli_report_rejects_bad_numeric_flags(tmp_path, capsys, flag, least):
    out = tmp_path / "sizes.json"
    for bad in (least - 1, -5):
        assert cli.main(["report", flag, str(bad), "--json-out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be >= {least}, got {bad}\n"
        assert not out.exists()
    assert cli.main(["report", flag, str(least), "--json-out", str(out)]) == 0


def test_cli_decompose(tmp_path, capsys):
    runner.run_benchmark(tiny_config(tmp_path, 'output.tag="src"'))
    store_path = tmp_path / "src" / "store.json"
    out_path = tmp_path / "compressed.json"
    assert cli.main(["decompose", str(store_path), "--k", "2",
                     "--output", str(out_path)]) == 0
    from advreplay import calib as C
    loaded = C.load_store(out_path)
    assert all(e.svd is not None for e in loaded.entries.values())
    assert "rank 2" in capsys.readouterr().out


def test_cli_decompose_empty_store_and_bad_rank_name_the_file(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"format_version": 1, "classes": {}}')
    assert cli.main(["decompose", str(empty), "--k", "2",
                     "--output", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == f"error: {empty}: store holds no classes\n"
    store = C.PrototypeStore()
    store.add(0, np.zeros(3), np.eye(3), task=0)
    path = tmp_path / "store.json"
    C.save_store(store, path)
    assert cli.main(["decompose", str(path), "--k", "4",
                     "--output", str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().err == f"error: {path}: rank k=4 out of range [1, 3]\n"
    assert not (tmp_path / "out.json").exists()


def test_cli_error_exit_code(tmp_path, capsys):
    assert cli.main(["run", "--set", "tasks.count=7", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["run", "--set", "augmentation.crop_width_min=5",
                     "--out", str(tmp_path)]) == 1
    assert "error: augmentation.crop_width_min" in capsys.readouterr().err
    for override in EARLY_REJECTED:
        assert cli.main(["run", "--set", override, "--out", str(tmp_path)]) == 1
        assert f"error: {override.split('=')[0]}" in capsys.readouterr().err
    assert cli.main(["run", "--set", 'dataset.kind="csv"', "--set", "dataset.train_path=5",
                     "--out", str(tmp_path)]) == 1
    assert "error: dataset.train_path" in capsys.readouterr().err
    for case, (text, expected) in BAD_STORES.items():
        store_path = tmp_path / f"{case}.json"
        store_path.write_text(text)
        assert cli.main(["decompose", str(store_path), "--k", "2",
                         "--output", str(tmp_path / "out.json")]) == 1
        assert f"error: {store_path}" in capsys.readouterr().err
    (tmp_path / "config-not-json.json").write_text('{"tasks": ')
    (tmp_path / "config-list.json").write_text('[{"tasks": {"count": 2}}]')
    (tmp_path / "config-repeated.json").write_text('{"tasks": {"count": 2, "count": 4}}')
    for name in ("config-missing.json", "config-not-json.json", "config-list.json",
                 "config-repeated.json"):
        config_path = tmp_path / name
        assert cli.main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config_path}: ")


def test_cli_run_rejected_before_training_leaves_no_run_directory(tmp_path, capsys):
    folder, out = tmp_path / "dd", tmp_path / "out"
    folder.mkdir()
    assert cli.main(["run", "--set", 'dataset.kind="csv"',
                     "--set", f'dataset.train_path="{folder}"',
                     "--set", f'dataset.test_path="{folder}"', "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: stage 'dataset': {folder}: cannot read")
    assert cli.main(["run", "--set", "replay.k=100000", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: replay.k=100000 exceeds")
    assert not out.exists()


def test_cli_input_errors_exit_one_with_their_message(tmp_path, capsys):
    """An override without ``=``, a warm stream of one task, and a train CSV
    that is not UTF-8 each exit 1 with their message; none makes a run
    directory."""
    out = tmp_path / "out"
    assert cli.main(["run", "--set", "foo", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: override 'foo' must look like key.path=value\n"
    assert cli.main(["run", "--set", 'tasks.mode="warm"', "--set", "tasks.count=1",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: dataset.n_classes=20, tasks.count=1, tasks.mode='warm': "
        "warm start needs at least 2 tasks\n")
    path = tmp_path / "train.csv"
    path.write_bytes(b"label,f0\n1,\xff\n")
    assert cli.main(["run", "--set", 'dataset.kind="csv"', "--set", f'dataset.train_path="{path}"',
                     "--set", f'dataset.test_path="{path}"', "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: stage 'dataset': {path}: not a CSV text file ('utf-8' codec can't decode")
    assert not out.exists()


def test_cli_override_into_a_non_section_names_the_key(tmp_path, capsys):
    config_path = tmp_path / "c.json"
    config_path.write_text('{"dataset": 3}')
    run = ["run", "--config", str(config_path), "--out", str(tmp_path)]
    assert cli.main(run) == 1
    assert capsys.readouterr().err == "error: dataset must be a section, got 3\n"
    assert cli.main(run + ["--set", "dataset.n_classes=4"]) == 1
    assert capsys.readouterr().err == "error: dataset.kind is missing\n"


@pytest.mark.parametrize("grid,key", [
    (["--alpha", "abc"], "attack.alpha"), (["--alpha", "2,-1"], "attack.alpha"),
    (["--n-attack", "1.5"], "attack.n_attack"), (["--n-attack", "1,"], "attack.n_attack")])
def test_cli_sweep_grid_values_checked_by_the_config(tmp_path, capsys, grid, key):
    assert cli.main(["sweep", *grid] + cli_args(tmp_path / "sweep")) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")
    assert not (tmp_path / "sweep").exists()


def test_cli_sweep_gives_distinct_values_distinct_run_directories(tmp_path, capsys):
    assert cli.main(["sweep", "--alpha", "1.0000001,1.0000002", "--n-attack", "1"]
                    + cli_args(tmp_path)) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
        "sweep_a1.0000001_n1", "sweep_a1.0000002_n1"]
    out = capsys.readouterr().out
    assert "alpha=1.0000001 " in out and "alpha=1.0000002 " in out


@pytest.mark.parametrize("grid,flag,value", [
    (["--alpha", "8,8.0"], "--alpha", "8.0"),
    (["--alpha", "8", "--n-attack", "2,3,2"], "--n-attack", "2")])
def test_cli_sweep_rejects_a_repeated_grid_point(tmp_path, capsys, grid, flag, value):
    assert cli.main(["sweep", *grid] + cli_args(tmp_path / "sweep")) == 1
    assert capsys.readouterr().err == (f"error: {flag} gives the value {value} twice; "
                                       f"each grid point needs a run of its own\n")
    assert not (tmp_path / "sweep").exists()


def small_store(path, svd_k=None):
    """Three classes at d = 6, written to ``path``."""
    rng = np.random.default_rng(0)
    store = C.PrototypeStore()
    for cid in range(3):
        a = rng.normal(size=(6, 6))
        store.add(cid, rng.normal(size=6), a @ a.T, task=0, svd_k=svd_k)
    C.save_store(store, path)
    return store


def test_cli_decompose_counts_stored_scalars_of_an_svd_store(tmp_path, capsys):
    small_store(tmp_path / "svd4.json", svd_k=4)
    assert cli.main(["decompose", str(tmp_path / "svd4.json"), "--k", "2",
                     "--output", str(tmp_path / "svd2.json")]) == 0
    # 3 * (2*4*6 + 4^2) = 192 -> 3 * (2*2*6 + 2^2) = 84
    assert "192 -> 84 scalars (43.8%)" in capsys.readouterr().out
    small_store(tmp_path / "full.json")
    assert cli.main(["decompose", str(tmp_path / "full.json"), "--k", "2",
                     "--output", str(tmp_path / "full2.json")]) == 0
    assert "108 -> 84 scalars (77.8%)" in capsys.readouterr().out


def test_cli_decompose_refuses_a_rank_above_the_stored_rank(tmp_path, capsys):
    small_store(tmp_path / "svd2.json", svd_k=2)
    out = tmp_path / "svd5.json"
    assert cli.main(["decompose", str(tmp_path / "svd2.json"), "--k", "5",
                     "--output", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: {tmp_path / 'svd2.json'}: "
                                       "class 0 is stored at rank 2, below k=5\n")
    assert not out.exists()


def test_cli_unwritable_output_names_the_target(tmp_path, capsys):
    small_store(tmp_path / "store.json")
    target = tmp_path / "missing" / "x.json"
    (tmp_path / "a_dir").mkdir()
    for bad in (target, tmp_path / "a_dir"):
        assert cli.main(["decompose", str(tmp_path / "store.json"), "--k", "2",
                         "--output", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: cannot write")
        assert cli.main(["report", "--json-out", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: cannot write")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a_dir", "store.json"]


@pytest.mark.parametrize("kind,case", [("csv", c) for c in sorted(BAD_CSVS)]
                         + [("binary", c) for c in sorted(BAD_APRDS)])
def test_cli_bad_dataset_file_exits_nonzero(tmp_path, capsys, kind, case):
    path = tmp_path / f"train.{kind}"
    if kind == "csv":
        path.write_text(BAD_CSVS[case][0])
    else:
        path.write_bytes(BAD_APRDS[case][0])
    code = cli.main(["run", "--set", f'dataset.kind="{kind}"',
                     "--set", f'dataset.train_path="{path}"',
                     "--set", f'dataset.test_path="{path}"', "--out", str(tmp_path)])
    assert code == 1
    assert f"error: stage 'dataset': {path}" in capsys.readouterr().err


def test_cli_env_output_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ADVREPLAY_OUT", str(tmp_path / "from_env"))
    args = []
    for item in TINY:
        args += ["--set", item]
    assert cli.main(["run"] + args) == 0
    assert (tmp_path / "from_env").exists()
    capsys.readouterr()


def test_cli_config_output_root(tmp_path, monkeypatch, capsys):
    """Without ``--out`` or ``ADVREPLAY_OUT`` the run lands under ``output.dir``."""
    monkeypatch.delenv("ADVREPLAY_OUT", raising=False)
    args = []
    for item in TINY + [f'output.dir="{tmp_path / "from_config"}"']:
        args += ["--set", item]
    assert cli.main(["run"] + args) == 0
    run_dir = Path(capsys.readouterr().out.splitlines()[0].removeprefix("run dir: "))
    assert tmp_path / "from_config" in run_dir.parents and run_dir.is_dir()


def test_cli_bench_three_seeds(tmp_path, capsys):
    assert cli.main(["bench"] + cli_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "±" in out
    summary = (tmp_path / "bench_summary.csv").read_text()
    assert summary.count("A_last") == 3  # one row per classifier
    for seed in (0, 1000, 2000):
        assert (tmp_path / f"bench_s{seed}_c{seed + 1993}").exists()


@pytest.mark.parametrize("command,table", [
    (["bench"], "bench_summary.csv"), (["sweep", "--alpha", "2"], "sweep.csv")])
def test_cli_table_failing_at_rename_keeps_the_previous_table(tmp_path, capsys, monkeypatch,
                                                               command, table):
    path = tmp_path / table
    path.write_text("previous", encoding="utf-8")
    replace = os.replace

    def failing(src, dst):
        if Path(dst) == path:
            raise OSError("disk full")
        return replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    assert cli.main(command + cli_args(tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {path}: cannot write (disk full)\n"
    assert path.read_text(encoding="utf-8") == "previous"
    assert not list(tmp_path.glob(f".{table}.*"))


def test_cli_sweep_grid(tmp_path, capsys):
    assert cli.main(["sweep", "--alpha", "2,4", "--n-attack", "1"]
                    + cli_args(tmp_path)) == 0
    table = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert table[0] == "alpha,n_attack,classifier,A_inc,A_last"
    assert len(table) == 1 + 2 * 3  # two alphas x three classifiers
    capsys.readouterr()

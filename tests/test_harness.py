"""Config handling, benchmark orchestration, storage accounting, CLI."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from test_calib import BAD_STORES

from advreplay import cli
from advreplay import config as CFG
from advreplay import data as D
from advreplay import replay as R
from advreplay import runner
from advreplay.errors import ConfigError

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


# values that escaped as raw errors, or were accepted and failed or
# misbehaved later; `advreplay run` must reject each naming its key
EARLY_REJECTED = [
    "replay.k=abc", "attack.alpha=abc", "adc.magnitude=0", "adc.iterations=0",
    "adc.transfer_epochs=-5",
    "model.hidden=abc", "model.hidden=[0]", 'shrinkage.grid=["a"]',
]

BAD_OVERRIDES = [
    "augmentation.crop_width_min=5", "augmentation.crop_width_min=-1",
    "augmentation.jitter_sigma_min=-0.5", "augmentation.scale_min=-3",
    "augmentation.scale_min=0", "augmentation.scale_max=0.5",
    "augmentation.crop_prob=1.5", "augmentation.flip_prob=-0.1",
    "augmentation.jitter_prob=2",
    "replay.k=0", "adc.candidates=0", "model.feature_dim=0", "adc.transfer_lr=-1",
    *EARLY_REJECTED,
    "replay.cap=abc", "replay.k=2.5", "attack.noise=1", 'attack.enabled="false"',
    "model=3", "attack.alpha=NaN", "loss.lambda_kd=Infinity",
    'model.hidden=[2, "x"]', "model.hidden=[1.5]", "model.hidden=[true]",
    "shrinkage.grid=[-5]", "shrinkage.grid=[1e400]", "shrinkage.grid=[true]",
    "shrinkage.grid=[]", "shrinkage.grid=8", 'classifiers="ncm"', "classifiers=[1]",
]


@pytest.mark.parametrize("override", BAD_OVERRIDES)
def test_bad_value_rejected_naming_key(override):
    key = override.split("=")[0]
    with pytest.raises(ConfigError, match=re.escape(key)):
        CFG.load_config(overrides=[override])


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    for name in ("linear", "ncm", "mahalanobis"):
        assert 0.0 <= result.summary[name]["A_last"] <= 1.0


def test_identical_seeds_byte_identical_csv(tmp_path):
    a = runner.run_benchmark(tiny_config(tmp_path / "a"))
    b = runner.run_benchmark(tiny_config(tmp_path / "b"))
    csv_a = (a.run_dir / "metrics.csv").read_bytes()
    csv_b = (b.run_dir / "metrics.csv").read_bytes()
    assert csv_a == csv_b


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


def csv_config(tmp_path, *extra):
    """Tiny config over a synthetic stream exported to CSV files."""
    spec = D.SyntheticSpec(n_classes=4, input_dim=6, radius=7.0, cluster_std=1.0,
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


def test_svd_covariance_mode(tmp_path):
    cfg = tiny_config(tmp_path, 'covariance.mode="svd"', "covariance.svd_k=4")
    result = runner.run_benchmark(cfg)
    assert 0.0 <= result.summary["mahalanobis"]["A_last"] <= 1.0


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


def test_storage_report_matches_serialized_candidate_set():
    rng = np.random.default_rng(0)
    f_dim = 6
    from advreplay import model as M
    from advreplay.tensor import Tensor
    ext = M.ExtractorParams((f_dim, f_dim), ("identity",),
                            [Tensor(np.eye(f_dim))], [Tensor(np.zeros(f_dim))])
    data = D.LabeledSet(Tensor(rng.normal(size=(30, f_dim))), tuple(range(30)), "train")
    protos = {c: rng.normal(size=f_dim) for c in range(3)}
    cs = R.build_candidate_set(ext, data, protos, k=5, rng=rng,
                               family=D.AugFamily(input_dim=f_dim))
    payload = R.encode_candidate_set(cs)
    report = runner.storage_report(3, f_dim, 5, 30)
    assert len(payload) == report["candidate_indices"] + 3 * 8 + 3 * 5 * D.POLICY_RECORD_BYTES


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


def test_cli_error_exit_code(tmp_path, capsys):
    assert cli.main(["run", "--set", "tasks.count=7", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert cli.main(["run", "--set", "augmentation.crop_width_min=5",
                     "--out", str(tmp_path)]) == 1
    assert "error: augmentation.crop_width_min" in capsys.readouterr().err
    for override in EARLY_REJECTED:
        assert cli.main(["run", "--set", override, "--out", str(tmp_path)]) == 1
        assert f"error: {override.split('=')[0]}" in capsys.readouterr().err
    for case, (text, expected) in BAD_STORES.items():
        store_path = tmp_path / f"{case}.json"
        store_path.write_text(text)
        assert cli.main(["decompose", str(store_path), "--k", "2",
                         "--output", str(tmp_path / "out.json")]) == 1
        assert f"error: {store_path}" in capsys.readouterr().err


def test_cli_env_output_root(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ADVREPLAY_OUT", str(tmp_path / "from_env"))
    args = []
    for item in TINY:
        args += ["--set", item]
    assert cli.main(["run"] + args) == 0
    assert (tmp_path / "from_env").exists()
    capsys.readouterr()


def test_cli_bench_three_seeds(tmp_path, capsys):
    assert cli.main(["bench"] + cli_args(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "±" in out
    summary = (tmp_path / "bench_summary.csv").read_text()
    assert summary.count("A_last") == 3  # one row per classifier
    for seed in (0, 1000, 2000):
        assert (tmp_path / f"bench_s{seed}_c{seed + 1993}").exists()


def test_cli_sweep_grid(tmp_path, capsys):
    assert cli.main(["sweep", "--alpha", "2,4", "--n-attack", "1"]
                    + cli_args(tmp_path)) == 0
    table = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert table[0] == "alpha,n_attack,classifier,A_inc,A_last"
    assert len(table) == 1 + 2 * 3  # two alphas x three classifiers
    capsys.readouterr()

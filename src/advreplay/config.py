"""Run configuration: defaults, file loading, and dotted-path overrides.

A config is a nested key-value tree.  Every key has a default; file values
and ``--set a.b.c=value`` overrides are deep-merged on top, and unknown keys
are rejected so typos fail before any compute starts.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

from . import calib as C
from . import data as D
from . import model as M
from . import replay as R
from . import train as TR
from .arrays import read_json
from .errors import ConfigError

DEFAULTS: dict = {
    "dataset": {
        "kind": "synthetic",        # synthetic | csv | binary
        "n_classes": 20,
        "input_dim": 16,
        "radius": 7.0,
        "cluster_std": 1.0,
        "n_train": 100,
        "n_val": 20,
        "n_test": 40,
        "train_path": None,         # csv/binary ingestion (train+val pool)
        "test_path": None,
        "val_fraction": 0.2,        # carved from the ingested train pool
    },
    "tasks": {"count": 5, "mode": "cold"},
    "seeds": {"class_shuffle": 1993, "randomness": 0},
    "model": {
        "hidden": [64, 48],
        "feature_dim": 32,
        "activation": "relu",
        "head_mode": "cosine",
        "cosine_scale": 16.0,
        "head_init_std": 0.01,
    },
    "optim": {
        "lr_initial": 0.1,
        "lr_incremental": 0.01,
        "weight_decay_initial": 5e-4,
        "weight_decay_incremental": 2e-4,
        "epochs_initial": 30,
        "epochs_incremental": 50,
        "batch_new": 32,
        "batch_replay": 64,
    },
    "loss": {"lambda_kd": 10.0, "kd_temperature": 2.0, "ce_temperature": 1.0},
    "replay": {"enabled": True, "k": 64, "cap": None},
    "attack": {"enabled": True, "alpha": 8.0, "n_attack": 12, "noise": True},
    "adc": {"enabled": True, "magnitude": 2.0, "iterations": 4, "candidates": 100,
            "transfer_lr": 1e-3, "transfer_epochs": 400},
    "covariance": {"mode": "full", "svd_k": 8},
    "shrinkage": {"grid": list(C.GAMMA_GRID)},
    "augmentation": {
        "enabled": True,
        "crop_prob": 0.5,
        "crop_width_min": 1,
        "crop_width_max": 4,
        "flip_prob": 0.5,
        "jitter_prob": 0.8,
        "jitter_sigma_min": 0.01,
        "jitter_sigma_max": 0.15,
        "scale_min": 0.9,
        "scale_max": 1.1,
    },
    "classifiers": ["linear", "ncm", "mahalanobis"],
    "output": {"dir": "runs", "tag": None},
}


def _merge(base: dict, update: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in update.items():
        if key.startswith("_"):
            continue  # annotation keys ("_note": ...) are documentation only
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and isinstance(value, dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_override(config: dict, dotted: str) -> dict:
    """Apply one ``a.b.c=value`` assignment (value parsed as JSON if possible)."""
    if "=" not in dotted:
        raise ConfigError(f"override {dotted!r} must look like key.path=value")
    path, raw = dotted.split("=", 1)
    keys = path.strip().split(".")
    patch: dict = {}
    node = patch
    for key in keys[:-1]:
        node[key] = {}
        node = node[key]
    node[keys[-1]] = _parse_value(raw.strip())
    return _merge(config, patch)


def load_config(path=None, overrides=()) -> dict:
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        file_values = read_json(path)
        config = _merge(config, file_values)
    for item in overrides:
        config = apply_override(config, item)
    validate_config(config)
    return config


# options whose default is null but which take an integer when set
_NULLABLE_INTS = frozenset({"replay.cap"})


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


# list options: the test each element must pass, what that test means, and
# whether the list must be non-empty
_LIST_ITEMS = {
    "model.hidden": (lambda v: _is_int(v) and v >= 1, "integers >= 1", False),
    # gamma = 0 leaves a rank-k (SVD) store singular at shrinkage tuning
    "shrinkage.grid": (lambda v: _is_number(v) and v > 0, "finite numbers > 0", True),
    "classifiers": (lambda v: isinstance(v, str), "strings", False),
}


def _check_types(config: dict, defaults: dict = DEFAULTS, path: str = "") -> None:
    """Reject a value whose type differs from its default's: a bool option
    takes a bool, an integer option an integer, a float option any finite
    number, and a list option a list whose elements pass ``_LIST_ITEMS``.

    The walk iterates ``items()``: checking a value's type is not a use of
    the option, so it does not count as a read.
    """
    for key, value in config.items():
        where = f"{path}{key}"
        default = defaults.get(key)
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a section, got {value!r}")
            _check_types(value, default, f"{where}.")
        elif where in _NULLABLE_INTS:
            if value is not None and not _is_int(value):
                raise ConfigError(f"{where} must be an integer or null, got {value!r}")
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{where} must be true or false, got {value!r}")
        elif isinstance(default, int):
            if not _is_int(value):
                raise ConfigError(f"{where} must be an integer, got {value!r}")
        elif isinstance(default, float):
            if not _is_number(value):
                raise ConfigError(f"{where} must be a finite number, got {value!r}")
        elif isinstance(default, list):
            item_ok, items, non_empty = _LIST_ITEMS[where]
            if (not isinstance(value, list) or not all(item_ok(v) for v in value)
                    or (non_empty and not value)):
                what = "a non-empty list" if non_empty else "a list"
                raise ConfigError(f"{where} must be {what} of {items}, got {value!r}")


def validate_config(config: dict) -> None:
    """Check types, ranges and referenced files before any compute."""
    _check_types(config)
    ds = config["dataset"]
    if ds["kind"] not in ("synthetic", "csv", "binary"):
        raise ConfigError(f"unknown dataset kind {ds['kind']!r}")
    if ds["kind"] != "synthetic":
        for key in ("train_path", "test_path"):
            if ds[key] is None:
                raise ConfigError(f"dataset.{key} required for kind={ds['kind']}")
            if not Path(ds[key]).exists():
                raise ConfigError(f"dataset.{key} does not exist: {ds[key]}")
    # a class covariance needs two training rows; tuning and eval need a row each
    for key, low in (("n_classes", 1), ("input_dim", 1), ("n_train", 2), ("n_val", 1),
                     ("n_test", 1)):
        if ds[key] < low:
            raise ConfigError(f"dataset.{key} must be >= {low}")
    if not ds["cluster_std"] > 0:
        raise ConfigError("dataset.cluster_std must be positive")
    if not 0 < ds["val_fraction"] < 1:
        raise ConfigError("dataset.val_fraction must lie in (0, 1)")
    D.group_sizes(ds["n_classes"], config["tasks"]["count"], config["tasks"]["mode"])
    for name in config["classifiers"]:
        if name not in ("linear", "ncm", "mahalanobis"):
            raise ConfigError(f"unknown classifier {name!r}")
    model = config["model"]
    for key, allowed in (("activation", M.ACTIVATIONS), ("head_mode", M.HEAD_MODES)):
        if model[key] not in allowed:
            raise ConfigError(f"model.{key} must be one of {', '.join(allowed)}, "
                              f"got {model[key]!r}")
    if not model["cosine_scale"] > 0:
        raise ConfigError("model.cosine_scale must be positive")
    if model["feature_dim"] < 1:
        raise ConfigError("model.feature_dim must be >= 1")
    if model["head_init_std"] < 0:
        raise ConfigError("model.head_init_std must be >= 0")
    if config["replay"]["k"] < 1:
        raise ConfigError("replay.k must be >= 1")
    if config["replay"]["cap"] is not None and config["replay"]["cap"] < 1:
        raise ConfigError("replay.cap must be >= 1")
    if not config["adc"]["transfer_lr"] > 0:
        raise ConfigError("adc.transfer_lr must be positive")
    if config["adc"]["transfer_epochs"] < 1:
        raise ConfigError("adc.transfer_epochs must be >= 1")
    if config["covariance"]["mode"] not in ("full", "svd"):
        raise ConfigError("covariance.mode must be 'full' or 'svd'")
    if config["covariance"]["mode"] == "svd":
        if not 1 <= config["covariance"]["svd_k"] <= config["model"]["feature_dim"]:
            raise ConfigError("covariance.svd_k out of range for feature_dim")
    # typed sub-configs validate their own numeric ranges
    build_loss_config(config)
    build_optim_config(config, initial=True)
    build_optim_config(config, initial=False)
    if config["attack"]["enabled"]:
        build_attack_config(config)
    build_drift_config(config)
    build_family(config)


def build_loss_config(config: dict) -> TR.LossConfig:
    loss = config["loss"]
    return TR.LossConfig(loss["lambda_kd"], loss["kd_temperature"], loss["ce_temperature"])


def build_optim_config(config: dict, initial: bool) -> TR.OptimConfig:
    opt = config["optim"]
    return TR.OptimConfig(
        lr=opt["lr_initial"] if initial else opt["lr_incremental"],
        weight_decay=opt["weight_decay_initial"] if initial else opt["weight_decay_incremental"],
        epochs=opt["epochs_initial"] if initial else opt["epochs_incremental"],
        batch_new=opt["batch_new"],
        batch_replay=opt["batch_replay"],
    )


def build_attack_config(config: dict) -> R.AttackConfig:
    atk = config["attack"]
    return R.AttackConfig(atk["alpha"], atk["n_attack"], atk["noise"])


def build_drift_config(config: dict) -> C.DriftConfig:
    adc = config["adc"]
    return C.DriftConfig(adc["magnitude"], adc["iterations"], adc["candidates"])


def build_family(config: dict, input_dim: int | None = None) -> D.AugFamily:
    """Augmentation family; ``input_dim`` should come from the actual data
    (ingested datasets may not match the synthetic-generator width)."""
    aug = config["augmentation"]
    return D.AugFamily(
        enabled=aug["enabled"],
        crop_prob=aug["crop_prob"],
        crop_width_range=(aug["crop_width_min"], aug["crop_width_max"]),
        flip_prob=aug["flip_prob"],
        jitter_prob=aug["jitter_prob"],
        jitter_sigma_range=(aug["jitter_sigma_min"], aug["jitter_sigma_max"]),
        scale_range=(aug["scale_min"], aug["scale_max"]),
        input_dim=config["dataset"]["input_dim"] if input_dim is None else input_dim,
    )


def build_synthetic_spec(config: dict) -> D.SyntheticSpec:
    ds = config["dataset"]
    return D.SyntheticSpec(
        n_classes=ds["n_classes"], input_dim=ds["input_dim"], radius=ds["radius"],
        cluster_std=ds["cluster_std"], n_train=ds["n_train"], n_val=ds["n_val"],
        n_test=ds["n_test"],
    )

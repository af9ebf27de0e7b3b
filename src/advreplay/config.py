"""Run configuration: one table of keys, file loading, and dotted-path overrides.

A config is a nested key-value tree.  ``SCHEMA`` has one row per leaf: its
default and its rule (type, null or not, range or choices); ``DEFAULTS`` is
the tree of those defaults.  File values and ``--set a.b.c=value`` overrides
are deep-merged on top, and ``validate_config`` checks every leaf, so a bad
value or unknown key fails as a ``ConfigError`` naming it before any compute.
"""

from __future__ import annotations

import copy
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from . import calib as C
from . import data as D
from . import model as M
from . import replay as R
from . import train as TR
from .arrays import read_json
from .errors import ConfigError


class Rule(NamedTuple):
    what: str                       # completes "<key> must be ..."
    test: Callable[[object], bool]  # true for a valid value


def _int(low: int) -> Rule:
    return Rule(f"an integer >= {low}",
                lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= low)


def _number(what: str = "", test=lambda v: True) -> Rule:
    # abs(v) <= max is false for NaN, +-inf and an integer too large for a float
    return Rule(f"a finite number {what}".rstrip(),
                lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                           and abs(v) <= sys.float_info.max and test(v)))


def _one_of(*names) -> Rule:
    return Rule(f"one of {', '.join(names)}", lambda v: isinstance(v, str) and v in names)


def _or_null(rule: Rule) -> Rule:
    return Rule(f"{rule.what} or null", lambda v: v is None or rule.test(v))


def _list_of(item: Rule, non_empty=False, distinct=False) -> Rule:
    what = (f"a {'non-empty ' if non_empty else ''}list of "
            f"{'distinct ' if distinct else ''}items, each {item.what}")
    return Rule(what, lambda v: (isinstance(v, list) and all(item.test(x) for x in v)
                                 and (bool(v) or not non_empty)
                                 and (not distinct or len(set(v)) == len(v))))


BOOL = Rule("true or false", lambda v: isinstance(v, bool))
STRING = Rule("a string", lambda v: isinstance(v, str))
NUMBER = _number()
POSITIVE = _number("> 0", lambda v: v > 0)
NON_NEGATIVE = _number(">= 0", lambda v: v >= 0)
PROBABILITY = _number("in [0, 1]", lambda v: 0 <= v <= 1)
_MAX, _MIN = sys.float_info.max, sys.float_info.min  # largest finite, smallest normal
# data.class_clusters draws class covariance eigenvalues in [0.5, 1.5) times
# cluster_std**2; its Cholesky factor needs them finite, normal floats.  The
# float32 replay attack fails far lower (from about 1e18 at tiny widths),
# naming float32's range; that bound is not enforced here, because the scale
# that fails depends on the trained extractor, and CSV and binary inputs never
# pass through this key
CLUSTER_STD = _number(f"in [{math.sqrt(2 * _MIN):.3g}, {math.sqrt(_MAX / 1.5):.3g}]",
                      lambda v: v > 0 and 0.5 * float(v) * v >= _MIN
                      and 1.5 * float(v) * v <= _MAX)
# the KD loss and its gradient scale by kd_temperature**2
KD_TEMPERATURE = _number(f"in (0, {math.sqrt(_MAX):.3g}]",
                         lambda v: v > 0 and float(v) * v <= _MAX)

# dotted key -> (default, rule); the cross-key rules are in validate_config
SCHEMA: dict[str, tuple[object, Rule]] = {
    "dataset.kind": ("synthetic", _one_of("synthetic", "csv", "binary")),
    "dataset.n_classes": (20, _int(1)),
    "dataset.input_dim": (16, _int(1)),
    "dataset.radius": (7.0, NUMBER),
    "dataset.cluster_std": (1.0, CLUSTER_STD),
    # a class covariance needs two training rows; tuning and eval need a row each
    "dataset.n_train": (100, _int(2)),
    "dataset.n_val": (20, _int(1)),
    "dataset.n_test": (40, _int(1)),
    # csv/binary ingestion (train+val pool), and the share carved from it for val
    "dataset.train_path": (None, _or_null(STRING)),
    "dataset.test_path": (None, _or_null(STRING)),
    "dataset.val_fraction": (0.2, _number("in (0, 1)", lambda v: 0 < v < 1)),
    "tasks.count": (5, _int(1)),
    "tasks.mode": ("cold", _one_of("cold", "warm")),
    "seeds.class_shuffle": (1993, _int(0)),
    "seeds.randomness": (0, _int(0)),
    "model.hidden": ([64, 48], _list_of(_int(1))),
    "model.feature_dim": (32, _int(1)),
    "model.activation": ("relu", _one_of(*M.ACTIVATIONS)),
    "model.head_mode": ("cosine", _one_of(*M.HEAD_MODES)),
    "model.cosine_scale": (16.0, POSITIVE),
    "model.head_init_std": (0.01, NON_NEGATIVE),
    "optim.lr_initial": (0.1, NON_NEGATIVE),
    "optim.lr_incremental": (0.01, NON_NEGATIVE),
    "optim.weight_decay_initial": (5e-4, NUMBER),
    "optim.weight_decay_incremental": (2e-4, NUMBER),
    "optim.epochs_initial": (30, _int(1)),
    "optim.epochs_incremental": (50, _int(1)),
    "optim.batch_new": (32, _int(1)),
    "optim.batch_replay": (64, _int(1)),
    "loss.lambda_kd": (10.0, NON_NEGATIVE),
    "loss.kd_temperature": (2.0, KD_TEMPERATURE),
    "loss.ce_temperature": (1.0, POSITIVE),
    "replay.enabled": (True, BOOL),
    "replay.k": (64, _int(1)),
    "replay.cap": (None, _or_null(_int(1))),
    "attack.enabled": (True, BOOL),
    "attack.alpha": (8.0, POSITIVE),
    "attack.n_attack": (12, _int(1)),
    "attack.noise": (True, BOOL),
    "adc.enabled": (True, BOOL),
    "adc.magnitude": (2.0, POSITIVE),
    "adc.iterations": (4, _int(1)),
    "adc.candidates": (100, _int(1)),
    "adc.transfer_lr": (1e-3, POSITIVE),
    "adc.transfer_epochs": (400, _int(1)),
    "covariance.mode": ("full", _one_of("full", "svd")),
    "covariance.svd_k": (8, _int(1)),
    # gamma = 0 leaves a rank-k (SVD) store singular at shrinkage tuning
    "shrinkage.grid": (list(C.GAMMA_GRID), _list_of(POSITIVE, non_empty=True, distinct=True)),
    "augmentation.enabled": (True, BOOL),
    "augmentation.crop_prob": (0.5, PROBABILITY),
    "augmentation.crop_width_min": (1, _int(0)),
    "augmentation.crop_width_max": (4, _int(0)),
    "augmentation.flip_prob": (0.5, PROBABILITY),
    "augmentation.jitter_prob": (0.8, PROBABILITY),
    "augmentation.jitter_sigma_min": (0.01, NON_NEGATIVE),
    "augmentation.jitter_sigma_max": (0.15, NON_NEGATIVE),
    "augmentation.scale_min": (0.9, POSITIVE),
    "augmentation.scale_max": (1.1, POSITIVE),
    "classifiers": (["linear", "ncm", "mahalanobis"],
                    _list_of(_one_of("linear", "ncm", "mahalanobis"), distinct=True)),
    "output.dir": ("runs", STRING),
    "output.tag": (None, _or_null(STRING)),
}


def _tree(flat: dict) -> dict:
    tree: dict = {}
    for key, value in flat.items():
        *sections, leaf = key.split(".")
        node = tree
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = copy.deepcopy(value)
    return tree


DEFAULTS: dict = _tree({key: default for key, (default, _) in SCHEMA.items()})


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
    patch = _parse_value(raw.strip())
    for key in reversed(path.strip().split(".")):
        patch = {key: patch}
    return _merge(config, patch)


def load_config(path=None, overrides=()) -> dict:
    config = copy.deepcopy(DEFAULTS)
    if path is not None:
        config = _merge(config, read_json(path))
    for item in overrides:
        config = apply_override(config, item)
    validate_config(config)
    return config


def _leaves(config: dict, defaults: dict = DEFAULTS, path: str = "") -> dict:
    """Dotted key -> value for every leaf of ``config``.  It iterates
    ``items()``: checking a value is not a use of the option, so not a read."""
    flat = {}
    for key, value in config.items():
        where = path + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {where!r}")
        if not isinstance(defaults[key], dict):
            flat[where] = value
        elif isinstance(value, dict):
            flat.update(_leaves(value, defaults[key], where + "."))
        else:
            raise ConfigError(f"{where} must be a section, got {value!r}")
    return flat


def validate_config(config: dict) -> None:
    """Check every leaf against its ``SCHEMA`` row, then the cross-key rules."""
    flat = _leaves(config)
    for key, (_, rule) in SCHEMA.items():
        if key not in flat:
            raise ConfigError(f"{key} is missing")
        if not rule.test(flat[key]):
            raise ConfigError(f"{key} must be {rule.what}, got {flat[key]!r}")
    # cross-key rules: each message names every key it involves
    if flat["covariance.mode"] == "svd" and flat["covariance.svd_k"] > flat["model.feature_dim"]:
        raise ConfigError(f"covariance.svd_k={flat['covariance.svd_k']} exceeds "
                          f"model.feature_dim={flat['model.feature_dim']} "
                          f"with covariance.mode='svd'")
    kind = flat["dataset.kind"]
    if kind == "synthetic":  # an ingested file's class count is checked once it is read
        split = [flat[key] for key in ("dataset.n_classes", "tasks.count", "tasks.mode")]
        try:
            D.group_sizes(*split)
        except ConfigError as err:
            raise ConfigError("dataset.n_classes={}, tasks.count={}, tasks.mode={!r}: "
                              .format(*split) + str(err)) from None
    for key in ("dataset.train_path", "dataset.test_path"):
        if kind != "synthetic" and (flat[key] is None or not os.path.exists(flat[key])):
            raise ConfigError(f"{key} must name an existing file with "
                              f"dataset.kind={kind!r}, got {flat[key]!r}")
    for name in ("crop_width", "jitter_sigma", "scale"):
        low, high = flat[f"augmentation.{name}_min"], flat[f"augmentation.{name}_max"]
        if low > high:
            raise ConfigError(f"augmentation.{name}_min={low} exceeds "
                              f"augmentation.{name}_max={high}")


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
    return R.AttackConfig(atk["alpha"], atk["n_attack"])


def build_drift_config(config: dict) -> tuple[R.AttackConfig, int]:
    """The drift samples' attack settings and their count per old class."""
    adc = config["adc"]
    return R.AttackConfig(adc["magnitude"], adc["iterations"]), adc["candidates"]


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

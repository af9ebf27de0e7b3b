"""Workload definitions and the seeded input generator.

A workload is a config (a shipped file plus dotted overrides) and, for the
CSV workload, a generated train/test pair.  The benchmark seed ``n`` maps to
``seeds.randomness = n`` and ``seeds.class_shuffle = 1993 + n``: seed 0 is
the reference pair (1993, 0), and seeds 1000 and 2000 give the two held-out
pairs of ``advreplay.cli.BENCH_SEED_PAIRS``.

This module imports no numpy at load time, because the worker times
``import advreplay`` (which loads numpy) as part of set-up.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_SHUFFLE = 1993

# metrics.csv sha256 of cold20-ref at the reference pair, from the seed commit
REFERENCE_HASHES = {
    ("cold20-ref", 0): "407b1a2fe0f4c12cdd3b97d5e6c1b399a83fbf86f577045552d7f9315406bbfe",
}

# csv60-svd inputs: classes, dimensions, train and test rows per class, and the
# radius of the sphere the Gaussian cluster means lie on
CSV_CLASSES, CSV_DIM, CSV_TRAIN_PER_CLASS, CSV_TEST_PER_CLASS = 60, 32, 150, 40
CSV_RADIUS = 7.0

WORKLOADS = {
    # the run users and the acceptance suite repeat most; attack-dominated
    "cold20-ref": {
        "config": "configs/reference_cold20.json",
        "overrides": [],
        "csv": False,
    },
    # ingested data, SVD-compressed store, replay off: calibration and
    # shrinkage tuning dominate, apply_policy never runs
    "csv60-svd": {
        "config": None,
        "overrides": [
            'dataset.kind="csv"',
            f"dataset.n_classes={CSV_CLASSES}",
            f"dataset.input_dim={CSV_DIM}",
            "tasks.count=10",
            "model.hidden=[96,64]",
            "model.feature_dim=64",
            'covariance.mode="svd"',
            "covariance.svd_k=8",
            "replay.enabled=false",
            "optim.epochs_incremental=10",
        ],
        "csv": True,
    },
    # plain fine-tuning: taped SGD only; replay, attack and calibration bypassed
    "finetune-n500": {
        "config": "configs/finetune_baseline.json",
        "overrides": ["dataset.n_train=500"],
        "csv": False,
    },
}


def csv_paths(work: Path, seed: int) -> tuple[Path, Path]:
    base = work / "data" / f"csv60_s{seed}"
    return base / "train.csv", base / "test.csv"


def config_args(name: str, seed: int, root: Path, work: Path):
    """(config file or None, overrides) for one workload at one seed."""
    spec = WORKLOADS[name]
    overrides = list(spec["overrides"]) + [
        f"seeds.randomness={seed}",
        f"seeds.class_shuffle={REFERENCE_SHUFFLE + seed}",
    ]
    if spec["csv"]:
        train, test = csv_paths(work, seed)
        overrides += [f"dataset.train_path={json.dumps(str(train))}",
                      f"dataset.test_path={json.dumps(str(test))}"]
    path = root / spec["config"] if spec["config"] else None
    return path, overrides


def write_csv_inputs(work: Path, seed: int) -> tuple[Path, Path]:
    """Write the seeded csv60 train/test pair (``label,f0..f31`` rows).

    Each class is a Gaussian cluster: mean on a sphere of radius
    ``CSV_RADIUS``, covariance ``A A^T / D + I/2`` with a random ``A``.
    """
    import numpy as np

    train, test = csv_paths(work, seed)
    train.parent.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 60])
    means = rng.standard_normal((CSV_CLASSES, CSV_DIM))
    means *= CSV_RADIUS / np.linalg.norm(means, axis=1, keepdims=True)
    parts = {train: [], test: []}
    for cid in range(CSV_CLASSES):
        a = rng.standard_normal((CSV_DIM, CSV_DIM)) / np.sqrt(CSV_DIM)
        chol = np.linalg.cholesky(a @ a.T + 0.5 * np.eye(CSV_DIM))
        for path, n in ((train, CSV_TRAIN_PER_CLASS), (test, CSV_TEST_PER_CLASS)):
            rows = means[cid] + rng.standard_normal((n, CSV_DIM)) @ chol.T
            parts[path] += [f"{cid}," + ",".join(map(repr, row.tolist())) for row in rows]
    header = "label," + ",".join(f"f{i}" for i in range(CSV_DIM))
    for path, lines in parts.items():
        tmp = path.with_suffix(".tmp")
        tmp.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        tmp.replace(path)
    return train, test

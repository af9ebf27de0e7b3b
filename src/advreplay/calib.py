"""After-task drift compensation and covariance management.

Once a task finishes, perturbed drift samples are generated per old class,
a per-class linear transfer map is fitted between frozen and updated feature
spaces, and the stored mean/covariance are carried over by
``mu += delta, cov = W cov W^T``.  Covariances can be kept full or as a
truncated SVD triple of size ``2kd + k^2``; Mahalanobis evaluation shrinks
and correlation-normalizes them first.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from . import model as M
from . import replay as R
from .errors import ConfigError, ContractError, DecodeError, NumericError
from .tensor import Tensor

GAMMA_GRID = (1, 3, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120)

STORE_VERSION = 1


@dataclass
class StoreEntry:
    """One class in the prototype store: mean plus a covariance representation
    (full matrix or rank-k SVD triple), with provenance task indices."""

    mu: np.ndarray
    cov: np.ndarray | None
    svd: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    created_task: int
    calibrated_task: int
    _cov_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if (self.cov is None) == (self.svd is None):
            raise ContractError("entry needs exactly one covariance representation")

    def covariance(self) -> np.ndarray:
        """Full covariance; decomposed entries recompose lazily and cache."""
        if self.cov is not None:
            return self.cov
        if self._cov_cache is None:
            self._cov_cache = recompose(*self.svd)
        return self._cov_cache


class PrototypeStore:
    """Per-class prototype/covariance records updated at task barriers."""

    def __init__(self):
        self.entries: dict[int, StoreEntry] = {}

    def __contains__(self, cid):
        return cid in self.entries

    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def add(self, cid: int, mu: np.ndarray, cov: np.ndarray, task: int,
            svd_k: int | None = None) -> None:
        if cid in self.entries:
            raise ContractError(f"class {cid} already stored")
        mu = np.asarray(mu, dtype=np.float64)
        cov = np.asarray(cov, dtype=np.float64)
        if svd_k is None:
            self.entries[cid] = StoreEntry(mu, cov, None, task, task)
        else:
            self.entries[cid] = StoreEntry(mu, None, decompose(cov, svd_k), task, task)

    def prototypes(self) -> dict[int, np.ndarray]:
        return {cid: e.mu for cid, e in self.entries.items()}

    def covariances(self) -> dict[int, np.ndarray]:
        return {cid: e.covariance() for cid, e in self.entries.items()}

    def compress_all(self, k: int) -> None:
        for entry in self.entries.values():
            entry.svd = decompose(entry.covariance(), k)
            entry.cov = None
            entry._cov_cache = None


# -- drift samples ---------------------------------------------------------------


@dataclass(frozen=True)
class DriftConfig:
    """Attack settings for drift-sample generation (distinct from replay's)."""

    magnitude: float = 6.32
    iterations: int = 9
    candidates: int = 1000

    def __post_init__(self):
        if not self.magnitude > 0:
            raise ConfigError("adc.magnitude must be positive")
        if self.iterations < 1:
            raise ConfigError("adc.iterations must be >= 1")
        if self.candidates < 1:
            raise ConfigError("adc.candidates must be >= 1")


def generate_drift_samples(f_old: M.ExtractorParams, task_data: D.LabeledSet,
                           mu: np.ndarray, cfg: DriftConfig) -> Tensor:
    """Nearest new-task samples to a prototype, perturbed toward it.

    Distances use raw (un-augmented) features; the attack runs without
    target noise.  Asking for more candidates than the task provides uses
    every sample and warns.
    """
    n = len(task_data)
    take = cfg.candidates
    if take > n:
        warnings.warn(f"drift sampling wants {take} candidates, task has {n}; using all")
        take = n
    feats = M.features(f_old, task_data.x)
    dists = np.linalg.norm(feats - mu[None, :], axis=1)
    picked = np.argsort(dists, kind="stable")[:take]
    attack_cfg = R.AttackConfig(alpha=cfg.magnitude, n_attack=cfg.iterations, noise=False)
    targets = np.tile(mu, (take, 1))
    return R.adversarial_attack(f_old, task_data.x.data[picked], targets, attack_cfg)


# -- transfer matrix ---------------------------------------------------------------


def fit_transfer_matrix(feats_old: np.ndarray, feats_new: np.ndarray,
                        lr: float = 1e-4, epochs: int = 64):
    """Fit W minimizing mean ||feats_new - W feats_old||^2 by full-batch
    gradient descent from identity; also return the mean feature shift.

    With F = ``feats_old`` and N = ``feats_new`` the gradient is
    ``2/m (W F^T F - N^T F)``.  The Gram matrices ``F^T F`` and ``N^T F`` are
    formed once, so each epoch costs one d x d product instead of two
    products with the (m, d) residual.
    """
    feats_old = np.asarray(feats_old, dtype=np.float64)
    feats_new = np.asarray(feats_new, dtype=np.float64)
    if feats_old.shape != feats_new.shape or feats_old.ndim != 2:
        raise ContractError(
            f"paired feature matrices required, got {feats_old.shape} vs {feats_new.shape}")
    m, d = feats_old.shape
    gram = feats_old.T @ feats_old
    cross = feats_new.T @ feats_old
    w = np.eye(d)
    for _ in range(epochs):
        w = w - lr * (2.0 / m * (w @ gram - cross))
    if not np.all(np.isfinite(w)):
        raise NumericError("transfer-matrix fit diverged; reduce the learning rate")
    delta = feats_new.mean(axis=0) - feats_old.mean(axis=0)
    return w, delta


def lstsq_transfer_oracle(feats_old: np.ndarray, feats_new: np.ndarray) -> np.ndarray:
    """Closed-form least-squares target for the gradient-descent fit."""
    sol, *_ = np.linalg.lstsq(feats_old, feats_new, rcond=None)
    return sol.T


def stable_transfer_lr(feats_old: np.ndarray, safety: float = 0.5) -> float:
    """Largest step for which the full-batch MSE descent cannot diverge.

    The gradient is ``2/m * (W F^T - N^T) F``, so the contraction bound is
    ``lr < 1 / (2 lambda_max(F^T F / m))``; ``safety`` backs off from it.
    """
    feats_old = np.asarray(feats_old, dtype=np.float64)
    lam = float(np.linalg.eigvalsh(feats_old.T @ feats_old / len(feats_old)).max())
    if lam <= 0.0:
        return safety
    return safety / (2.0 * lam)


def calibrate(entry: StoreEntry, w: np.ndarray, delta: np.ndarray, task: int) -> None:
    """Carry one store entry into the updated feature space.

    Decomposed entries are recomposed, transformed, and recompressed at the
    same rank; the covariance is re-symmetrized to absorb rounding.
    """
    cov = entry.covariance()
    new_cov = w @ cov @ w.T
    new_cov = 0.5 * (new_cov + new_cov.T)
    entry.mu = entry.mu + delta
    if entry.cov is not None:
        entry.cov = new_cov
    else:
        k = entry.svd[1].shape[0]
        entry.svd = decompose(new_cov, k)
        entry._cov_cache = None
    entry.calibrated_task = task


# -- shrinkage and normalization -----------------------------------------------------


def shrink_normalize(cov: np.ndarray, gamma1: float, gamma2: float) -> np.ndarray:
    """Add scaled diagonal mass, then normalize to a correlation matrix."""
    cov = np.asarray(cov, dtype=np.float64)
    d = cov.shape[0]
    if cov.shape != (d, d) or np.max(np.abs(cov - cov.T)) > 1e-9:
        raise ContractError("shrinkage needs a symmetric square matrix")
    cov = 0.5 * (cov + cov.T)  # exact symmetry before normalizing
    v1 = float(np.trace(cov)) / d
    if d > 1:
        v2 = float(cov.sum() - np.trace(cov)) / (d * (d - 1))
    else:
        v2 = 0.0
    shrunk = cov + (gamma1 * v1 + gamma2 * v2) * np.eye(d)
    diag = np.diag(shrunk).copy()
    if np.any(diag <= 0.0):
        raise NumericError("shrinkage left a non-positive diagonal; increase gamma")
    scale = np.sqrt(diag)
    out = shrunk / np.outer(scale, scale)
    np.fill_diagonal(out, 1.0)
    return out


# -- SVD compression -------------------------------------------------------------------


def decompose(cov: np.ndarray, k: int):
    """Rank-k truncated SVD triple (U_k, S_k, V_k) with S_k a k x k diagonal."""
    cov = np.asarray(cov, dtype=np.float64)
    d = cov.shape[0]
    if not 1 <= k <= d:
        raise ConfigError(f"rank k={k} out of range [1, {d}]")
    u, s, vt = np.linalg.svd(cov)
    return u[:, :k].copy(), np.diag(s[:k]), vt[:k].copy()


def recompose(u: np.ndarray, s: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u @ s @ v


def decomposed_scalars(d: int, k: int) -> int:
    """Stored scalar count of the rank-k representation: 2kd + k^2."""
    return 2 * k * d + k * k


# -- shrinkage tuning -------------------------------------------------------------------


def tune_shrinkage(store: PrototypeStore, extractor: M.ExtractorParams,
                   val_set: D.LabeledSet, grid=GAMMA_GRID):
    """Grid-search gamma by Mahalanobis accuracy on the validation split.

    Both shrinkage weights take the same grid value, so the result is a
    ``(gamma, gamma)`` pair.  Ties break toward the smaller gamma (scan
    order).  Only data tagged as a validation split is accepted, so test data
    can never leak in here.
    """
    grid = tuple(grid)
    if not grid:
        raise ConfigError("empty shrinkage grid")
    if val_set.split != "val":
        raise ContractError(f"shrinkage tuning requires the val split, got {val_set.split!r}")
    missing = set(store.class_ids()) - set(val_set.y)
    if missing:
        raise ContractError(f"val split lacks classes {sorted(missing)}")

    from . import classify  # local import: classify depends on this module

    feats = M.features(extractor, val_set.x)
    labels = np.asarray(val_set.y)

    best, best_acc = None, -1.0
    for g in grid:
        pred = classify.MahalanobisScorer(store, g, g).predict(feats)
        acc = float(np.mean(pred == labels))
        if acc > best_acc:
            best, best_acc = (float(g), float(g)), acc
    return best


# -- persistence -------------------------------------------------------------------------


def save_store(store: PrototypeStore, path) -> None:
    records = {}
    for cid, e in store.entries.items():
        rec = {
            "mu": e.mu.tolist(),
            "created_task": e.created_task,
            "calibrated_task": e.calibrated_task,
        }
        if e.cov is not None:
            rec["repr"] = "full"
            rec["cov"] = e.cov.tolist()
        else:
            u, s, v = e.svd
            rec["repr"] = f"svd-{s.shape[0]}"
            rec["u"], rec["s"], rec["v"] = u.tolist(), s.tolist(), v.tolist()
        records[str(cid)] = rec
    payload = {"format_version": STORE_VERSION, "classes": records}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _store_field(rec: dict, key: str, where: str):
    if key not in rec:
        raise DecodeError(f"{where}: missing key {key!r}")
    return rec[key]


def _store_array(rec: dict, key: str, shape: tuple, where: str) -> np.ndarray:
    """``rec[key]`` as a finite float64 array of ``shape`` (``None`` matches
    any length), or a ``DecodeError`` naming the field."""
    try:
        arr = np.array(_store_field(rec, key, where), dtype=np.float64)
    except (TypeError, ValueError):
        raise DecodeError(f"{where}: {key!r} is not a numeric array") from None
    if arr.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        want = tuple("n" if n is None else n for n in shape)
        raise DecodeError(f"{where}: {key!r} has shape {arr.shape}, expected {want}")
    if not np.isfinite(arr).all():
        raise DecodeError(f"{where}: {key!r} has non-finite values")
    return arr


def _store_int(rec: dict, key: str, where: str) -> int:
    value = _store_field(rec, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise DecodeError(f"{where}: {key!r} must be an integer, got {value!r}")
    return value


def load_store(path) -> PrototypeStore:
    """Read a ``save_store`` file.  A file that is not valid JSON, or a class
    record with a missing, mistyped or misshapen field, raises a
    ``DecodeError`` naming the file, the class id and the key."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise DecodeError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(payload, dict):
        raise DecodeError(f"{path}: expected a JSON object")
    if payload.get("format_version") != STORE_VERSION:
        raise ContractError(
            f"{path}: unsupported store version {payload.get('format_version')}")
    classes = payload.get("classes")
    if not isinstance(classes, dict):
        raise DecodeError(f"{path}: missing or malformed key 'classes'")
    store = PrototypeStore()
    for cid_str, rec in classes.items():
        where = f"{path}: class {cid_str}"
        try:
            cid = int(cid_str)
        except ValueError:
            raise DecodeError(f"{where}: class id is not an integer") from None
        if not isinstance(rec, dict):
            raise DecodeError(f"{where}: record is not a JSON object")
        mu = _store_array(rec, "mu", (None,), where)
        d = len(mu)
        tasks = (_store_int(rec, "created_task", where), _store_int(rec, "calibrated_task", where))
        kind = _store_field(rec, "repr", where)
        if kind == "full":
            store.entries[cid] = StoreEntry(mu, _store_array(rec, "cov", (d, d), where),
                                            None, *tasks)
            continue
        rank = re.fullmatch(r"svd-([0-9]+)", kind) if isinstance(kind, str) else None
        k = 0 if rank is None else int(rank.group(1))
        if not 1 <= k <= d:
            raise DecodeError(f"{where}: 'repr' must be 'full' or 'svd-<k>' with "
                              f"1 <= k <= {d}, got {kind!r}")
        svd = (_store_array(rec, "u", (d, k), where), _store_array(rec, "s", (k, k), where),
               _store_array(rec, "v", (k, d), where))
        store.entries[cid] = StoreEntry(mu, None, svd, *tasks)
    return store

"""After-task drift compensation and covariance management.

Once a task finishes, perturbed drift samples are generated per old class,
a per-class linear transfer map is fitted between frozen and updated feature
spaces, and each stored class is replaced by a new immutable entry with
``mu + delta`` and ``W cov W^T``.  Covariances can be kept full or as a
truncated SVD triple of size ``2kd + k^2``, in which case the entry holds
only the triple; Mahalanobis evaluation shrinks and correlation-normalizes
them first.
"""

from __future__ import annotations

import json
import re
import warnings

import numpy as np

from . import data as D
from . import model as M
from . import replay as R
from .arrays import read_json, readonly, record_array, record_field, record_int, write_atomic
from .errors import ConfigError, ContractError, DecodeError, NumericError

GAMMA_GRID = (1, 3, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120)

STORE_VERSION = 1


class StoreEntry:
    """One stored class: read-only copies of its mean and covariance, and
    provenance task indices.  Build it from ``cov``, or from ``svd``, the
    rank-k triple (U_k, S_k, V_k) that the entry then holds instead; ``svd``
    is ``None`` when full.  A rank-k entry keeps only its factors: its
    ``cov`` is ``recompose(*svd)``, formed anew on each access.  Entries
    cannot be changed once built."""

    def __init__(self, mu, cov, svd, created_task: int, calibrated_task: int):
        if (cov is None) == (svd is None):
            raise ContractError("entry needs exactly one covariance representation")
        self.__dict__.update(
            mu=readonly(mu, "stored prototype"),
            svd=None if svd is None else tuple(readonly(a, "stored factors") for a in svd),
            created_task=created_task, calibrated_task=calibrated_task)
        if cov is not None:
            self.__dict__["_cov"] = readonly(cov, "stored covariance")

    def __setattr__(self, name, value):
        raise AttributeError(f"StoreEntry is read-only; cannot set {name!r}")

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays (a store sent by a helper process) come back writeable
        for a in (state["mu"], *(state["svd"] or (state["_cov"],))):
            a.flags.writeable = False
        self.__dict__.update(state)

    @property
    def cov(self) -> np.ndarray:
        if self.svd is None:
            return self._cov
        cov = recompose(*self.svd)
        cov.flags.writeable = False
        return cov

    @classmethod
    def build(cls, mu, cov, k: int | None, created_task: int, calibrated_task: int) -> StoreEntry:
        """An entry holding ``cov`` in full (``k`` None) or as its rank-k SVD."""
        if k is None:
            return cls(mu, cov, None, created_task, calibrated_task)
        return cls(mu, None, decompose(cov, k), created_task, calibrated_task)

    @property
    def rank(self) -> int | None:
        return None if self.svd is None else self.svd[1].shape[0]


class PrototypeStore:
    """Per-class prototype/covariance records, replaced at task barriers."""

    def __init__(self):
        self.entries: dict[int, StoreEntry] = {}

    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.entries))

    def add(self, cid: int, mu: np.ndarray, cov: np.ndarray, task: int,
            svd_k: int | None = None) -> None:
        if cid in self.entries:
            raise ContractError(f"class {cid} already stored")
        self.entries[cid] = StoreEntry.build(mu, cov, svd_k, task, task)

    def prototypes(self) -> dict[int, np.ndarray]:
        return {cid: e.mu for cid, e in self.entries.items()}

    def compress_all(self, k: int) -> None:
        """Every class as its rank-k SVD.  A class stored below rank k is
        refused before any class changes: it would gain only zeros."""
        for cid, e in sorted(self.entries.items()):
            if e.rank is not None and e.rank < k:
                raise ConfigError(f"class {cid} is stored at rank {e.rank}, below k={k}")
        self.entries = {cid: StoreEntry.build(e.mu, e.cov, k, e.created_task, e.calibrated_task)
                        for cid, e in self.entries.items()}


# -- drift samples ---------------------------------------------------------------


def generate_drift_samples(f_old: M.ExtractorParams, task_data: D.LabeledSet,
                           prototypes: dict[int, np.ndarray], attack_cfg: R.AttackConfig,
                           candidates: int) -> dict[int, np.ndarray]:
    """Per prototype, its ``candidates`` nearest new-task samples
    (``replay.assign_nearest``) perturbed toward it with ``attack_cfg``.

    Distances use raw (un-augmented) features, computed once for every
    class; the attack runs without target noise.  Asking for more candidates
    than the task provides uses every sample and warns.
    """
    if candidates < 1:
        raise ConfigError("adc.candidates must be >= 1")
    n = len(task_data)
    if candidates > n:
        warnings.warn(f"drift sampling wants {candidates} candidates, task has {n}; using all")
        candidates = n
    feats = M.features(f_old, task_data.x)
    dists = np.empty((len(prototypes), n))
    for row, mu in enumerate(prototypes.values()):
        dists[row] = np.linalg.norm(feats - mu[None, :], axis=1)
    picked = R.assign_nearest(dists, candidates)
    return {cid: R.adversarial_attack(f_old, task_data.x[idx], np.tile(mu, (candidates, 1)),
                                      attack_cfg)
            for (cid, mu), idx in zip(prototypes.items(), picked)}


# -- transfer matrix ---------------------------------------------------------------


def fit_transfer_matrix(feats_old: np.ndarray, feats_new: np.ndarray,
                        lr: float = 1e-4, epochs: int = 64):
    """W after ``epochs`` steps of full-batch gradient descent from identity
    on mean ||feats_new - W feats_old||^2; also return the mean feature shift.

    With F = ``feats_old``, N = ``feats_new`` and a = 2 lr / m, one step is
    ``W <- W (I - a G) + a C`` with G = F^T F and C = N^T F.  From
    G = Q diag(lam) Q^T and rho = 1 - a lam, the iterate after E steps is
    ``Q diag(rho^E) Q^T + C Q diag((1 - rho^E) / lam) Q^T`` (a E where lam is
    0): the descent's own early-stopped result, in one ``eigh`` and not E
    products.  ``log1p``/``expm1`` keep ``rho^E`` exact for small a lam.
    """
    feats_old = np.asarray(feats_old, dtype=np.float64)
    feats_new = np.asarray(feats_new, dtype=np.float64)
    if feats_old.shape != feats_new.shape or feats_old.ndim != 2:
        raise ContractError(
            f"paired feature matrices required, got {feats_old.shape} vs {feats_new.shape}")
    m, d = feats_old.shape
    lam, q = np.linalg.eigh(feats_old.T @ feats_old)
    cross = feats_new.T @ feats_old
    a = 2.0 * lr / m
    rho = 1.0 - a * lam
    with np.errstate(all="ignore"):  # a diverging step overflows; caught below
        log_rho = np.log1p(-a * lam)
        decay = np.where(rho > 0.0, np.exp(epochs * log_rho), rho ** epochs)
        gained = np.where(rho > 0.0, -np.expm1(epochs * log_rho), 1.0 - decay)
        gain = np.where(lam == 0.0, a * epochs, gained / lam)
        w = (q * decay + (cross @ q) * gain) @ q.T
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


def calibrate(entry: StoreEntry, w: np.ndarray, delta: np.ndarray, task: int) -> StoreEntry:
    """``entry`` carried into the updated feature space, as a new entry at its
    own rank: a decomposed entry's transformed covariance is decomposed again.
    The covariance is re-symmetrized to absorb rounding."""
    new_cov = w @ entry.cov @ w.T
    new_cov = 0.5 * (new_cov + new_cov.T)
    return StoreEntry.build(entry.mu + delta, new_cov, entry.rank, entry.created_task, task)


# -- shrinkage and normalization -----------------------------------------------------


def shrinkage_terms(cov: np.ndarray) -> tuple[np.ndarray, float, float]:
    """The exactly symmetrized covariance and the shrinkage scales: v1, the
    mean diagonal entry, and v2, the mean off-diagonal entry.  An asymmetry
    above 1e-9 of the largest entry's magnitude is rejected; a recomposed
    rank-k matrix is asymmetric only by rounding, at any scale."""
    cov = np.asarray(cov, dtype=np.float64)
    d = cov.shape[0]
    if cov.shape != (d, d) or np.max(np.abs(cov - cov.T)) > 1e-9 * np.max(np.abs(cov)):
        raise ContractError("shrinkage needs a symmetric square matrix")
    cov = 0.5 * (cov + cov.T)
    v1 = float(np.trace(cov)) / d
    if d > 1:
        v2 = float(cov.sum() - np.trace(cov)) / (d * (d - 1))
    else:
        v2 = 0.0
    return cov, v1, v2


def shrink_normalize(cov: np.ndarray, gamma1: float, gamma2: float) -> np.ndarray:
    """Add scaled diagonal mass, then normalize to a correlation matrix.

    This is the definition the Mahalanobis scorer evaluates in spectral form
    (``classify.MahalanobisScorer``) and the oracle its tests compare to.
    """
    cov, v1, v2 = shrinkage_terms(cov)
    shrunk = cov + (gamma1 * v1 + gamma2 * v2) * np.eye(cov.shape[0])
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


def tune_shrinkage(scorer, extractor: M.ExtractorParams, val_set: D.LabeledSet, grid):
    """Grid-search gamma by Mahalanobis accuracy on the validation split,
    through ``scorer``, a ``classify.MahalanobisScorer`` over the store.

    Both shrinkage weights take the same grid value, so the result is a
    ``(gamma, gamma)`` pair.  Ties go to the earlier grid value, the
    smaller one in an ascending grid such as ``GAMMA_GRID``.  Only data
    tagged as a validation split is accepted, so test data can never leak
    in here.  The scorer serves the whole grid
    (``MahalanobisScorer.scan``), and then the caller's predictions at the
    tuned pair.
    """
    grid = tuple(grid)
    if not grid:
        raise ConfigError("empty shrinkage grid")
    if val_set.split != "val":
        raise ContractError(f"shrinkage tuning requires the val split, got {val_set.split!r}")
    missing = set(scorer.ids) - set(val_set.y)
    if missing:
        raise ContractError(f"val split lacks classes {sorted(missing)}")

    feats = M.features(extractor, val_set.x)
    labels = np.asarray(val_set.y)
    best, best_acc = None, -1.0
    for g, pred in zip(grid, scorer.scan(feats, [(g, g) for g in grid])):
        acc = float(np.mean(pred == labels))
        if acc > best_acc:
            best, best_acc = (float(g), float(g)), acc
    return best


# -- persistence -------------------------------------------------------------------------


def save_store(store: PrototypeStore, path) -> None:
    """Write ``store`` as JSON.  The records hold the arrays themselves; each
    becomes a list of Python floats only while it is encoded."""
    records = {}
    for cid, e in store.entries.items():
        rec = {
            "mu": e.mu,
            "created_task": e.created_task,
            "calibrated_task": e.calibrated_task,
        }
        if e.svd is None:
            rec["repr"] = "full"
            rec["cov"] = e.cov
        else:
            rec["repr"] = f"svd-{e.rank}"
            rec["u"], rec["s"], rec["v"] = e.svd
        records[str(cid)] = rec
    payload = {"format_version": STORE_VERSION, "classes": records}
    write_atomic(path, json.dumps(payload, default=np.ndarray.tolist))


def load_store(path) -> PrototypeStore:
    """Read a ``save_store`` file.  A file that is not valid JSON, a class
    id not written as ``str(cid)``, or a class record with a missing,
    mistyped or misshapen field, raises a ``DecodeError`` naming the file,
    the class id and the key.  Every class must have the first class's
    feature width: a ``'mu'`` of another length is misshapen."""
    payload = read_json(path)
    if record_int(payload, "format_version", str(path)) != STORE_VERSION:
        raise DecodeError(f"{path}: unsupported 'format_version' {payload['format_version']}")
    classes = payload.get("classes")
    if not isinstance(classes, dict):
        raise DecodeError(f"{path}: missing or malformed key 'classes'")
    store, width = PrototypeStore(), None
    for cid_str, rec in classes.items():
        where = f"{path}: class {cid_str}"
        # only the form save_store writes: int() would also read "01", " 1",
        # "+1" or "1_0", and two spellings of one class would merge
        if not re.fullmatch(r"-?(0|[1-9][0-9]*)", cid_str):
            raise DecodeError(f"{where}: class id is not an integer as save_store "
                              f"writes one, got {cid_str!r}")
        cid = int(cid_str)
        if not isinstance(rec, dict):
            raise DecodeError(f"{where}: record is not a JSON object")
        mu = record_array(rec, "mu", (width,), where)
        d = width = len(mu)
        tasks = (record_int(rec, "created_task", where), record_int(rec, "calibrated_task", where))
        kind = record_field(rec, "repr", where)
        if kind == "full":
            store.entries[cid] = StoreEntry(mu, record_array(rec, "cov", (d, d), where),
                                            None, *tasks)
            continue
        rank = re.fullmatch(r"svd-([0-9]+)", kind) if isinstance(kind, str) else None
        k = 0 if rank is None else int(rank.group(1))
        if not 1 <= k <= d:
            raise DecodeError(f"{where}: 'repr' must be 'full' or 'svd-<k>' with "
                              f"1 <= k <= {d}, got {kind!r}")
        svd = (record_array(rec, "u", (d, k), where), record_array(rec, "s", (k, k), where),
               record_array(rec, "v", (k, d), where))
        store.entries[cid] = StoreEntry(mu, None, svd, *tasks)
    return store

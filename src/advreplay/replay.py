"""Pseudo-replay core: candidate sampling and the online adversarial attack.

Before a task starts, each old class picks the k new-task samples whose
augmented features land closest to its prototype; only the sample indices
and the recorded augmentation policies are stored.  During training those
candidates are rebuilt once per task and perturbed toward (noise-augmented)
prototypes with an iterative gradient attack against the frozen extractor.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import data as D
from . import model as M
from .arrays import readonly
from .errors import ConfigError, ContractError, DecodeError, DimensionError, NumericError

_GRAD_EPS = 1e-12


@dataclass(frozen=True)
class AttackConfig:
    """Step magnitude, iteration count and target noise for the perturbation
    loop; every step is ``alpha * grad / ||grad||^2`` (see
    ``adversarial_attack``)."""

    alpha: float
    n_attack: int
    noise: bool = True

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError("attack magnitude must be positive")
        if self.n_attack < 1:
            raise ConfigError("attack iteration count must be >= 1")


@dataclass(frozen=True)
class CandidateSet:
    """Per old class: sample indices into the task dataset plus recorded
    policies, as (classes, k) arrays whose rows follow the ascending
    ``class_ids``.  No sample payloads are stored; ``train.run_task``
    replays the policies into a bank of augmented current-task rows that
    lives for one task and is never saved.  The arrays are read-only copies."""

    class_ids: tuple[int, ...]
    indices: np.ndarray   # (classes, k) sample indices
    policies: np.ndarray  # (classes, k) ``data.POLICY_DTYPE`` records

    def __post_init__(self):
        ids = tuple(int(c) for c in self.class_ids)
        indices = np.array(self.indices, dtype=np.int64)
        policies = np.array(self.policies, dtype=D.POLICY_DTYPE)
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ContractError(f"candidate class ids must be ascending and distinct, got {ids}")
        if indices.ndim != 2 or indices.shape != policies.shape or len(indices) != len(ids) \
                or indices.shape[1] < 1:
            raise ContractError(f"{len(ids)} candidate classes need (classes, k) indices and "
                                f"policies with k >= 1, got {indices.shape} and {policies.shape}")
        indices.flags.writeable = policies.flags.writeable = False
        for name, value in (("class_ids", ids), ("indices", indices), ("policies", policies)):
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.indices.shape[1]


def assign_nearest(dists: np.ndarray, k: int, cap: int | None = None,
                   class_ids=None) -> np.ndarray:
    """Per row of a (prototypes, samples) distance matrix, the k nearest
    sample indices in ascending (distance, index) order.

    Without a cap each row takes its k nearest independently.  With a cap,
    all (row, sample) pairs are assigned greedily by (distance, sample, row),
    skipping samples already held by ``cap`` rows and rows already holding k
    samples; ``cap = len(dists)`` gives the uncapped result.  ``class_ids``
    names the rows when the greedy pass leaves some short (default: the
    row numbers).
    """
    rows_n, n = dists.shape
    if k > n:
        raise ConfigError(f"k={k} exceeds task dataset size {n}")
    if cap is None:
        return np.argsort(dists, axis=1, kind="stable")[:, :k]
    if cap < 1:
        raise ConfigError("assignment cap must be >= 1")
    if k * rows_n > n * cap:
        raise ConfigError(
            f"infeasible cap: need k*classes = {k * rows_n} assignments "
            f"but cap allows at most n*cap = {n * cap}")
    rows, samples = np.divmod(np.arange(rows_n * n), n)
    order = np.lexsort((rows, samples, dists.ravel()))
    chosen: list[list[int]] = [[] for _ in range(rows_n)]
    used = [0] * n
    remaining = rows_n
    for row, i in zip(rows[order].tolist(), samples[order].tolist()):
        bucket = chosen[row]
        if len(bucket) >= k or used[i] >= cap:
            continue
        bucket.append(i)
        used[i] += 1
        if len(bucket) == k:
            remaining -= 1
            if remaining == 0:
                break
    ids = range(rows_n) if class_ids is None else class_ids
    short = [cid for cid, bucket in zip(ids, chosen) if len(bucket) < k]
    if short:
        raise ConfigError(
            f"greedy assignment exhausted samples under cap={cap}; "
            f"classes short of k: {short}")
    return np.array(chosen, dtype=int)


def build_candidate_set(f_old: M.ExtractorParams, dataset: D.LabeledSet,
                        prototypes: dict[int, np.ndarray], k: int, rng,
                        cap: int | None = None,
                        family: D.AugFamily = D.AugFamily()) -> CandidateSet:
    """Assemble candidates for every old class.

    Each class draws one policy per sample (classes in ascending id order,
    all drawn before any is replayed), measures the augmented features'
    distances to its prototype in one replay, and
    ``assign_nearest`` picks k samples per class under the optional cap.
    """
    class_ids = sorted(prototypes)
    if not class_ids:
        raise ContractError("no prototypes to sample candidates for")
    n = len(dataset)
    policies = D.sample_policies(rng, family, len(class_ids) * n).reshape(len(class_ids), n)
    dists = np.empty(policies.shape)
    for row, (cid, pols) in enumerate(zip(class_ids, policies)):
        feats = M.features(f_old, D.apply_policy(dataset.x, pols))
        dists[row] = np.linalg.norm(feats - prototypes[cid], axis=1)
    picked = assign_nearest(dists, k, cap, class_ids)
    return CandidateSet(tuple(class_ids), picked, np.take_along_axis(policies, picked, axis=1))


# -- prototype noise and the attack --------------------------------------------


def noise_magnitude(covariances: dict[int, np.ndarray], feature_dim: int) -> float:
    """sqrt of the summed per-class trace/d; grows with the class inventory."""
    if not covariances:
        raise ContractError("noise magnitude needs at least one covariance")
    total = 0.0
    for cid, cov in covariances.items():
        cov = np.asarray(cov)
        if cov.shape != (feature_dim, feature_dim):
            raise ContractError(f"class {cid}: covariance must be ({feature_dim}, {feature_dim})")
        total += np.trace(cov) / feature_dim
    return float(np.sqrt(total))


def attack_targets(targets, cfg: AttackConfig, r: float = 0.0, rng=None) -> np.ndarray:
    """The targets of every attack iteration, as ``adversarial_attack`` draws
    them: with noise (``cfg.noise`` and ``r > 0``) an (n_attack, batch, d)
    array ``targets + r * N(0, 1)`` from one ``rng`` call, the same stream
    as one draw per iteration; else ``targets[None]``, drawing nothing.
    Non-finite targets raise ``NumericError``."""
    targets = np.asarray(targets, dtype=np.float64)
    noisy = cfg.noise and r > 0.0
    if noisy and rng is None:
        raise ContractError("noise-augmented targets need an rng")
    if noisy:
        tgts = targets + r * rng.standard_normal((cfg.n_attack, *targets.shape))
    else:
        tgts = targets[None]
    if not np.isfinite(tgts).all():
        raise NumericError("non-finite attack targets")
    return tgts


def adversarial_attack(f_old: M.ExtractorParams, x, targets, cfg: AttackConfig,
                       r: float = 0.0, rng=None) -> np.ndarray:
    """Iteratively move a batch so its frozen-extractor features approach
    per-sample targets.

    Loss per sample is the squared euclidean distance between feature and
    target; each step subtracts ``alpha * grad / ||grad||^2`` (per-sample
    norm over the input coordinates).  Samples whose gradient norm falls
    under 1e-12 pass through an iteration unperturbed.  No clipping and no
    similarity constraint is applied; the result is a fresh read-only array.
    The input gradient comes from ``model.feature_vjp``, so no tape is
    built.  The targets of all iterations (each with its own noise draw)
    are built and checked once, before the first iteration, by
    ``attack_targets``; non-finite targets, distances, gradients or output
    raise ``NumericError``.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or targets.ndim != 2 or x.shape[0] != targets.shape[0]:
        raise ContractError("attack expects matched (batch, input_dim) and (batch, d)")
    if targets.shape[1] != f_old.feature_dim:
        raise DimensionError(
            f"attack: targets have width {targets.shape[1]}, features {f_old.feature_dim}")
    tgts = attack_targets(targets, cfg, r, rng)

    current = x
    for i in range(cfg.n_attack):
        feats, vjp = M.feature_vjp(f_old, current)
        diff = feats - tgts[i % len(tgts)]  # one target set without noise
        if not np.isfinite((diff * diff).sum()):
            raise NumericError("non-finite squared distance in attack")
        g = vjp(diff + diff)
        norms = np.sqrt(np.add.reduce(g * g, axis=1))  # np.linalg.norm(g, axis=1)
        active = norms >= _GRAD_EPS
        step = np.divide(cfg.alpha * g, norms[:, None] ** 2, out=np.zeros_like(g),
                         where=active[:, None])
        current = current - step
    return readonly(current, "attack output")


# -- serialization --------------------------------------------------------------


def _class_record(k: int) -> np.dtype:
    """One serialized class, packed: u32 class id, u32 k, k u32 indices, k policies."""
    return np.dtype([("class_id", "<u4"), ("k", "<u4"), ("indices", "<u4", (k,)),
                     ("policies", D.POLICY_DTYPE, (k,))])


def encode_candidate_set(candidates: CandidateSet) -> bytes:
    """One ``_class_record`` per class, in ascending class id order.  A class
    id or candidate index outside ``[0, 2**32)`` does not fit its u32 field
    and raises ``ContractError`` naming the class."""
    for cid, row in zip(candidates.class_ids, candidates.indices):
        wide = row[(row < 0) | (row >= 2**32)]
        if not 0 <= cid < 2**32:
            raise ContractError(f"class {cid}: the class id does not fit the codec's u32 field")
        if len(wide):
            raise ContractError(f"class {cid}: candidate index {wide[0]} does not fit "
                                f"the codec's u32 field")
    out = np.empty(len(candidates.class_ids), _class_record(candidates.k))
    out["class_id"], out["k"] = candidates.class_ids, candidates.k
    out["indices"], out["policies"] = candidates.indices, candidates.policies
    return out.tobytes()


def decode_candidate_set(payload: bytes) -> CandidateSet:
    """An ``encode_candidate_set`` payload's classes, in any order but with one
    k, as a candidate set; a malformed payload raises ``DecodeError``."""
    if len(payload) < 8:
        raise DecodeError(f"candidate-set payload of {len(payload)} bytes has no class header")
    cid, k = struct.unpack_from("<II", payload)
    if k < 1:
        raise DecodeError(f"class {cid}: candidate-set k must be >= 1")
    size = candidate_set_nbytes(1, k)  # checked before a dtype of this size is built
    if len(payload) % size:
        raise DecodeError(f"candidate-set payload of {len(payload)} bytes is not whole "
                          f"{size}-byte class records (k={k})")
    classes = np.frombuffer(payload, _class_record(k))
    if (classes["k"] != k).any():
        raise DecodeError("inconsistent k across classes")
    ids, counts = np.unique(classes["class_id"], return_counts=True)
    if (counts > 1).any():
        raise DecodeError(f"class {ids[counts.argmax()]} repeated in candidate-set payload")
    classes = classes[np.argsort(classes["class_id"])]
    policies = D.decode_policies(classes["policies"].tobytes()).reshape(len(ids), k)
    return CandidateSet(tuple(ids.tolist()), classes["indices"], policies)


def candidate_set_nbytes(n_classes: int, k: int) -> int:
    """Exact serialized size: header + indices + fixed-width policy records."""
    return n_classes * (8 + k * (4 + D.POLICY_RECORD_BYTES))

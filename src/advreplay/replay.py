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
    policies.  No sample payloads are stored; ``train.run_task`` replays the
    policies into a bank of augmented current-task rows that lives for one
    task and is never saved."""

    k: int
    indices: dict[int, tuple[int, ...]]
    policies: dict[int, tuple[D.AugPolicy, ...]]

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))

    def __post_init__(self):
        for cid, idx in self.indices.items():
            if len(idx) != self.k or len(self.policies[cid]) != self.k:
                raise ContractError(f"class {cid}: candidate lists must have length k")


def _augmented_features(f_old: M.ExtractorParams, dataset: D.LabeledSet,
                        policies) -> np.ndarray:
    rows = [D.apply_policy(x, p) for x, p in zip(dataset.x, policies)]
    return M.features(f_old, np.stack(rows))


def candidate_distances(f_old: M.ExtractorParams, dataset: D.LabeledSet,
                        mu: np.ndarray, rng, family: D.AugFamily):
    """Per-sample policies and feature-to-prototype distances for one class."""
    policies = tuple(D.sample_policy(rng, family) for _ in range(len(dataset)))
    feats = _augmented_features(f_old, dataset, policies)
    dists = np.linalg.norm(feats - mu[None, :], axis=1)
    return policies, dists


def sample_candidates(f_old: M.ExtractorParams, dataset: D.LabeledSet,
                      mu: np.ndarray, k: int, rng,
                      family: D.AugFamily = D.DEFAULT_FAMILY):
    """Pick the k smallest-distance samples for one prototype.

    Ties break toward the smaller sample index (stable argsort on distance).
    """
    if k > len(dataset):
        raise ConfigError(f"k={k} exceeds task dataset size {len(dataset)}")
    policies, dists = candidate_distances(f_old, dataset, mu, rng, family)
    order = np.argsort(dists, kind="stable")[:k]
    picked = tuple(int(i) for i in order)
    return picked, tuple(policies[i] for i in picked)


def build_candidate_set(f_old: M.ExtractorParams, dataset: D.LabeledSet,
                        prototypes: dict[int, np.ndarray], k: int, rng,
                        cap: int | None = None,
                        family: D.AugFamily = D.DEFAULT_FAMILY) -> CandidateSet:
    """Assemble candidates for every old class.

    Without a cap each class independently takes its k nearest samples.
    With a cap, all (sample, class) distance pairs are assigned greedily
    from the global minimum upward, skipping samples already claimed by
    ``cap`` classes and classes that already hold k samples.
    """
    class_ids = sorted(prototypes)
    if not class_ids:
        raise ContractError("no prototypes to sample candidates for")
    n = len(dataset)
    if k > n:
        raise ConfigError(f"k={k} exceeds task dataset size {n}")

    if cap is None:
        indices, policies = {}, {}
        for cid in class_ids:
            indices[cid], policies[cid] = sample_candidates(
                f_old, dataset, prototypes[cid], k, rng, family)
        return CandidateSet(k, indices, policies)

    if cap < 1:
        raise ConfigError("assignment cap must be >= 1")
    if k * len(class_ids) > n * cap:
        raise ConfigError(
            f"infeasible cap: need k*classes = {k * len(class_ids)} assignments "
            f"but cap allows at most n*cap = {n * cap}")

    per_class = {}
    for cid in class_ids:
        per_class[cid] = candidate_distances(f_old, dataset, prototypes[cid], rng, family)

    # global greedy pass over the (sample, class) distance matrix
    pairs = []
    for col, cid in enumerate(class_ids):
        _, dists = per_class[cid]
        for i in range(n):
            pairs.append((dists[i], i, col))
    pairs.sort()

    used = np.zeros(n, dtype=int)
    chosen: dict[int, list[int]] = {cid: [] for cid in class_ids}
    remaining = len(class_ids)
    for dist, i, col in pairs:
        cid = class_ids[col]
        bucket = chosen[cid]
        if len(bucket) >= k or used[i] >= cap:
            continue
        bucket.append(i)
        used[i] += 1
        if len(bucket) == k:
            remaining -= 1
            if remaining == 0:
                break
    short = [cid for cid in class_ids if len(chosen[cid]) < k]
    if short:
        raise ConfigError(
            f"greedy assignment exhausted samples under cap={cap}; "
            f"classes short of k: {short}")

    indices, policies = {}, {}
    for cid in class_ids:
        pol, _ = per_class[cid]
        idx = chosen[cid]
        indices[cid] = tuple(idx)
        policies[cid] = tuple(pol[i] for i in idx)
    return CandidateSet(k, indices, policies)


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
    built; non-finite targets, distances, gradients or output raise
    ``NumericError``.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or targets.ndim != 2 or x.shape[0] != targets.shape[0]:
        raise ContractError("attack expects matched (batch, input_dim) and (batch, d)")
    if targets.shape[1] != f_old.feature_dim:
        raise DimensionError(
            f"attack: targets have width {targets.shape[1]}, features {f_old.feature_dim}")
    if cfg.noise and r > 0.0 and rng is None:
        raise ContractError("noise-augmented targets need an rng")

    current = x
    for _ in range(cfg.n_attack):
        tgt = targets
        if cfg.noise and r > 0.0:
            tgt = targets + r * rng.standard_normal(targets.shape)
        if not np.isfinite(tgt).all():
            raise NumericError("non-finite attack targets")
        feats, vjp = M.feature_vjp(f_old, current)
        diff = feats - tgt
        if not np.isfinite((diff * diff).sum()):
            raise NumericError("non-finite squared distance in attack")
        g = vjp(diff + diff)
        norms = np.linalg.norm(g, axis=1)
        active = norms >= _GRAD_EPS
        step = np.zeros_like(g)
        step[active] = cfg.alpha * g[active] / norms[active, None] ** 2
        current = current - step
    return readonly(current, "attack output")


# -- serialization --------------------------------------------------------------


def encode_candidate_set(candidates: CandidateSet) -> bytes:
    """Per class: u32 class id, u32 k, k u32 indices, k policy records."""
    chunks = []
    for cid in candidates.classes():
        chunks.append(struct.pack("<II", cid, candidates.k))
        chunks.append(np.asarray(candidates.indices[cid], dtype="<u4").tobytes())
        for policy in candidates.policies[cid]:
            chunks.append(D.encode_policy(policy))
    return b"".join(chunks)


def decode_candidate_set(payload: bytes) -> CandidateSet:
    indices: dict[int, tuple[int, ...]] = {}
    policies: dict[int, tuple[D.AugPolicy, ...]] = {}
    offset, k = 0, None
    while offset < len(payload):
        if offset + 8 > len(payload):
            raise DecodeError("truncated candidate-set header")
        cid, class_k = struct.unpack_from("<II", payload, offset)
        offset += 8
        if k is None:
            k = class_k
        elif class_k != k:
            raise DecodeError("inconsistent k across classes")
        need = 4 * class_k + D.POLICY_RECORD_BYTES * class_k
        if offset + need > len(payload):
            raise DecodeError(f"truncated candidate records for class {cid}")
        idx = np.frombuffer(payload, dtype="<u4", count=class_k, offset=offset)
        offset += 4 * class_k
        pols = []
        for _ in range(class_k):
            pols.append(D.decode_policy(payload[offset: offset + D.POLICY_RECORD_BYTES]))
            offset += D.POLICY_RECORD_BYTES
        indices[cid] = tuple(int(i) for i in idx)
        policies[cid] = tuple(pols)
    if k is None:
        raise DecodeError("empty candidate-set payload")
    return CandidateSet(k, indices, policies)


def candidate_set_nbytes(n_classes: int, k: int) -> int:
    """Exact serialized size: header + indices + fixed-width policy records."""
    return n_classes * (8 + k * (4 + D.POLICY_RECORD_BYTES))

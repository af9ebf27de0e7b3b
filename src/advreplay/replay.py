"""Pseudo-replay core: candidate sampling and the online adversarial attack.

Before a task starts, each old class picks the k new-task samples whose
augmented features land closest to its prototype, and those samples,
replayed under their drawn augmentation policies, are the task's replay
bank.  No replay sample is stored: the bank is made from the new task's
rows and lives for that task only.  During training its rows are perturbed
toward (noise-augmented) prototypes with an iterative gradient attack
against the frozen extractor, run in float32.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import data as D
from . import model as M
from .arrays import readonly
from .errors import ConfigError, ContractError, DimensionError, NumericError

_GRAD_EPS = 1e-12


@dataclass(frozen=True)
class AttackConfig:
    """Step magnitude and iteration count for the perturbation loop; every
    step is ``alpha * grad / ||grad||^2`` (see ``adversarial_attack``)."""

    alpha: float
    n_attack: int

    def __post_init__(self):
        if self.alpha <= 0:
            raise ConfigError("attack magnitude must be positive")
        if self.n_attack < 1:
            raise ConfigError("attack iteration count must be >= 1")


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
                        family: D.AugFamily = D.AugFamily()) -> np.ndarray:
    """The (classes, k, input_dim) replay bank of every old class, classes
    in ascending id order.

    Each class draws one policy per sample (classes in ascending id order,
    all drawn before any is replayed), measures the augmented features'
    distances to its prototype on one ``apply_policy`` replay of every
    task row, and ``assign_nearest`` picks k samples per class under the
    optional cap.  The bank is gathered from those replays, so each picked
    (sample, policy) pair is replayed once.
    """
    class_ids = sorted(prototypes)
    if not class_ids:
        raise ContractError("no prototypes to sample candidates for")
    n = len(dataset)
    policies = D.sample_policies(rng, family, len(class_ids) * n).reshape(len(class_ids), n)
    rows = np.array([D.apply_policy(dataset.x, pols) for pols in policies])
    dists = np.array([np.linalg.norm(M.features(f_old, aug) - prototypes[cid], axis=1)
                      for cid, aug in zip(class_ids, rows)])
    picked = assign_nearest(dists, k, cap, class_ids)
    return np.take_along_axis(rows, picked[..., None], axis=1)


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


def _nonfinite(message: str, finite_in_float64) -> NumericError:
    """The attack's error for a non-finite value; one finite in float64 is
    blamed on float32's range, not on the data."""
    if finite_in_float64:
        message += ": finite in float64, but beyond the float32 attack's range (about 3.4e38)"
    return NumericError(message)


def adversarial_attack(f_old: M.ExtractorParams, x, targets, cfg: AttackConfig,
                       noise=None) -> np.ndarray:
    """Iteratively move a batch so its frozen-extractor features approach
    per-sample targets.

    Loss per sample is the squared euclidean distance between feature and
    target; each step subtracts ``alpha * grad / ||grad||^2`` (per-sample
    norm over the input coordinates).  Samples whose gradient norm falls
    under 1e-12 pass through an iteration unperturbed.  No clipping and no
    similarity constraint is applied.  The loop runs in float32: the frozen
    extractor's weights and biases, ``x`` and ``targets`` are cast once per
    call, and the input gradient comes from ``model.feature_vjp`` on that
    float32 copy, so no tape is built.  The result is a fresh read-only
    float64 array, the exact upcast of the float32 rows.

    With ``noise``, a ``(generator, scale)`` pair such as the prototype
    noise, iteration i aims at ``targets`` plus ``scale`` times a float32
    standard normal draw of the targets' shape, made just before that
    iteration's pass into one reused buffer; the draws leave ``generator``
    where one ``(n_attack, batch, d)`` float32 draw would.  Without it every
    iteration aims at ``targets``.  The targets are checked before the pass
    that uses them; non-finite inputs, targets, distances, gradients or
    output raise ``NumericError``.  Where an input, a target or a squared
    distance is finite in float64 but not in float32 (whose range ends near
    3.4e38), the error names the float32 attack's range, not the data.
    """
    raw_x, raw_targets = x, targets
    x = np.asarray(x, dtype=np.float32)
    targets = np.asarray(targets, dtype=np.float32)
    if x.ndim != 2 or targets.ndim != 2 or x.shape[0] != targets.shape[0]:
        raise ContractError("attack expects matched (batch, input_dim) and (batch, d)")
    if targets.shape[1] != f_old.feature_dim:
        raise DimensionError(
            f"attack: targets have width {targets.shape[1]}, features {f_old.feature_dim}")
    if not np.isfinite(x).all() and np.isfinite(raw_x).all():
        raise _nonfinite("non-finite attack input", True)
    if noise is None:
        if not np.isfinite(targets).all():
            raise _nonfinite("non-finite attack targets", np.isfinite(raw_targets).all())
        aim = targets
    else:
        if not (isinstance(noise, tuple) and len(noise) == 2
                and isinstance(noise[0], np.random.Generator)
                and isinstance(noise[1], (int, float)) and noise[1] >= 0):
            raise ContractError("attack noise must be a (numpy Generator, scale >= 0) pair")
        generator, scale = noise
        draw, aim = np.empty_like(targets), np.empty_like(targets)
    f32 = replace(f_old, weights=[w.astype(np.float32) for w in f_old.weights],
                  biases=[b.astype(np.float32) for b in f_old.biases])

    current = x
    for _ in range(cfg.n_attack):
        if noise is not None:
            generator.standard_normal(dtype=np.float32, out=draw)
            np.multiply(draw, scale, out=aim)
            aim += targets
            if not np.isfinite(aim).all():
                raise _nonfinite("non-finite attack targets", np.isfinite(
                    draw.astype(float) * scale + raw_targets).all())
        feats, vjp = M.feature_vjp(f32, current)
        diff = feats - aim
        if not np.isfinite((diff * diff).sum()):
            wide = feats.astype(float) - aim
            raise _nonfinite("non-finite squared distance in attack",
                             np.isfinite((wide * wide).sum()))
        g = vjp(diff + diff)
        norms = np.sqrt(np.add.reduce(g * g, axis=1))  # np.linalg.norm(g, axis=1)
        active = norms >= _GRAD_EPS
        if active.all():  # the masked divide below, with nothing masked
            step = cfg.alpha * g / norms[:, None] ** 2
        else:
            step = np.divide(cfg.alpha * g, norms[:, None] ** 2, out=np.zeros_like(g),
                             where=active[:, None])
        current = current - step
    return readonly(current, "attack output")

"""Per-task optimization: local CE on new classes, local KD on old classes.

The combined objective is ``L = L_ce + lambda_kd * L_kd`` where the CE term
sees only the new-task batch and new-class logits, while the KD term sees
the new-task batch concatenated with the perturbed replay batch and only
old-class logits.  Because the head keeps old and new class weights as
separate leaves, the split is structural: neither term can touch the other
block's gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data as D
from . import model as M
from . import replay as R
from . import tensor as T
from .errors import ConfigError, ContractError, StatsError
from .tensor import Tensor


@dataclass(frozen=True)
class LossConfig:
    lambda_kd: float = 10.0
    kd_temperature: float = 2.0
    ce_temperature: float = 1.0

    def __post_init__(self):
        if self.lambda_kd < 0:
            raise ConfigError("lambda_kd must be non-negative")
        if self.kd_temperature <= 0 or self.ce_temperature <= 0:
            raise ConfigError("temperatures must be positive")


@dataclass(frozen=True)
class OptimConfig:
    """Plain SGD with weight decay and a cosine-decayed learning rate."""

    lr: float = 0.01
    weight_decay: float = 2e-4
    epochs: int = 20
    batch_new: int = 32
    batch_replay: int = 32

    def __post_init__(self):
        if self.lr < 0 or self.epochs < 1 or self.batch_new < 1 or self.batch_replay < 1:
            raise ConfigError("optimizer config out of range")


def cosine_lr(base_lr: float, epoch: int, total_epochs: int) -> float:
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


# -- losses ---------------------------------------------------------------------


def local_ce_loss(logits_new: Tensor, y_rel, temperature: float = 1.0) -> Tensor:
    """Mean softmax cross-entropy over relative labels within the new task."""
    y = np.asarray(y_rel, dtype=int)
    n_classes = logits_new.shape[1]
    if y.ndim != 1 or len(y) != logits_new.shape[0]:
        raise ContractError("labels must be one relative index per row")
    if y.min() < 0 or y.max() >= n_classes:
        raise ContractError(f"relative label out of range [0, {n_classes})")
    onehot = np.zeros(logits_new.shape)
    onehot[np.arange(len(y)), y] = 1.0
    logp = T.log_softmax(T.mul(logits_new, 1.0 / temperature))
    return T.neg(T.tmean(T.tsum(T.mul(Tensor(onehot), logp), axis=1)))


def local_kd_loss(logits_old_cur: Tensor, logits_old_prev: Tensor,
                  temperature: float = 2.0) -> Tensor:
    """Temperature-scaled KL(prev || cur) * T^2, averaged over the batch.

    The previous-model logits enter as a constant leaf, so no gradient can
    reach the frozen model.  Identical logits give exactly zero.
    """
    if logits_old_cur.shape != logits_old_prev.shape:
        raise ContractError(
            f"old-class logit blocks differ: {logits_old_cur.shape} vs {logits_old_prev.shape}")
    if not logits_old_prev.is_leaf:
        logits_old_prev = Tensor(logits_old_prev.data)
    inv_t = 1.0 / temperature
    logp_prev = T.log_softmax(T.mul(logits_old_prev, inv_t))
    p_prev = T.softmax(T.mul(logits_old_prev, inv_t))
    logq_cur = T.log_softmax(T.mul(logits_old_cur, inv_t))
    per_row = T.tsum(T.mul(p_prev, T.sub(logp_prev, logq_cur)), axis=1)
    return T.mul(T.tmean(per_row), temperature**2)


# -- statistics -------------------------------------------------------------------


def compute_class_stats(extractor: M.ExtractorParams, dataset: D.LabeledSet,
                        classes=None) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Feature mean and unbiased covariance per class."""
    classes = dataset.classes() if classes is None else tuple(classes)
    feats = M.features(extractor, dataset.x)
    labels = np.asarray(dataset.y)
    stats = {}
    for cid in classes:
        rows = feats[labels == cid]
        if len(rows) < 2:
            raise StatsError(f"class {cid}: need >= 2 samples for covariance")
        mu = rows.mean(axis=0)
        centered = rows - mu
        cov = centered.T @ centered / (len(rows) - 1)
        stats[cid] = (mu, 0.5 * (cov + cov.T))
    return stats


# -- SGD ---------------------------------------------------------------------------


def sgd_step(state: M.ModelState, loss: Tensor, lr: float,
             weight_decay: float) -> M.ModelState:
    params = M.trainable_params(state)
    _, grads = T.value_and_grad(loss, params)
    mapping = {p: Tensor(p.data - lr * (grads[p].data + weight_decay * p.data))
               for p in params}
    return M.replace_params(state, mapping)


def _batch_iter(n: int, batch_size: int, rng):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start: start + batch_size]


def train_initial(state: M.ModelState, dataset: D.LabeledSet, loss_cfg: LossConfig,
                  optim_cfg: OptimConfig, rng) -> M.ModelState:
    """Task-0 training: plain CE over the initial class group."""
    if state.task_index != 0:
        raise ContractError("train_initial only applies at task 0")
    class_ids = state.head.new_ids
    rel = {cid: i for i, cid in enumerate(class_ids)}
    y_rel = np.array([rel[c] for c in dataset.y])
    x = dataset.x.data
    for epoch in range(optim_cfg.epochs):
        lr = cosine_lr(optim_cfg.lr, epoch, optim_cfg.epochs)
        for batch in _batch_iter(len(dataset), optim_cfg.batch_new, rng):
            feats = M.extract(state.extractor, Tensor(x[batch]))
            out = M.logits(state.head, feats, "new_only")
            loss = local_ce_loss(out, y_rel[batch], loss_cfg.ce_temperature)
            state = sgd_step(state, loss, lr, optim_cfg.weight_decay)
    return state


class _ReplaySampler:
    """Round-robin over old classes; within-class order reshuffled per epoch."""

    def __init__(self, candidates: R.CandidateSet, rng):
        self.candidates = candidates
        self.class_ids = candidates.classes()
        self.rng = rng
        self.cursor = 0
        self.orders = {}
        self.positions = {}
        self._reshuffle()

    def _reshuffle(self):
        for cid in self.class_ids:
            self.orders[cid] = self.rng.permutation(self.candidates.k)
            self.positions[cid] = 0

    def new_epoch(self):
        self._reshuffle()

    def draw(self, count: int):
        picks = []
        for _ in range(count):
            cid = self.class_ids[self.cursor]
            self.cursor = (self.cursor + 1) % len(self.class_ids)
            pos = self.positions[cid]
            slot = self.orders[cid][pos % self.candidates.k]
            self.positions[cid] = pos + 1
            picks.append((cid, int(slot)))
        return picks


def run_task(state: M.ModelState, task_data: D.LabeledSet,
             candidates: R.CandidateSet | None,
             prototypes: dict[int, np.ndarray] | None,
             noise_r: float,
             loss_cfg: LossConfig, optim_cfg: OptimConfig,
             attack_cfg: R.AttackConfig | None,
             rng) -> tuple[M.ModelState, list[dict]]:
    """One incremental task (t >= 1) over new data plus pseudo-replay.

    Each iteration draws a new-task batch and, when candidates exist, a
    replay batch for the distillation pass; with an ``attack_cfg`` its rows
    are first perturbed toward their class prototypes, and without one they
    are replayed unperturbed.  Replay rows come from a bank built once
    per task by replaying every candidate's recorded policy on its sample;
    the bank holds augmented current-task rows only and is never stored, so
    the stored replay state stays sample indices plus policy records.  The
    frozen model is never touched (checked by checksum at entry and exit).
    Returns the trained state and one ``{epoch, lr, ce_loss, kd_loss}`` row
    per epoch for the run CSV.
    """
    if state.task_index < 1 or state.frozen is None:
        raise ContractError("run_task needs a snapshotted model at task >= 1")
    frozen_ext, frozen_head = state.frozen
    frozen_sum = M.checksum(frozen_ext, frozen_head)
    if frozen_head.class_ids != state.head.old_ids:
        raise ContractError("frozen head classes must equal the current old split")

    if candidates is not None:
        missing = set(state.head.old_ids) - set(candidates.classes())
        if missing:
            raise ContractError(f"candidates missing for old classes {sorted(missing)}")
        if prototypes is None:
            raise ContractError("replay needs prototypes for attack targets")

    class_ids = state.head.new_ids
    rel = {cid: i for i, cid in enumerate(class_ids)}
    y_rel = np.array([rel[c] for c in task_data.y])
    x = task_data.x.data

    sampler, bank = None, None
    if candidates is not None:
        sampler = _ReplaySampler(candidates, rng)
        bank = {cid: np.stack([D.apply_policy(x[i], policy) for i, policy in
                               zip(candidates.indices[cid], candidates.policies[cid])])
                for cid in candidates.classes()}
    epochs = []

    for epoch in range(optim_cfg.epochs):
        lr = cosine_lr(optim_cfg.lr, epoch, optim_cfg.epochs)
        if sampler is not None:
            sampler.new_epoch()
        ce_sum, kd_sum, steps = 0.0, 0.0, 0

        for batch in _batch_iter(len(task_data), optim_cfg.batch_new, rng):
            x_new = Tensor(x[batch])
            feats_new = M.extract(state.extractor, x_new)
            out_new = M.logits(state.head, feats_new, "new_only")
            ce = local_ce_loss(out_new, y_rel[batch], loss_cfg.ce_temperature)
            loss = ce
            kd_value = 0.0

            if loss_cfg.lambda_kd > 0.0:
                kd_inputs = [x_new.data]
                if sampler is not None:
                    picks = sampler.draw(optim_cfg.batch_replay)
                    replay_rows = np.stack([bank[cid][slot] for cid, slot in picks])
                    if attack_cfg is not None:
                        targets = np.stack([prototypes[cid] for cid, _ in picks])
                        replay_rows = R.adversarial_attack(
                            frozen_ext, replay_rows, targets, attack_cfg,
                            r=noise_r, rng=rng).data
                    kd_inputs.append(replay_rows)
                x_kd = Tensor(np.concatenate(kd_inputs))
                cur_old = M.logits(state.head, M.extract(state.extractor, x_kd), "old_only")
                # the whole frozen head is the old-class block at task t
                prev_old = M.logits(frozen_head, M.features(frozen_ext, x_kd), "all")
                kd = local_kd_loss(cur_old, Tensor(prev_old.data), loss_cfg.kd_temperature)
                loss = T.add(ce, T.mul(kd, loss_cfg.lambda_kd))
                kd_value = float(kd.data)

            state = sgd_step(state, loss, lr, optim_cfg.weight_decay)
            ce_sum += float(ce.data)
            kd_sum += kd_value
            steps += 1

        epochs.append({
            "epoch": epoch, "lr": lr,
            "ce_loss": ce_sum / steps, "kd_loss": kd_sum / steps,
        })

    if M.checksum(frozen_ext, frozen_head) != frozen_sum:
        raise ContractError("frozen model mutated during run_task")
    return state, epochs

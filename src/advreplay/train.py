"""Per-task optimization: local CE on new classes, local KD on old classes.

The combined objective is ``L = L_ce + lambda_kd * L_kd`` where the CE term
sees only the new-task batch and new-class logits, while the KD term sees
the new-task batch concatenated with the perturbed replay batch and only
old-class logits.  Because the head keeps old and new class weights as
separate leaves, the split is structural: neither term can touch the other
block's gradient.

Each SGD step is tape-free: ``loss_and_grads`` runs this fixed graph
forward in plain numpy and walks it back by hand, op for op as the autodiff
tape would, so its losses and gradients are bit-identical to the taped
``local_ce_loss``/``local_kd_loss`` under ``tensor.value_and_grad``.  Those
taped losses stay as the oracle that tests compare against.

One step loop, ``_fit``, trains every task: task 0 on plain CE, later
tasks with KD too.  It holds the trainable parameters as one flat vector in
the ``model.param_views`` layout, and the gradient comes back as one flat
vector in the same layout, so ``sgd_step`` is a single elementwise update
and a single finiteness check over the whole model.

Everything an incremental task draws from its rng (the batches, the replay
rows and the attack's target noise) comes from ``task_schedule``, which
reads no model at all.  A step's replay attack is a pure function of those
draws and the frozen model, so ``run_task`` can map it over the steps in a
helper process on a spare CPU.
"""

from __future__ import annotations

from collections import deque
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import blas
from . import data as D
from . import model as M
from . import replay as R
from . import tensor as T
from .errors import ConfigError, ContractError, EngineError, NumericError, StatsError


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
    return float(base_lr * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs)))


# -- losses ---------------------------------------------------------------------


def _onehot(y_rel, shape) -> np.ndarray:
    y = np.asarray(y_rel, dtype=int)
    n_classes = shape[1]
    if y.ndim != 1 or len(y) != shape[0]:
        raise ContractError("labels must be one relative index per row")
    if y.min() < 0 or y.max() >= n_classes:
        raise ContractError(f"relative label out of range [0, {n_classes})")
    onehot = np.zeros(shape)
    onehot[np.arange(len(y)), y] = 1.0
    return onehot


def _check_blocks(cur_shape, prev_shape) -> None:
    if cur_shape != prev_shape:
        raise ContractError(f"old-class logit blocks differ: {cur_shape} vs {prev_shape}")


def local_ce_loss(logits_new: T.Tensor, y_rel, temperature: float = 1.0) -> T.Tensor:
    """Mean softmax cross-entropy over relative labels within the new task
    (taped; the oracle for ``loss_and_grads``)."""
    onehot = _onehot(y_rel, logits_new.shape)
    logp = T.log_softmax(T.mul(logits_new, 1.0 / temperature))
    return T.neg(T.tmean(T.tsum(T.mul(T.Tensor(onehot), logp), axis=1)))


def local_kd_loss(logits_old_cur: T.Tensor, logits_old_prev: T.Tensor,
                  temperature: float = 2.0) -> T.Tensor:
    """Temperature-scaled KL(prev || cur) * T^2, averaged over the batch
    (taped; the oracle for ``loss_and_grads``).

    The previous-model logits enter as a constant leaf, so no gradient can
    reach the frozen model.  Identical logits give exactly zero.
    """
    _check_blocks(logits_old_cur.shape, logits_old_prev.shape)
    if not logits_old_prev.is_leaf:
        logits_old_prev = T.Tensor(logits_old_prev.data)
    inv_t = 1.0 / temperature
    logp_prev = T.log_softmax(T.mul(logits_old_prev, inv_t))
    p_prev = T.softmax(T.mul(logits_old_prev, inv_t))
    logq_cur = T.log_softmax(T.mul(logits_old_cur, inv_t))
    per_row = T.tsum(T.mul(p_prev, T.sub(logp_prev, logq_cur)), axis=1)
    return T.mul(T.tmean(per_row), temperature**2)


# -- statistics -------------------------------------------------------------------


def compute_class_stats(extractor: M.ExtractorParams,
                        dataset: D.LabeledSet) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Feature mean and unbiased covariance per class of ``dataset``."""
    feats = M.features(extractor, dataset.x)
    labels = np.asarray(dataset.y)
    stats = {}
    for cid in dataset.classes():
        rows = feats[labels == cid]
        if len(rows) < 2:
            raise StatsError(f"class {cid}: need >= 2 samples for covariance")
        mu = rows.mean(axis=0)
        centered = rows - mu
        cov = centered.T @ centered / (len(rows) - 1)
        stats[cid] = (mu, 0.5 * (cov + cov.T))
    return stats


# -- SGD ---------------------------------------------------------------------------


def _ce_vjp(logits: np.ndarray, y_rel, temperature: float):
    """``local_ce_loss`` in plain numpy: the value and d(loss)/d(logits)."""
    onehot = _onehot(y_rel, logits.shape)
    inv_t = 1.0 / temperature
    logp, logp_vjp = T.log_softmax_vjp(logits * inv_t)
    rows = (onehot * logp).sum(axis=1)
    # the tape's neg, mean and row-sum VJPs map the unit seed to -1/n per entry
    g = np.full(logits.shape, -1.0 / rows.size)
    return -rows.mean(), logp_vjp(g * onehot) * inv_t


def _kd_vjp(cur: np.ndarray, prev: np.ndarray, temperature: float, weight: float):
    """``local_kd_loss`` in plain numpy: the value and the gradient of
    ``weight * kd`` with respect to the current old-class logits."""
    _check_blocks(cur.shape, prev.shape)
    inv_t = 1.0 / temperature
    logp_prev = T.log_softmax_vjp(prev * inv_t)[0]
    p_prev = T.softmax_vjp(prev * inv_t)[0]
    logq, logq_vjp = T.log_softmax_vjp(cur * inv_t)
    rows = (p_prev * (logp_prev - logq)).sum(axis=1)
    # the tape's scale, mean and row-sum VJPs map the unit seed to w T^2 / n
    # per entry; the product and difference VJPs follow
    g = np.full(cur.shape, weight * temperature**2 / rows.size)
    return rows.mean() * temperature**2, logq_vjp(-(g * p_prev)) * inv_t


def loss_and_grads(state: M.ModelState, x_new: np.ndarray, y_rel, loss_cfg: LossConfig,
                   kd_batch: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[float, float, np.ndarray]:
    """One tape-free loss-and-gradients pass of the training objective.

    CE over ``new_only`` logits of the ``x_new`` rows; with ``kd_batch =
    (x_kd, prev)``, plus ``lambda_kd`` times KD between the ``old_only``
    logits of the ``x_kd`` rows and ``prev``, the frozen model's logits of
    those rows (``frozen_logits``).  When ``x_kd`` is ``x_new`` itself, the
    KD term reuses the CE pass's extractor features and VJP instead of
    running the current extractor on the same rows again.  Returns the CE
    value, the KD value (0.0 without ``kd_batch``) and the gradient as one
    flat vector laid out as ``M.param_views(state, ...)``: one block per
    ``M.trainable_params(state)`` entry, in that order.  The forward and
    backward ops and layouts are the tape's, so everything is bit-identical
    to ``local_ce_loss``/``local_kd_loss`` under ``tensor.value_and_grad``
    (the oracle).  Raises ``ContractError`` on bad labels or mismatched
    logit blocks and ``NumericError`` on a non-finite pre-activation, logit
    block, loss or gradient.
    """
    ext, head = state.extractor, state.head
    feats, ext_vjp = M.feature_vjp(ext, x_new)
    out, head_vjp = M.block_vjp(head, head.w_new, feats)
    ce, g = _ce_vjp(out, y_rel, loss_cfg.ce_temperature)
    g_feats, g_new = head_vjp(g)
    g_w, g_b = ext_vjp(g_feats, param_grads=True)
    g_old = None if head.w_old is None else np.zeros(head.w_old.shape)
    kd, loss = 0.0, ce

    if kd_batch is not None:
        if state.frozen is None or head.w_old is None:
            raise ContractError("distillation needs a snapshotted model with old classes")
        x_kd, prev = kd_batch
        if x_kd is not x_new:  # else the CE pass's features and VJP serve
            feats, ext_vjp = M.feature_vjp(ext, x_kd)
        out, head_vjp = M.block_vjp(head, head.w_old, feats)
        kd, g = _kd_vjp(out, prev, loss_cfg.kd_temperature, loss_cfg.lambda_kd)
        g_feats, g_old = head_vjp(g)
        kd_w, kd_b = ext_vjp(g_feats, param_grads=True)
        g_w = [a + b for a, b in zip(g_w, kd_w)]
        g_b = [a + b for a, b in zip(g_b, kd_b)]
        loss = ce + kd * loss_cfg.lambda_kd

    if not np.isfinite(loss):
        raise NumericError("non-finite training loss")
    blocks = g_w + g_b + ([] if g_old is None else [g_old]) + [g_new]
    grad = np.concatenate([g.ravel() for g in blocks])
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    return float(ce), float(kd), grad


def frozen_logits(frozen: tuple[M.ExtractorParams, M.ClassifierHead],
                  x: np.ndarray) -> np.ndarray:
    """The logits of the frozen ``(extractor, head)`` on the rows of ``x``;
    the whole frozen head is the old-class block of the task it opened."""
    frozen_ext, frozen_head = frozen
    return M.head_logits(frozen_head, M.features(frozen_ext, x))


# At the layer widths of the shipped configs, a GEMM of the BLAS in use
# rounds each row of a whole block of this many rows alike in every call of
# up to a batch's rows; the rows of a partial last block, and a lone row (a
# matrix-vector product), may round otherwise.  tests/test_fused_step.py pins
# both.  Much wider layers round even whole-block rows by call size, so there
# the cached logits differ from per-batch calls in their last bits.
GEMM_ROW_BLOCK = 4


def frozen_logits_by_chunk(frozen, x: np.ndarray, size: int) -> np.ndarray:
    """``frozen_logits`` of every row of ``x``, with the bits each row has
    in any batch of up to ``size`` rows made of whole ``GEMM_ROW_BLOCK``s.

    The rows go in chunks of ``size`` rounded down to whole blocks, the last
    one padded to whole blocks with repeated rows.  One call over every row
    would not do: a call of hundreds of rows rounds rows otherwise.
    """
    block = GEMM_ROW_BLOCK
    size = max(block, size - size % block)
    chunks = []
    for start in range(0, len(x), size):
        rows = x[start:start + size]
        padded = np.resize(rows, (-(-len(rows) // block) * block, x.shape[1]))
        chunks.append(frozen_logits(frozen, padded)[:len(rows)])
    return np.concatenate(chunks)


def sgd_step(p: np.ndarray, grad, lr: float, weight_decay: float) -> np.ndarray:
    """One SGD update of the flat parameter vector ``p`` from a
    ``loss_and_grads`` gradient in the same layout: a new read-only vector;
    ``p`` is not written.  A gradient of the wrong shape raises
    ``ContractError``; a non-finite updated parameter raises
    ``NumericError``."""
    if not isinstance(grad, np.ndarray) or grad.shape != p.shape:
        raise ContractError(f"expected a flat vector of {p.size} gradients, "
                            f"got {getattr(grad, 'shape', type(grad).__name__)}")
    # p - lr * (grad + weight_decay * p), op for op, in one buffer
    updated = p * weight_decay
    updated += grad
    updated *= lr
    np.subtract(p, updated, out=updated)
    if not np.isfinite(updated).all():
        raise NumericError("non-finite values in updated parameters")
    updated.flags.writeable = False
    return updated


def _fit(state: M.ModelState, task_data: D.LabeledSet, steps, loss_cfg: LossConfig,
         optim_cfg: OptimConfig, distill: bool) -> tuple[M.ModelState, list[dict]]:
    """SGD over ``steps`` (``(epoch, batch, replay rows or None)``, closed on
    exit): CE on the batch of ``task_data`` and, with ``distill``, KD on the
    batch plus its replay rows, at the epoch's cosine learning rate.  The
    parameters are packed into one vector once; after each step the state's
    parameters are read-only views of the updated vector.  The frozen
    model's logits of a batch of whole ``GEMM_ROW_BLOCK``s without replay
    rows are gathered from ``frozen_logits_by_chunk`` of the task's rows,
    computed at the first such step; any other batch, and a batch with its
    replay rows, gets its own call, as every step did before.  Returns the
    trained state and one ``{epoch, lr, ce_loss, kd_loss}`` row per epoch.
    """
    rel = {cid: i for i, cid in enumerate(state.head.new_ids)}
    stray = set(task_data.y) - rel.keys()
    if stray:
        steps.close()
        raise ContractError(f"task labels {sorted(stray)} are not among the head's new "
                            f"classes {list(state.head.new_ids)}")
    y_rel = np.array([rel[c] for c in task_data.y])
    x = task_data.x
    lrs = [cosine_lr(optim_cfg.lr, epoch, optim_cfg.epochs) for epoch in range(optim_cfg.epochs)]
    totals = [[0.0, 0.0, 0] for _ in lrs]  # per epoch: CE sum, KD sum, steps
    p = np.concatenate([a.ravel() for a in M.trainable_params(state)])
    cached = None  # the frozen logits of every task row, once a step needs them
    with closing(steps):
        for epoch, batch, replay_rows in steps:
            x_new = x[batch]
            kd_batch = None
            if distill and replay_rows is None and len(batch) % GEMM_ROW_BLOCK == 0:
                if cached is None:
                    cached = frozen_logits_by_chunk(state.frozen, x, optim_cfg.batch_new)
                # x_new itself: loss_and_grads reuses its CE forward
                kd_batch = (x_new, cached[batch])
            elif distill:
                x_kd = x_new if replay_rows is None else np.concatenate([x_new, replay_rows])
                kd_batch = (x_kd, frozen_logits(state.frozen, x_kd))
            ce, kd, grads = loss_and_grads(state, x_new, y_rel[batch], loss_cfg, kd_batch)
            p = sgd_step(p, grads, lrs[epoch], optim_cfg.weight_decay)
            state = M.with_params(state, M.param_views(state, p))
            total = totals[epoch]
            total[0] += ce
            total[1] += kd
            total[2] += 1
    return state, [{"epoch": epoch, "lr": lr, "ce_loss": ce_sum / n, "kd_loss": kd_sum / n}
                   for epoch, (lr, (ce_sum, kd_sum, n)) in enumerate(zip(lrs, totals))]


def train_initial(state: M.ModelState, dataset: D.LabeledSet, loss_cfg: LossConfig,
                  optim_cfg: OptimConfig, rng) -> M.ModelState:
    """Task-0 training: plain CE over the initial class group."""
    if state.task_index != 0:
        raise ContractError("train_initial only applies at task 0")
    steps = ((epoch, batch, None)
             for epoch, batch, *_ in task_schedule(len(dataset), optim_cfg, rng))
    return _fit(state, dataset, steps, loss_cfg, optim_cfg, distill=False)[0]


def task_schedule(n_rows: int, optim_cfg: OptimConfig, rng, bank_shape=None,
                  noise_shape=None):
    """Every draw of one incremental task from ``rng``, one step at a time,
    as ``(epoch, batch, cls, slots, noise)``; absent parts are None.

    ``batch`` indexes the task's ``n_rows`` rows.  With a ``bank_shape`` of
    (old classes, k), the step replays the bank rows ``[cls, slots]``:
    ``optim_cfg.batch_replay`` draws round-robin over the old classes, the
    class cursor carrying across steps and epochs; each class walks its own
    permutation of its k rows, wrapping around and reshuffled every epoch.
    With a ``noise_shape``, ``noise`` is the step's standard normal draw of
    that shape.  The draws come in a fixed order: one discarded set of class
    permutations, then per epoch the class permutations and the batch
    permutation, then each step's noise as the step is reached.
    """
    if bank_shape is not None:
        n_old, k = bank_shape
        cursor, step_ids = 0, np.arange(optim_cfg.batch_replay)
        # one set of permutations is drawn and never used: dropping it would
        # shift every later draw of the stream and change seeded results
        for _ in range(n_old):
            rng.permutation(k)

    cls = slots = noise = None
    for epoch in range(optim_cfg.epochs):
        if bank_shape is not None:
            orders = np.array([rng.permutation(k) for _ in range(n_old)])
            drawn = np.zeros(n_old, dtype=int)
        order, size = rng.permutation(n_rows), optim_cfg.batch_new
        for batch in (order[start:start + size] for start in range(0, n_rows, size)):
            if bank_shape is not None:
                # a class's j-th draw in this step reads its order at drawn + j
                cls = (cursor + step_ids) % n_old
                slots = orders[cls, (drawn[cls] + step_ids // n_old) % k]
                drawn += np.bincount(cls, minlength=n_old)
                cursor = (cursor + len(step_ids)) % n_old
            if noise_shape is not None:
                noise = rng.standard_normal(noise_shape)
            yield epoch, batch, cls, slots, noise


class Helper:
    """``items()`` run in a forked process, which sends each item down a
    one-way pipe to this process.

    ``recv`` returns the next item; an exception raised in the helper is
    raised by ``recv`` with its type and message, and a helper that ends
    before its last item becomes an ``EngineError`` naming its exit code.
    ``close`` terminates the helper if it still runs and reaps it.  A run's
    process starts no Python threads, and OpenBLAS stops its own thread pool
    around a fork, so forking is safe where ``use_helper`` holds.
    """

    def __init__(self, items, name: str):
        import multiprocessing  # not loaded by runs that never fork

        ctx = multiprocessing.get_context("fork")
        self._name = name
        self._receive, send = ctx.Pipe(duplex=False)
        self._process = ctx.Process(target=_send_all, args=(send, items), daemon=True)
        self._process.start()
        send.close()
        self.poll = self._receive.poll

    def recv(self):
        try:
            item = self._receive.recv()
        except EOFError:
            self._process.join()
            raise EngineError(f"{self._name} exited with code {self._process.exitcode} "
                              f"before the end of its stream") from None
        if isinstance(item, BaseException):
            raise item
        return item

    def close(self) -> None:
        if self._process.is_alive():
            self._process.terminate()
        self._process.join()
        self._receive.close()


def _send_all(conn, items) -> None:
    """Helper process body: send each of ``items()`` in order; or the
    exception it raised."""
    try:
        for item in items():
            conn.send(item)
    except Exception as err:  # the parent raises it again
        conn.send(err)
    finally:
        conn.close()


def use_helper() -> bool:
    """Whether a spare CPU, the fork start method and OpenBLAS (the BLAS whose
    fork safety ``Helper`` relies on) are there for a helper process."""
    if len(blas.usable_cpus()) < 2 or blas.lookup() is None:
        return False
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def _attacked_with_helper(steps, attack):
    """``(epoch, batch, attack(cls, slots, noise))`` for each of the unstarted
    ``task_schedule`` ``steps``, with the attacks shared between this
    process and a forked ``Helper``; the same steps, and the schedule's
    rng ends where walking ``steps`` inline leaves it.

    Both processes walk their own copy of ``steps``, so both make every
    draw, and attack a step only if they claim it first.  Steps are claimed
    in order from one shared counter.  The helper claims the next step as
    soon as it is free and streams the rows it attacked.  Whenever the next
    step to train is the helper's and its rows have not arrived yet, this
    process claims and attacks a later step instead of waiting.  So the
    attacks follow whichever CPU is free, and a step's rows are the same
    bits whichever process attacked them.  Closing the generator (also on
    an error or interrupt in the caller) closes the helper.
    """
    import multiprocessing

    # the first step that neither process has claimed
    front = multiprocessing.get_context("fork").Value("q", 0)

    def claim(step):
        with front.get_lock():
            if front.value != step:
                return False
            front.value = step + 1
            return True

    helper = Helper(lambda: (attack(cls, slots, noise)
                             for step, (_, _, cls, slots, noise) in enumerate(steps)
                             if claim(step)), "replay helper")
    ahead = deque()  # steps drawn here and not yet yielded; rows None where the helper's
    with closing(helper):
        for step, (epoch, batch, cls, slots, noise) in enumerate(steps):
            ahead.append((epoch, batch, attack(cls, slots, noise) if claim(step) else None))
            # yield every step whose rows are here; while the helper still
            # attacks the next one, draw (and maybe attack) a later step
            while ahead and (ahead[0][2] is not None or helper.poll()):
                epoch, batch, rows = ahead.popleft()
                yield epoch, batch, helper.recv() if rows is None else rows
        for epoch, batch, rows in ahead:
            yield epoch, batch, helper.recv() if rows is None else rows


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
    are replayed unperturbed.  Replay rows come from a bank that one
    ``apply_policy`` call builds per task from the candidates' samples and
    records; it is never stored.  Candidate indices must lie in
    ``task_data`` (else ``ContractError`` naming the class).  Every draw
    from ``rng`` (the batches, the round-robin replay rows and, when
    ``noise_r > 0``, each step's prototype noise scaled by ``noise_r``)
    comes from ``task_schedule``; a step's attack is a pure function of its
    draws and the frozen model.  When rows are attacked and this process
    may run on two or more CPUs, a forked helper process attacks alongside
    the training steps, sharing the attacks with this one
    (``_attacked_with_helper``); the results and ``rng``'s final state are
    bit for bit those of the inline map, and no helper outlives this call.
    The frozen model is never touched (checked by checksum at entry and
    exit).
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
        missing = set(state.head.old_ids) - set(candidates.class_ids)
        if missing:
            raise ContractError(f"candidates missing for old classes {sorted(missing)}")
        if prototypes is None or set(candidates.class_ids) - set(prototypes):
            raise ContractError("replay needs a prototype per candidate class")
        idx = candidates.indices
        outside = np.argwhere((idx < 0) | (idx >= len(task_data)))
        if len(outside):
            row, col = outside[0]
            raise ContractError(f"class {candidates.class_ids[row]}: candidate index "
                                f"{idx[row, col]} is outside the {len(task_data)} task rows")

    distill = loss_cfg.lambda_kd > 0.0
    # without distillation the replay rows go unused and nothing is attacked
    attack_cfg = attack_cfg if distill else None
    bank = centers = noise_shape = None
    if candidates is not None:
        bank = D.apply_policy(task_data.x[candidates.indices], candidates.policies)
        centers = np.array([prototypes[cid] for cid in candidates.class_ids])
        if attack_cfg is not None and noise_r > 0.0:
            noise_shape = (attack_cfg.n_attack, optim_cfg.batch_replay, centers.shape[1])
    steps = task_schedule(len(task_data), optim_cfg, rng,
                          None if bank is None else bank.shape[:2], noise_shape)

    def attack(cls, slots, noise):
        return R.adversarial_attack(frozen_ext, bank[cls, slots], centers[cls], attack_cfg,
                                    None if noise is None else noise_r * noise)

    replay = attack if attack_cfg is not None else lambda cls, slots, _: bank[cls, slots]
    if bank is not None and attack_cfg is not None and use_helper():
        stream = _attacked_with_helper(steps, attack)
    else:  # the map, inline
        stream = ((epoch, batch, None if cls is None else replay(cls, slots, noise))
                  for epoch, batch, cls, slots, noise in steps)

    state, epochs = _fit(state, task_data, stream, loss_cfg, optim_cfg, distill)
    if M.checksum(frozen_ext, frozen_head) != frozen_sum:
        raise ContractError("frozen model mutated during run_task")
    return state, epochs

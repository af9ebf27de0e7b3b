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
tasks with KD too.  It holds the trainable parameters as two flat vectors
in the ``model.param_views`` layout, each with a state of read-only views
built once, and the gradient comes back as one flat vector in the same
layout.  So ``sgd_step`` is a single elementwise update of one vector into
the other and a single finiteness check over the whole model, and a step
allocates no parameter vector and builds no state.

Everything an incremental task draws from its rng (the batches, the replay
rows and the attack's target noise) comes from ``task_schedule``, which
reads no model at all.  ``run_task`` attacks the replay rows of a fixed
group of consecutive steps in one call, a pure function of the group's
draws and the frozen model, so it can map the attack over the groups in a
helper process on a spare CPU.
"""

from __future__ import annotations

import itertools
import math
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
    rows = np.add.reduce(onehot * logp, axis=1)
    n = rows.size
    # the tape's neg, mean and row-sum VJPs map the unit seed to -1/n per entry
    return -(np.add.reduce(rows) / n), logp_vjp(onehot * (-1.0 / n)) * inv_t


def _kd_vjp(cur: np.ndarray, prev: np.ndarray, temperature: float, weight: float):
    """``local_kd_loss`` in plain numpy: the value and the gradient of
    ``weight * kd`` with respect to the current old-class logits."""
    _check_blocks(cur.shape, prev.shape)
    inv_t = 1.0 / temperature
    # the forward ops of log_softmax_vjp and softmax_vjp of the frozen
    # logits, which share their shift and its exponent
    scaled = prev * inv_t
    shifted = scaled - np.maximum.reduce(scaled, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    logp_prev = shifted - np.log(total)
    p_prev = e / total
    logq, logq_vjp = T.log_softmax_vjp(cur * inv_t)
    rows = np.add.reduce(p_prev * (logp_prev - logq), axis=1)
    n = rows.size
    # the tape's scale, mean and row-sum VJPs map the unit seed to w T^2 / n
    # per entry; the product and difference VJPs follow
    return (np.add.reduce(rows) / n * temperature**2,
            logq_vjp(p_prev * -(weight * temperature**2 / n)) * inv_t)


# At the layer widths of the shipped configs, a GEMM of the BLAS in use
# rounds each row of a whole block of this many rows alike in every call of
# up to a step's rows (new plus replay rows); the rows of a partial last
# block, and a lone row (a matrix-vector product), may round otherwise.
# tests/test_fused_step.py pins both.  Much wider layers round even
# whole-block rows by call size, so there the cached frozen logits, and the
# CE features read from the KD pass, differ from a pass of their own in
# their last bits.
GEMM_ROW_BLOCK = 4


def _leads_with(x_kd, x_new) -> bool:
    """Whether the array ``x_kd`` holds more rows than the array ``x_new``
    and its first rows are those of ``x_new``, bit for bit, a whole number
    of ``GEMM_ROW_BLOCK``s of them."""
    n = len(x_new)
    return (n % GEMM_ROW_BLOCK == 0 and len(x_kd) > n
            and isinstance(x_kd, np.ndarray) and isinstance(x_new, np.ndarray)
            and x_kd.dtype == x_new.dtype and x_kd[:n].tobytes() == x_new.tobytes())


def loss_and_grads(state: M.ModelState, x_new: np.ndarray, y_rel, loss_cfg: LossConfig,
                   kd_batch: tuple[np.ndarray, np.ndarray] | None = None
                   ) -> tuple[float, float, np.ndarray]:
    """One tape-free loss-and-gradients pass of the training objective.

    CE over ``new_only`` logits of the ``x_new`` rows; with ``kd_batch =
    (x_kd, prev)``, plus ``lambda_kd`` times KD between the ``old_only``
    logits of the ``x_kd`` rows and ``prev``, the frozen model's logits of
    those rows (``frozen_logits``).  The current extractor runs once per
    step where it can: when ``x_kd`` is ``x_new`` itself, the KD term
    reuses the CE pass's features, their head input and the extractor VJP;
    when ``x_kd`` is ``x_new`` followed by replay rows and ``x_new`` is a
    whole number of ``GEMM_ROW_BLOCK``s, the CE term reads its features and
    its extractor VJP from the first rows of the KD pass.  The two
    backward passes stay separate, as on the tape.  Returns the CE value,
    the KD value (0.0 without ``kd_batch``) and the gradient as one flat
    vector laid out as ``M.param_views(state, ...)``: one block per
    ``M.trainable_params(state)`` entry, in that order.  The forward and
    backward ops and layouts are the tape's, so everything is bit-identical
    to ``local_ce_loss``/``local_kd_loss`` under ``tensor.value_and_grad``
    (the oracle), at widths where ``GEMM_ROW_BLOCK`` holds.  Raises
    ``ContractError`` on bad labels or mismatched logit blocks and
    ``NumericError`` on a non-finite pre-activation, logit block, loss or
    gradient.
    """
    ext, head = state.extractor, state.head
    x_kd = None
    if kd_batch is not None:
        if state.frozen is None or head.w_old is None:
            raise ContractError("distillation needs a snapshotted model with old classes")
        x_kd, prev = kd_batch

    ce_rows = None  # all rows of the CE term's pass, or its first rows
    if x_kd is None or x_kd is x_new or not _leads_with(x_kd, x_new):
        feats, ext_vjp = M.feature_vjp(ext, x_new)
        kd_feats, kd_ext_vjp = feats, ext_vjp
        if x_kd is not None and x_kd is not x_new:
            kd_feats, kd_ext_vjp = M.feature_vjp(ext, x_kd)
    else:
        kd_feats, kd_ext_vjp = M.feature_vjp(ext, x_kd)
        ce_rows = len(x_new)
        feats, ext_vjp = kd_feats[:ce_rows], kd_ext_vjp

    head_in = M.head_input_vjp(head, feats)
    out, head_vjp = M.input_block_vjp(head, head.w_new, head_in)
    ce, g = _ce_vjp(out, y_rel, loss_cfg.ce_temperature)
    g_feats, g_new = head_vjp(g)
    g_w, g_b = ext_vjp(g_feats, param_grads=True, rows=ce_rows)
    g_old, kd, loss = None, 0.0, ce

    if x_kd is None:
        if head.w_old is not None:
            g_old = np.zeros(head.w_old.shape)
    else:
        if kd_feats is not feats:
            head_in = M.head_input_vjp(head, kd_feats)
        out, head_vjp = M.input_block_vjp(head, head.w_old, head_in)
        kd, g = _kd_vjp(out, prev, loss_cfg.kd_temperature, loss_cfg.lambda_kd)
        g_feats, g_old = head_vjp(g)
        kd_w, kd_b = kd_ext_vjp(g_feats, param_grads=True)
        g_w = [a + b for a, b in zip(g_w, kd_w)]
        g_b = [a + b for a, b in zip(g_b, kd_b)]
        loss = ce + kd * loss_cfg.lambda_kd

    if not math.isfinite(loss):
        raise NumericError("non-finite training loss")
    blocks = g_w + g_b + ([] if g_old is None else [g_old]) + [g_new]
    grad = np.concatenate(blocks, axis=None)
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    return float(ce), float(kd), grad


def frozen_logits(frozen: tuple[M.ExtractorParams, M.ClassifierHead],
                  x: np.ndarray) -> np.ndarray:
    """The logits of the frozen ``(extractor, head)`` on the rows of ``x``;
    the whole frozen head is the old-class block of the task it opened."""
    frozen_ext, frozen_head = frozen
    return M.head_logits(frozen_head, M.features(frozen_ext, x))


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


def sgd_step(p: np.ndarray, grad, lr: float, weight_decay: float,
             out: np.ndarray) -> np.ndarray:
    """One SGD update of the flat parameter vector ``p`` from a
    ``loss_and_grads`` gradient in the same layout, written into ``out``
    and returned; ``p`` is not written.  The update is ``p - lr * (grad +
    weight_decay * p)``, op for op, in ``out``'s buffer.  A gradient of the
    wrong shape, or an ``out`` that is not a writeable vector of ``p``'s
    shape or that overlaps ``p`` or the gradient, raises ``ContractError``;
    a non-finite updated parameter raises ``NumericError``."""
    if not isinstance(grad, np.ndarray) or grad.shape != p.shape:
        raise ContractError(f"expected a flat vector of {p.size} gradients, "
                            f"got {getattr(grad, 'shape', type(grad).__name__)}")
    if (not isinstance(out, np.ndarray) or out.shape != p.shape or not out.flags.writeable
            or np.may_share_memory(out, p) or np.may_share_memory(out, grad)):
        raise ContractError(f"the update needs a writeable vector of {p.size} values that "
                            f"overlaps neither the parameters nor the gradient")
    np.multiply(p, weight_decay, out=out)
    out += grad
    out *= lr
    np.subtract(p, out, out=out)
    if not np.isfinite(out).all():
        raise NumericError("non-finite values in updated parameters")
    return out


def _fit(state: M.ModelState, task_data: D.LabeledSet, steps, loss_cfg: LossConfig,
         optim_cfg: OptimConfig, distill: bool) -> tuple[M.ModelState, list[dict]]:
    """SGD over ``steps`` (``(epoch, batch, replay rows or None)``, closed on
    exit): CE on the batch of ``task_data`` and, with ``distill``, KD on the
    batch plus its replay rows, at the epoch's cosine learning rate.

    The parameters live in two vectors, the first packed from ``state``,
    and in one state per vector whose parameters are read-only views of it,
    both built once.  Each step ``sgd_step`` writes the update of the
    current vector into the other one, and the loop switches states, so no
    step allocates a vector or a state.  The vector of the returned state
    is made read-only; nothing writes it again.  The frozen model's logits
    of a batch of whole ``GEMM_ROW_BLOCK``s are gathered from
    ``frozen_logits_by_chunk`` of the task's rows, computed at the first
    such step, and those of its replay rows, when they too are whole
    blocks, come from a call over the replay rows alone; any other batch
    gets one call over its new and replay rows, as every step did before.
    Returns the trained state and one ``{epoch, lr, ce_loss, kd_loss}``
    row per epoch.
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
    packed = np.concatenate(M.trainable_params(state), axis=None)
    vectors = (packed, np.empty_like(packed))
    states = tuple(M.with_params(state, M.param_views(state, _read_only_view(v)))
                   for v in vectors)
    cur = 0
    cached = None  # the frozen logits of every task row, once a step needs them
    with closing(steps):
        for epoch, batch, replay_rows in steps:
            x_new = x[batch]
            kd_batch = None
            if distill and len(batch) % GEMM_ROW_BLOCK == 0 and (
                    replay_rows is None or len(replay_rows) % GEMM_ROW_BLOCK == 0):
                if cached is None:
                    cached = frozen_logits_by_chunk(state.frozen, x, optim_cfg.batch_new)
                if replay_rows is None:  # x_new itself: loss_and_grads reuses its CE forward
                    kd_batch = (x_new, cached[batch])
                else:
                    kd_batch = (np.concatenate([x_new, replay_rows]),
                                np.concatenate([cached[batch],
                                                frozen_logits(state.frozen, replay_rows)]))
            elif distill:
                x_kd = x_new if replay_rows is None else np.concatenate([x_new, replay_rows])
                kd_batch = (x_kd, frozen_logits(state.frozen, x_kd))
            ce, kd, grads = loss_and_grads(states[cur], x_new, y_rel[batch], loss_cfg, kd_batch)
            sgd_step(vectors[cur], grads, lrs[epoch], optim_cfg.weight_decay, vectors[1 - cur])
            cur = 1 - cur
            total = totals[epoch]
            total[0] += ce
            total[1] += kd
            total[2] += 1
    vectors[cur].flags.writeable = False
    return states[cur], [{"epoch": epoch, "lr": lr, "ce_loss": ce_sum / n, "kd_loss": kd_sum / n}
                         for epoch, (lr, (ce_sum, kd_sum, n)) in enumerate(zip(lrs, totals))]


def _read_only_view(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


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


# Replay rows attacked per call.  At 64 rows an attack call's time is mostly
# numpy's fixed cost per op, not arithmetic.  Per 64 rows at the reference
# widths and 12 iterations, it took 2.1-2.7 ms in 64-row calls, 1.8-2.0 ms
# in 256-row calls and 1.9-2.2 ms in 512-row calls (one BLAS thread, a
# 2-vCPU Xeon).  So ``run_task`` attacks the replay rows of
# ``ROWS // batch_replay`` consecutive steps in one call.  An attacked row's
# bits depend on the row count of its call: changing this moves seeded
# results.
ROWS = 256


def _groups(steps, size: int):
    """Consecutive groups of ``size`` ``task_schedule`` steps, the last maybe
    shorter, each as ``(steps, draws)``: the steps' ``(epoch, batch)`` and
    their ``(cls, slots, noise)`` stacked in step order along the row axis,
    the noise None where the schedule draws none.  A group keeps no step's
    own noise array, so a task holds the noise of one group at a time."""
    steps = iter(steps)
    while group := list(itertools.islice(steps, size)):
        epochs, batches, cls, slots, noise = zip(*group)
        del group
        noise = None if noise[0] is None else np.concatenate(noise, axis=1)
        yield list(zip(epochs, batches)), (np.concatenate(cls), np.concatenate(slots), noise)


def _attacked_with_helper(groups, attack):
    """``(steps, attack(draws))`` for each ``(steps, draws)`` of the unstarted
    ``_groups`` ``groups``, with the attacks shared between this process and
    a forked ``Helper``; the same groups, and the schedule's rng ends where
    walking ``groups`` inline leaves it.

    Both processes walk their own copy of ``groups``, so both make every
    draw, and attack a group only if they claim it first.  Groups are
    claimed in order from one shared counter.  The helper claims the next
    group as soon as it is free and streams the rows it attacked.  Whenever
    the next group to train is the helper's and its rows have not arrived
    yet, this process claims and attacks a later group instead of waiting.
    So the attacks follow whichever CPU is free, and a group's rows are the
    same bits whichever process attacked them.  Closing the generator (also
    on an error or interrupt in the caller) closes the helper.
    """
    import multiprocessing

    # the first group that neither process has claimed
    front = multiprocessing.get_context("fork").Value("q", 0)

    def claim(index):
        with front.get_lock():
            if front.value != index:
                return False
            front.value = index + 1
            return True

    helper = Helper(lambda: (attack(draws) for index, (_, draws) in enumerate(groups)
                             if claim(index)), "replay helper")
    ahead = deque()  # groups drawn here and not yet yielded; rows None where the helper's
    with closing(helper):
        for index, (steps, draws) in enumerate(groups):
            ahead.append((steps, attack(draws) if claim(index) else None))
            del draws  # as in _inline
            # yield every group whose rows are here; while the helper still
            # attacks the next one, draw (and maybe attack) a later group
            while ahead and (ahead[0][1] is not None or helper.poll()):
                steps, rows = ahead.popleft()
                yield steps, helper.recv() if rows is None else rows
        for steps, rows in ahead:
            yield steps, helper.recv() if rows is None else rows


def _inline(groups, attack):
    """``(steps, attack(draws))`` for each ``(steps, draws)`` of ``groups``;
    a group's draws are dropped before the next group is drawn."""
    for steps, draws in groups:
        rows = attack(draws)
        del draws
        yield steps, rows


def _per_step(replayed):
    """``(epoch, batch, rows)`` for each step of each ``(steps, stacked replay
    rows)`` of ``replayed``, which is closed on exit."""
    with closing(replayed):
        for steps, stacked in replayed:
            for (epoch, batch), rows in zip(steps, np.split(stacked, len(steps))):
                yield epoch, batch, rows


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
    comes from ``task_schedule``.  The steps go in fixed groups of
    ``max(1, ROWS // batch_replay)`` consecutive steps, counted over the
    whole task across epoch boundaries, the last group maybe shorter; the
    replay rows of a group are attacked in one call, their bank rows,
    centers and noise stacked in step order, and split back per step.  So
    a group's attack is a pure function of its draws and the frozen model.
    When rows are attacked and this process may run on two or more CPUs, a
    forked helper process attacks groups alongside the training steps,
    sharing the attacks with this one (``_attacked_with_helper``); the
    results and ``rng``'s final state are bit for bit those of the inline
    map, and no helper outlives this call.
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

    def replay(draws):
        """The replay rows of a group's stacked ``(cls, slots, noise)``:
        gathered from the bank and, with an ``attack_cfg``, attacked in one
        call aimed at their centers plus ``noise_r`` times their noise
        (scaled in place: the group's stacked noise is its own)."""
        cls, slots, noise = draws
        rows = bank[cls, slots]
        if attack_cfg is None:
            return rows
        if noise is not None:
            noise *= noise_r
        return R.adversarial_attack(frozen_ext, rows, centers[cls], attack_cfg, noise)

    if bank is None:
        stream = ((epoch, batch, None) for epoch, batch, *_ in steps)
    else:
        groups = _groups(steps, max(1, ROWS // optim_cfg.batch_replay))
        if attack_cfg is not None and use_helper():
            stream = _per_step(_attacked_with_helper(groups, replay))
        else:  # the map, inline
            stream = _per_step(_inline(groups, replay))

    state, epochs = _fit(state, task_data, stream, loss_cfg, optim_cfg, distill)
    if M.checksum(frozen_ext, frozen_head) != frozen_sum:
        raise ContractError("frozen model mutated during run_task")
    return state, epochs

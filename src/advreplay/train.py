"""Per-task optimization: local CE on new classes, local KD on old classes.

The combined objective is ``L = L_ce + lambda_kd * L_kd`` where the CE term
sees only the new-task batch and new-class logits, while the KD term sees
the new-task batch concatenated with the perturbed replay batch and only
old-class logits.  Because the head keeps old and new class weights as
separate leaves, the split is structural: neither term can touch the other
block's gradient.

Each SGD step is tape-free: ``loss_and_grads`` runs this fixed graph
forward in plain numpy, one current-extractor pass over the new and replay
rows, and walks it back by hand, op for op as the autodiff tape would, so
its losses and gradients are bit-identical to the taped ``local_ce_loss``/
``local_kd_loss`` under ``tensor.value_and_grad`` wherever the pass rounds
the new rows as a pass of their own, as at the shipped widths.  Those
taped losses stay as the oracle that tests compare against.

One step loop, ``_fit``, trains every task: task 0 on plain CE, later
tasks with KD too.  It holds the trainable parameters as one flat vector
in the ``model.param_views`` layout, with one state of read-only views of
it built once, and the gradient comes back as one flat vector in the same
layout.  So ``sgd_step`` is a single elementwise update of that vector in
place and a single finiteness check over the whole model, and a step
builds no state.

An incremental task's batches and replay rows come from ``task_schedule``,
which draws only indices and reads no model at all.  ``run_task`` attacks
the replay rows of a fixed group of consecutive steps in one call, with
target noise from the group's own key, a pure function of the group's
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


def loss_and_grads(state: M.ModelState, x_new: np.ndarray, y_rel, loss_cfg: LossConfig,
                   kd: tuple[np.ndarray, np.ndarray | None] | None = None
                   ) -> tuple[float, float, np.ndarray]:
    """One tape-free loss-and-gradients pass of the training objective.

    CE over ``new_only`` logits of the ``x_new`` rows; with ``kd = (prev,
    replay)``, plus ``lambda_kd`` times KD between the ``old_only`` logits
    of the KD rows and ``prev``, the frozen model's logits of those rows
    (``frozen_logits``).  The KD rows are the ``x_new`` rows followed by
    the ``replay`` rows, or the ``x_new`` rows alone when ``replay`` is
    None.  The current extractor runs once per step, over the KD rows (the
    ``x_new`` rows without ``kd``); the CE term reads its features and its
    extractor VJP from the first ``len(x_new)`` rows of that pass, and
    without replay rows the KD term reuses the CE term's head input.  The
    two backward passes stay separate, as on the tape.  Returns the CE
    value, the KD value (0.0 without ``kd``) and the gradient as one flat
    vector laid out as ``M.param_views(state, ...)``: one block per
    ``M.trainable_params(state)`` entry, in that order.  The forward and
    backward ops and layouts are the tape's, so everything is bit-identical
    to ``local_ce_loss``/``local_kd_loss`` under ``tensor.value_and_grad``
    (the oracle) wherever the pass's first ``len(x_new)`` rows round as a
    pass of their own, which holds at the shipped widths.  Raises
    ``ContractError`` on bad labels or mismatched logit blocks and
    ``NumericError`` on a non-finite pre-activation, logit block, loss or
    gradient.
    """
    ext, head = state.extractor, state.head
    if kd is not None and (state.frozen is None or head.w_old is None):
        raise ContractError("distillation needs a snapshotted model with old classes")
    prev, replay = kd or (None, None)

    kd_feats, ext_vjp = M.feature_vjp(
        ext, x_new if replay is None else np.concatenate([x_new, replay]))
    feats = kd_feats[:len(x_new)]
    head_in = M.head_input_vjp(head, feats)
    out, head_vjp = M.input_block_vjp(head, head.w_new, head_in)
    ce, g = _ce_vjp(out, y_rel, loss_cfg.ce_temperature)
    g_feats, g_new = head_vjp(g)
    g_w, g_b = ext_vjp(g_feats, param_grads=True, rows=len(x_new))
    g_old, kd_value, loss = None, 0.0, ce

    if kd is None:
        if head.w_old is not None:
            g_old = np.zeros(head.w_old.shape)
    else:
        if replay is not None:
            head_in = M.head_input_vjp(head, kd_feats)
        out, head_vjp = M.input_block_vjp(head, head.w_old, head_in)
        kd_value, g = _kd_vjp(out, prev, loss_cfg.kd_temperature, loss_cfg.lambda_kd)
        g_feats, g_old = head_vjp(g)
        kd_w, kd_b = ext_vjp(g_feats, param_grads=True)
        g_w = [a + b for a, b in zip(g_w, kd_w)]
        g_b = [a + b for a, b in zip(g_b, kd_b)]
        loss = ce + kd_value * loss_cfg.lambda_kd

    if not math.isfinite(loss):
        raise NumericError("non-finite training loss")
    blocks = g_w + g_b + ([] if g_old is None else [g_old]) + [g_new]
    grad = np.concatenate(blocks, axis=None)
    if not np.isfinite(grad).all():
        raise NumericError("non-finite gradient")
    return float(ce), float(kd_value), grad


def frozen_logits(frozen: tuple[M.ExtractorParams, M.ClassifierHead],
                  x: np.ndarray) -> np.ndarray:
    """The logits of the frozen ``(extractor, head)`` on the rows of ``x``;
    the whole frozen head is the old-class block of the task it opened."""
    frozen_ext, frozen_head = frozen
    return M.head_logits(frozen_head, M.features(frozen_ext, x))


def frozen_logits_by_chunk(frozen, x: np.ndarray, size: int) -> np.ndarray:
    """``frozen_logits`` of every row of ``x``, one call per consecutive
    chunk of ``size`` rows (the last maybe shorter).  A row's bits are those
    its chunk's call gives.  One call over every row would not do: a call of
    hundreds of rows rounds some rows otherwise than a batch-sized one."""
    return np.concatenate([frozen_logits(frozen, x[start:start + size])
                           for start in range(0, len(x), size)])


def sgd_step(p: np.ndarray, grad, lr: float, weight_decay: float) -> np.ndarray:
    """One SGD update of the flat parameter vector ``p``, in place, from a
    ``loss_and_grads`` gradient in the same layout; returns ``p``.  The
    update is ``p -= lr * (grad + weight_decay * p)``.  A ``p`` that is not
    a writeable vector, or a gradient of another shape, raises
    ``ContractError`` before anything is written; a non-finite updated
    parameter raises ``NumericError``."""
    if not isinstance(p, np.ndarray) or p.ndim != 1 or not p.flags.writeable:
        raise ContractError("the update needs a writeable parameter vector")
    if not isinstance(grad, np.ndarray) or grad.shape != p.shape:
        raise ContractError(f"expected a flat vector of {p.size} gradients, "
                            f"got {getattr(grad, 'shape', type(grad).__name__)}")
    p -= lr * (grad + weight_decay * p)
    if not np.isfinite(p).all():
        raise NumericError("non-finite values in updated parameters")
    return p


def _fit(state: M.ModelState, task_data: D.LabeledSet, steps, loss_cfg: LossConfig,
         optim_cfg: OptimConfig) -> tuple[M.ModelState, list[dict]]:
    """SGD over ``steps`` (``(epoch, batch, replay rows or None)``, closed on
    exit): CE on the batch of ``task_data`` and, when ``state`` has a frozen
    model and ``lambda_kd > 0``, KD on the batch plus its replay rows, at
    the epoch's cosine learning rate.

    The parameters live in one vector packed from ``state``, and in one
    state whose parameters are read-only views of it, both built once.
    Each step ``sgd_step`` updates the vector in place, so no step builds a
    state.  The returned state is that one, and its vector is made
    read-only; nothing writes it again.  A distilling step takes
    the frozen model's logits of its batch from ``frozen_logits_by_chunk``
    of the task's rows in chunks of ``batch_new``, computed once before the
    first step, and those of its replay rows from one call over them.
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
    vector = np.concatenate(M.trainable_params(state), axis=None)
    stepped = M.with_params(state, M.param_views(state, _read_only_view(vector)))
    distill = state.frozen is not None and loss_cfg.lambda_kd > 0.0
    with closing(steps):
        if distill:  # the frozen logits of every task row
            cached = frozen_logits_by_chunk(state.frozen, x, optim_cfg.batch_new)
        for epoch, batch, replay in steps:
            kd = None
            if distill:
                prev = cached[batch]
                if replay is not None:
                    prev = np.concatenate([prev, frozen_logits(state.frozen, replay)])
                kd = (prev, replay)
            ce, kd_value, grads = loss_and_grads(stepped, x[batch], y_rel[batch], loss_cfg, kd)
            sgd_step(vector, grads, lrs[epoch], optim_cfg.weight_decay)
            total = totals[epoch]
            total[0] += ce
            total[1] += kd_value
            total[2] += 1
    vector.flags.writeable = False
    return stepped, [{"epoch": epoch, "lr": lr, "ce_loss": ce_sum / n, "kd_loss": kd_sum / n}
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
    return _fit(state, dataset, steps, loss_cfg, optim_cfg)[0]


def task_schedule(n_rows: int, optim_cfg: OptimConfig, rng, bank_shape=None):
    """The draws of one incremental task's steps from ``rng``, one step at a
    time, as ``(epoch, batch, cls, slots)``; without a bank, ``cls`` and
    ``slots`` are None.

    ``batch`` indexes the task's ``n_rows`` rows.  With a ``bank_shape`` of
    (old classes, k), the step replays the bank rows ``[cls, slots]``:
    ``optim_cfg.batch_replay`` draws round-robin over the old classes, the
    class cursor carrying across steps and epochs; each class walks its own
    permutation of its k rows, wrapping around and reshuffled every epoch.
    The draws come in a fixed order: per epoch the class permutations, then
    the batch permutation.
    """
    if bank_shape is not None:
        n_old, k = bank_shape
        cursor, step_ids = 0, np.arange(optim_cfg.batch_replay)

    cls = slots = None
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
            yield epoch, batch, cls, slots


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
# widths and 12 iterations, target noise included, the float32 attack took
# 1.35-2.27 ms in 64-row calls, 1.16-1.76 ms in 128-row calls, 0.97-1.01 ms
# in 256-row calls and 0.95-1.04 ms in 512-row calls (best of 9 rounds in
# each of 3 timings, one BLAS thread, a 2-vCPU Xeon).  So ``run_task``
# attacks the replay rows of ``ROWS // batch_replay`` consecutive steps in
# one call.  An attacked row's bits depend on the row count of its call:
# changing this moves seeded results.
ROWS = 256


def _groups(steps, size: int):
    """Consecutive groups of ``size`` ``task_schedule`` steps, the last maybe
    shorter, each as ``(steps, draws)``: the steps' ``(epoch, batch)`` and
    ``(index, cls, slots)``, the group's index from 0 and its steps' ``cls``
    and ``slots`` stacked in step order."""
    steps = iter(steps)
    for index in itertools.count():
        if not (group := list(itertools.islice(steps, size))):
            return
        epochs, batches, cls, slots = zip(*group)
        yield list(zip(epochs, batches)), (index, np.concatenate(cls), np.concatenate(slots))


def _attacked_with_helper(groups, attack):
    """``(steps, attack(draws))`` for each ``(steps, draws)`` of the unstarted
    ``_groups`` ``groups``, with the attacks shared between this process and
    a forked ``Helper``; the same groups, and the schedule's rng ends where
    walking ``groups`` inline leaves it.

    Both processes walk their own copy of ``groups``, which draws only
    indices, and attack a group, and so draw its noise, only if they claim
    it first.  Groups are claimed in order from one shared counter.  The
    helper claims the next group as soon as it is free and streams the rows
    it attacked.  Whenever the next group to train is the helper's and its
    rows have not arrived yet, this process claims and attacks a later
    group instead of waiting.  So the attacks follow whichever CPU is free,
    and a group's rows are the same bits whichever process attacked them.
    Closing the generator (also on an error or interrupt in the caller)
    closes the helper.
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
            # yield every group whose rows are here; while the helper still
            # attacks the next one, draw (and maybe attack) a later group
            while ahead and (ahead[0][1] is not None or helper.poll()):
                steps, rows = ahead.popleft()
                yield steps, helper.recv() if rows is None else rows
        for steps, rows in ahead:
            yield steps, helper.recv() if rows is None else rows


def _per_step(replayed):
    """``(epoch, batch, rows)`` for each step of each ``(steps, stacked replay
    rows)`` of ``replayed``, which is closed on exit."""
    with closing(replayed):
        for steps, stacked in replayed:
            for (epoch, batch), rows in zip(steps, np.split(stacked, len(steps))):
                yield epoch, batch, rows


def run_task(state: M.ModelState, task_data: D.LabeledSet,
             bank: np.ndarray | None, centers: np.ndarray | None,
             noise_r: float,
             loss_cfg: LossConfig, optim_cfg: OptimConfig,
             attack_cfg: R.AttackConfig | None,
             rng) -> tuple[M.ModelState, list[dict]]:
    """One incremental task (t >= 1) over new data plus pseudo-replay.

    Each iteration draws a new-task batch and, when there is a ``bank``, a
    replay batch for the distillation pass; with an ``attack_cfg`` its rows
    are first perturbed toward their class prototypes, and without one they
    are replayed unperturbed.  ``bank`` is the (old classes, k, input_dim)
    array of augmented task rows that ``replay.build_candidate_set``
    returns, and ``centers`` the (old classes, d) prototypes in the same
    class order; both are None for a task without replay.  With a bank,
    ``rng`` first draws the task's noise key, then the batches and the
    round-robin replay rows of ``task_schedule``; without, only the
    batches.  The steps go in fixed groups of ``max(1, ROWS //
    batch_replay)`` consecutive steps, counted over the whole task across
    epoch boundaries, the last group maybe shorter; the replay rows of a
    group are attacked in one call, their bank rows and centers stacked in
    step order, and split back per step.  The attack runs in float32 and
    returns float64 rows (``replay.adversarial_attack``).  When ``noise_r >
    0`` it is handed ``(np.random.default_rng([key, index]), noise_r)``,
    the group's own stream, and draws ``noise_r`` times one float32
    standard normal (batch, d) block per iteration from it; only the
    process that attacks the group draws.  So a group's attack is a pure
    function of its draws, the key and the frozen model.
    When rows are attacked and this process may run on two or more CPUs, a
    forked helper process attacks groups alongside the training steps,
    sharing the attacks with this one (``_attacked_with_helper``); the
    results and ``rng``'s final state are bit for bit those of the inline
    map, and no helper outlives this call.
    Returns the trained state and one ``{epoch, lr, ce_loss, kd_loss}`` row
    per epoch for the run CSV.
    """
    if state.task_index < 1 or state.frozen is None:
        raise ContractError("run_task needs a snapshotted model at task >= 1")
    frozen_ext, frozen_head = state.frozen
    old = state.head.old_ids
    if frozen_head.class_ids != old:
        raise ContractError("frozen head classes must equal the current old split")
    if bank is not None and (np.ndim(bank) != 3 or len(bank) != len(old)
                             or np.shape(centers) != (len(old), frozen_ext.feature_dim)):
        raise ContractError(f"replay needs bank rows and a center for each old class "
                            f"{list(old)}, got a {np.shape(bank)} bank and "
                            f"{np.shape(centers)} centers")

    distill = loss_cfg.lambda_kd > 0.0
    # without distillation the replay rows go unused and nothing is attacked
    attack_cfg = attack_cfg if distill else None
    # drawn with noise or without, so both replay the same rows
    key = None if bank is None else int(rng.integers(2**63))
    steps = task_schedule(len(task_data), optim_cfg, rng,
                          None if bank is None else bank.shape[:2])

    def replay(draws):
        """The replay rows of a group's ``(index, cls, slots)``: gathered
        from the bank and, with an ``attack_cfg``, attacked in one call
        aimed at their centers plus, when ``noise_r > 0``, the group's
        noise."""
        index, cls, slots = draws
        rows = bank[cls, slots]
        if attack_cfg is None:
            return rows
        noise = (np.random.default_rng([key, index]), noise_r) if noise_r > 0.0 else None
        return R.adversarial_attack(frozen_ext, rows, centers[cls], attack_cfg, noise)

    if bank is None:
        stream = ((epoch, batch, None) for epoch, batch, *_ in steps)
    else:
        groups = _groups(steps, max(1, ROWS // optim_cfg.batch_replay))
        if attack_cfg is not None and use_helper():
            stream = _per_step(_attacked_with_helper(groups, replay))
        else:  # the map, inline
            stream = _per_step((steps, replay(draws)) for steps, draws in groups)

    return _fit(state, task_data, stream, loss_cfg, optim_cfg)

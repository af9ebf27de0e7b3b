"""The tape-free training step (``train.loss_and_grads`` + ``train.sgd_step``).

Its losses and gradients must equal the taped ``local_ce_loss`` /
``local_kd_loss`` under ``tensor.value_and_grad`` byte for byte, on every
head mode and activation stack, with and without distillation, and the
tape's finiteness checks must still fire.
"""

import numpy as np
import pytest

from advreplay import data as D
from advreplay import model as M
from advreplay import tensor as T
from advreplay import train as TR
from advreplay.errors import ContractError, NumericError
from advreplay.tensor import Tensor

STACKS = {
    "relu": ("relu", "relu", "identity"),
    "tanh": ("tanh", "tanh", "tanh"),
    "identity": ("identity", "identity", "identity"),
}
TEMPERATURES = [(1.0, 2.0), (0.7, 3.0)]  # (ce, kd)


def world(mode, kind, task, seed=0):
    """A model at task 0, or at task 1 with a frozen snapshot that differs
    from the current parameters.  The sizes are large enough that BLAS
    results depend on operand memory layout."""
    rng = np.random.default_rng(seed)
    ext = M.init_extractor((6, 48, 40, 32), STACKS[kind], rng)
    head = M.init_head(range(8), 32, rng, mode=mode, init_std=0.5)
    state = M.ModelState(ext, head, None, 0)
    if task == 0:
        return state
    state = M.begin_task(state, range(8, 14), rng, init_std=0.5)
    return M.with_params(state, [p + rng.normal(scale=0.1, size=p.shape)
                                 for p in M.trainable_params(state)])


def flat(arrays):
    """Per-parameter arrays packed into the one vector ``sgd_step`` takes."""
    return np.concatenate([a.ravel() for a in arrays])


def stepped_state(state, grad, lr, weight_decay):
    """``state`` after one ``sgd_step``, as the training loop leaves it: its
    parameters are read-only views of the updated vector."""
    p = flat(M.trainable_params(state))
    p = TR.sgd_step(p, grad, lr, weight_decay)
    p.flags.writeable = False
    return M.with_params(state, M.param_views(state, p))


def kd_rows(x_new, replay=None):
    """The rows a step distils on: its new rows, then its replay rows."""
    return x_new if replay is None else np.concatenate([x_new, replay])


def kd_batch(state, x_new, replay=None):
    """The frozen model's logits of the KD rows and the ``replay`` rows, as
    the training loop passes them to ``loss_and_grads``."""
    return TR.frozen_logits(state.frozen, kd_rows(x_new, replay)), replay


def taped(state, x_new, y_rel, cfg, x_kd=None):
    """The step's objective on the autodiff tape: the oracle."""
    params = [Tensor(p) for p in M.trainable_params(state)]
    state = M.with_params(state, params)
    feats = M.extract(state.extractor, Tensor(x_new))
    ce = TR.local_ce_loss(M.logits(state.head, feats, "new_only"), y_rel, cfg.ce_temperature)
    loss, kd = ce, 0.0
    if x_kd is not None:
        frozen_ext, frozen_head = state.frozen
        prev = M.logits(frozen_head, M.extract(frozen_ext, Tensor(x_kd)), "all")
        cur = M.logits(state.head, M.extract(state.extractor, Tensor(x_kd)), "old_only")
        kd = TR.local_kd_loss(cur, Tensor(prev.data), cfg.kd_temperature)
        loss = T.add(ce, T.mul(kd, cfg.lambda_kd))
        kd = float(kd.data)
    _, grads = T.value_and_grad(loss, params)
    return float(ce.data), kd, [grads[p].data for p in params]


CASES = [(mode, kind, kd, temps)
         for mode in ("cosine", "linear") for kind in sorted(STACKS)
         for kd in ("first-task", "no-kd", "kd") for temps in TEMPERATURES]
CASES += [(mode, kind, "kd-no-replay", temps)
          for mode in ("cosine", "linear") for kind in sorted(STACKS) for temps in TEMPERATURES]


@pytest.mark.parametrize("mode,kind,kd,temps", CASES)
def test_loss_and_grads_equal_tape_bytewise(mode, kind, kd, temps):
    state = world(mode, kind, task=0 if kd == "first-task" else 1)
    rng = np.random.default_rng(1)
    x_new = rng.normal(size=(24, 6)) * 2.0
    y_rel = rng.integers(0, len(state.head.new_ids), size=24)
    # the KD rows are the new rows plus more replay rows than new rows, or
    # without replay the new rows alone
    replay = rng.normal(size=(40, 6)) if kd == "kd" else None
    distils = kd.startswith("kd")
    x_kd = kd_rows(x_new, replay) if distils else None
    cfg = TR.LossConfig(lambda_kd=10.0, ce_temperature=temps[0], kd_temperature=temps[1])

    ce, kd_value, grad = TR.loss_and_grads(state, x_new, y_rel, cfg,
                                           kd_batch(state, x_new, replay) if distils else None)
    ce_ref, kd_ref, grads_ref = taped(state, x_new, y_rel, cfg, x_kd)
    assert ce == ce_ref
    assert kd_value == kd_ref
    assert grad.shape == (sum(p.size for p in M.trainable_params(state)),)
    grads = M.param_views(state, grad)
    assert len(grads) == len(M.trainable_params(state))
    for got, want in zip(grads, grads_ref):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if distils:
        assert kd_value > 0.0


@pytest.mark.parametrize("replay,passes", [(False, 2), (True, 2)])
def test_kd_without_replay_reuses_the_ce_forward(monkeypatch, replay, passes):
    """Extractor passes per KD step: one current-model forward and the
    frozen forward.  With replay rows the CE term reads the first rows of
    the KD rows' forward."""
    state = world("cosine", "relu", task=1)
    rng = np.random.default_rng(6)
    x_new = rng.normal(size=(24, 6))
    replay = rng.normal(size=(24, 6)) if replay else None
    calls = []
    real = M.feature_vjp

    def spy(params, x):
        calls.append(params)
        return real(params, x)

    monkeypatch.setattr(M, "feature_vjp", spy)
    TR.loss_and_grads(state, x_new, rng.integers(0, 6, size=24), TR.LossConfig(),
                      kd_batch(state, x_new, replay))
    assert len(calls) == passes
    assert sum(params is state.frozen[0] for params in calls) == 1


def test_run_task_without_replay_distills_on_the_new_batch_itself(monkeypatch):
    state = world("cosine", "relu", task=1)
    rng = np.random.default_rng(7)
    task = D.LabeledSet(rng.normal(size=(40, 6)), tuple(int(c) for c in rng.integers(8, 14, 40)),
                        "train")
    seen = []
    real = TR.loss_and_grads

    def spy(state, x_new, y_rel, loss_cfg, kd=None):
        seen.append(kd is not None and kd[1] is None)
        return real(state, x_new, y_rel, loss_cfg, kd)

    monkeypatch.setattr(TR, "loss_and_grads", spy)
    TR.run_task(state, task, None, None, 0.0, TR.LossConfig(),
                TR.OptimConfig(epochs=2, batch_new=16), None, rng)
    assert seen == [True] * 6


# (inputs, hidden widths, features) of the csv60 benchmark, the reference
# config and the test suite's tiny config
SHIPPED_WIDTHS = {"csv60": (32, (96, 64), 64), "reference": (16, (64, 48), 32),
                  "tiny": (16, (24, 16), 8)}


def frozen_model(widths="csv60", n_classes=42, seed=11):
    """A frozen model of the shipped ``widths`` with a cosine head of
    ``n_classes``."""
    n_in, hidden, n_feat = SHIPPED_WIDTHS[widths]
    rng = np.random.default_rng(seed)
    extractor = M.default_extractor(n_in, n_feat, rng, hidden=hidden)
    return extractor, M.init_head(range(n_classes), n_feat, rng, init_std=0.5)


def test_frozen_logits_counter_cases():
    """Why the training loop caches the frozen logits of a task's rows in
    chunks of ``batch_new`` rows rather than in one call: at 42 classes and
    the csv60 widths this BLAS rounds a row by the size of its call.  One
    call over 720 rows rounds rows otherwise than 32-row chunks do; a lone
    row (a matrix-vector product) and the partial last 4-row block of a
    call round otherwise than a whole block."""
    frozen = frozen_model()
    x = np.random.default_rng(12).normal(size=(720, 32)) * 2.0
    chunks = [TR.frozen_logits(frozen, x[i:i + 32]) for i in range(0, 720, 32)]
    assert TR.frozen_logits(frozen, x).tobytes() != np.concatenate(chunks).tobytes()
    blocks = TR.frozen_logits(frozen, x[:64])
    lone = [TR.frozen_logits(frozen, x[i:i + 1])[0] for i in range(64)]
    assert any(a.tobytes() != b.tobytes() for a, b in zip(blocks, lone))
    tails = [TR.frozen_logits(frozen, x[i:i + 6])[4:] for i in range(0, 64 - 6, 6)]
    assert any(got.tobytes() != blocks[i + 4:i + 6].tobytes()
               for i, got in zip(range(0, 64 - 6, 6), tails))


def chunked_logits(frozen, x, size):
    """The frozen logits of the rows of ``x``, one call per chunk of
    ``size`` consecutive rows."""
    return np.concatenate([TR.frozen_logits(frozen, x[start:start + size])
                           for start in range(0, len(x), size)])


# whole chunks; a last chunk of 4 rows; a last chunk of 6 rows and one of
# 1; chunks of 30 rows
@pytest.mark.parametrize("n_rows,size", [(720, 32), (68, 32), (70, 32), (65, 32), (72, 30)])
@pytest.mark.parametrize("widths,n_classes", [("csv60", 42), ("csv60", 12), ("reference", 16),
                                              ("tiny", 4)])
def test_frozen_logits_by_chunk_equal_per_batch_calls(n_rows, size, widths, n_classes):
    """The cache holds one call per chunk of ``size`` rows.  Where every
    chunk and every batch is a whole number of 4-row blocks, which this
    BLAS rounds alike in any call at these widths, as in every shipped
    config, a batch's cached rows are the bits of a call over that batch."""
    frozen = frozen_model(widths, n_classes)
    rng = np.random.default_rng(n_rows)
    x = rng.normal(size=(n_rows, SHIPPED_WIDTHS[widths][0])) * 2.0
    cached = TR.frozen_logits_by_chunk(frozen, x, size)
    assert cached.shape == (n_rows, n_classes)
    assert cached.tobytes() == chunked_logits(frozen, x, size).tobytes()
    if n_rows % 4 or size % 4:
        return
    for _ in range(4):  # epochs: full batches and the last one
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, size):
            batch = order[start:start + size]
            assert cached[batch].tobytes() == TR.frozen_logits(frozen, x[batch]).tobytes()


def spied_step_rows(monkeypatch, frozen_ext):
    """Two lists that record, from now on, the row count of every
    ``frozen_logits`` call and of every extractor pass other than those of
    ``frozen_ext``."""
    logit_rows, pass_rows = [], []
    real_logits, real_pass = TR.frozen_logits, M.feature_vjp

    def logits(frozen, x):
        logit_rows.append(len(x))
        return real_logits(frozen, x)

    def extractor_pass(params, x):
        if params is not frozen_ext:
            pass_rows.append(len(x))
        return real_pass(params, x)

    monkeypatch.setattr(TR, "frozen_logits", logits)
    monkeypatch.setattr(M, "feature_vjp", extractor_pass)
    return logit_rows, pass_rows


# the frozen logits' calls: the cache's 16-row chunks of the task's rows,
# the last of 8, 6 or 1 rows
@pytest.mark.parametrize("n_rows,calls", [(40, [16, 16, 8]), (38, [16, 16, 6]),
                                          (33, [16, 16, 1])])
def test_run_task_without_replay_equals_per_batch_frozen_logits(monkeypatch, n_rows, calls):
    """``run_task`` trains a task bit for bit as per-batch steps on frozen
    logits cached in chunks of ``batch_new`` rows do, with one frozen call
    per chunk and one current-extractor pass per step."""
    state = world("cosine", "relu", task=1)
    rng = np.random.default_rng(8)
    task = D.LabeledSet(rng.normal(size=(n_rows, 6)),
                        tuple(int(c) for c in rng.integers(8, 14, n_rows)), "train")
    optim, cfg = TR.OptimConfig(epochs=2, batch_new=16), TR.LossConfig()
    logit_rows, pass_rows = spied_step_rows(monkeypatch, state.frozen[0])
    got, _ = TR.run_task(state, task, None, None, 0.0, cfg, optim, None,
                         np.random.default_rng(9))
    monkeypatch.undo()
    assert logit_rows == calls

    cache = chunked_logits(state.frozen, task.x, optim.batch_new)
    mirror, rel = state, {cid: i for i, cid in enumerate(state.head.new_ids)}
    y_rel = np.array([rel[c] for c in task.y])
    steps = list(TR.task_schedule(n_rows, optim, np.random.default_rng(9)))
    for epoch, batch, *_ in steps:
        grad = TR.loss_and_grads(mirror, task.x[batch], y_rel[batch], cfg,
                                 (cache[batch], None))[2]
        mirror = stepped_state(mirror, grad, TR.cosine_lr(optim.lr, epoch, optim.epochs),
                               optim.weight_decay)
    assert pass_rows == [len(batch) for _, batch, *_ in steps]
    assert M.checksum(got.extractor, got.head) == M.checksum(mirror.extractor, mirror.head)


# 16-row batches and their replay rows over two epochs.  The frozen logits'
# calls: the cache's chunks of the 40 or 38 task rows, then one call per
# step over its 8 or 6 replay rows.
@pytest.mark.parametrize("n_rows,batch_replay,calls", [
    (40, 8, [16, 16, 8] + [8] * 6),
    (38, 8, [16, 16, 6] + [8] * 6),
    (40, 6, [16, 16, 8] + [6] * 6),
])
def test_run_task_with_replay_equals_per_step_frozen_logits(monkeypatch, n_rows, batch_replay,
                                                            calls):
    """``run_task`` trains a replay task bit for bit as per-step calls do on
    the cached frozen logits of the new rows followed by a call over the
    step's replay rows, with one current-extractor pass per step over its
    new and replay rows."""
    state = world("cosine", "relu", task=1)
    rng = np.random.default_rng(n_rows)
    task = D.LabeledSet(rng.normal(size=(n_rows, 6)),
                        tuple(int(c) for c in rng.integers(8, 14, n_rows)), "train")
    old = state.head.old_ids
    bank = task.x[rng.integers(0, n_rows, (len(old), 3))]
    optim = TR.OptimConfig(epochs=2, batch_new=16, batch_replay=batch_replay)
    cfg = TR.LossConfig()
    logit_rows, pass_rows = spied_step_rows(monkeypatch, state.frozen[0])
    got, _ = TR.run_task(state, task, bank, np.zeros((len(old), 32)), 0.0, cfg, optim, None,
                         np.random.default_rng(9))
    monkeypatch.undo()
    assert logit_rows == calls

    cache = chunked_logits(state.frozen, task.x, optim.batch_new)
    mirror, rel = state, {cid: i for i, cid in enumerate(state.head.new_ids)}
    y_rel = np.array([rel[c] for c in task.y])
    rng = np.random.default_rng(9)
    rng.integers(2**63)  # the task's noise key, drawn first
    steps = list(TR.task_schedule(n_rows, optim, rng, bank.shape[:2]))
    for epoch, batch, cls, slots in steps:
        replay = bank[cls, slots]
        prev = np.concatenate([cache[batch], TR.frozen_logits(state.frozen, replay)])
        grad = TR.loss_and_grads(mirror, task.x[batch], y_rel[batch], cfg, (prev, replay))[2]
        mirror = stepped_state(mirror, grad, TR.cosine_lr(optim.lr, epoch, optim.epochs),
                               optim.weight_decay)
    assert pass_rows == [len(batch) + batch_replay for _, batch, *_ in steps]
    assert M.checksum(got.extractor, got.head) == M.checksum(mirror.extractor, mirror.head)


def spied_pass_rows(monkeypatch):
    """A list that records the row count of every ``feature_vjp`` call
    from now on."""
    calls, real = [], M.feature_vjp

    def spy(params, x):
        calls.append(len(x))
        return real(params, x)

    monkeypatch.setattr(M, "feature_vjp", spy)
    return calls


def shipped_world(widths, seed=13):
    """A task-1 model of the shipped ``widths`` with 8 old and 4 new
    classes, its current parameters moved off the frozen ones."""
    n_in, hidden, n_feat = SHIPPED_WIDTHS[widths]
    rng = np.random.default_rng(seed)
    ext = M.default_extractor(n_in, n_feat, rng, hidden=hidden)
    state = M.ModelState(ext, M.init_head(range(8), n_feat, rng, init_std=0.5), None, 0)
    state = M.begin_task(state, range(8, 12), rng, init_std=0.5)
    return M.with_params(state, [p + rng.normal(scale=0.1, size=p.shape)
                                 for p in M.trainable_params(state)])


# new rows, replay rows and current-extractor passes per step: the
# reference config's full batch and its last, partial one, a batch as large
# as its replay rows, and 6 new rows, whose last 2 fill no whole 4-row block
@pytest.mark.parametrize("n_new,n_replay,passes", [(32, 64, 1), (8, 64, 1), (32, 32, 1),
                                                   (6, 64, 1)])
@pytest.mark.parametrize("widths", sorted(SHIPPED_WIDTHS))
def test_ce_pass_reads_the_first_rows_of_the_kd_forward(monkeypatch, widths, n_new, n_replay,
                                                         passes):
    """A step with replay rows runs the current extractor once, over its
    new and replay rows, and the CE term reads the first rows of that pass.
    At the shipped widths those rows round as a pass of their own, so the
    losses and gradient equal the tape's, byte for byte."""
    state = shipped_world(widths)
    rng = np.random.default_rng(n_new * 100 + n_replay)
    n_in = SHIPPED_WIDTHS[widths][0]
    x_new = rng.normal(size=(n_new, n_in)) * 2.0
    replay = rng.normal(size=(n_replay, n_in)) * 2.0
    y_rel = rng.integers(0, 4, size=n_new)
    cfg = TR.LossConfig()
    batch = kd_batch(state, x_new, replay)
    calls = spied_pass_rows(monkeypatch)
    ce, kd, grad = TR.loss_and_grads(state, x_new, y_rel, cfg, batch)
    assert calls == [n_new + n_replay] * passes
    monkeypatch.undo()
    ce_ref, kd_ref, grads_ref = taped(state, x_new, y_rel, cfg, kd_rows(x_new, replay))
    assert (ce, kd) == (ce_ref, kd_ref)
    assert grad.tobytes() == flat(grads_ref).tobytes()


@pytest.mark.parametrize("mode", ["cosine", "linear"])
def test_repeated_steps_equal_taped_steps(mode):
    """Updated parameters feed the next step, so their memory layout must be
    the taped step's too."""
    fused = taped_state = world(mode, "relu", task=1, seed=2)
    rng = np.random.default_rng(3)
    cfg = TR.LossConfig()
    for _ in range(4):
        x_new = rng.normal(size=(24, 6))
        y_rel = rng.integers(0, 6, size=24)
        replay = rng.normal(size=(24, 6))
        grad = TR.loss_and_grads(fused, x_new, y_rel, cfg, kd_batch(fused, x_new, replay))[2]
        fused = stepped_state(fused, grad, 0.05, 2e-4)
        taped_grads = taped(taped_state, x_new, y_rel, cfg, kd_rows(x_new, replay))[2]
        taped_state = stepped_state(taped_state, flat(taped_grads), 0.05, 2e-4)
    assert (M.checksum(fused.extractor, fused.head)
            == M.checksum(taped_state.extractor, taped_state.head))


def test_head_logits_equal_tape_bytewise():
    for mode in ("cosine", "linear"):
        state = world(mode, "relu", task=1, seed=4)
        feats = np.random.default_rng(5).normal(size=(40, 32))
        want = M.logits(state.head, Tensor(feats), "all").data
        assert M.head_logits(state.head, feats).tobytes() == want.tobytes()
        # each block alone is input_block_vjp's forward
        head = state.head
        for split, w in (("old_only", head.w_old), ("new_only", head.w_new)):
            want = M.logits(head, Tensor(feats), split).data
            got = M.input_block_vjp(head, w, M.head_input_vjp(head, feats))[0]
            assert got.tobytes() == want.tobytes()
        # a head with no old block: all classes are the new block
        want = M.logits(state.frozen[1], Tensor(feats), "all").data
        assert M.head_logits(state.frozen[1], feats).tobytes() == want.tobytes()
        with pytest.raises(ContractError):
            M.logits(state.frozen[1], Tensor(feats), "old_only")


def test_contract_errors_kept():
    state = world("cosine", "relu", task=1)
    x = np.ones((4, 6))
    cfg = TR.LossConfig()
    with pytest.raises(ContractError, match="relative label"):
        TR.loss_and_grads(state, x, [0, 1, 6, 0], cfg)
    with pytest.raises(ContractError, match="one relative index per row"):
        TR.loss_and_grads(state, x, [0, 1], cfg)
    with pytest.raises(ContractError, match="distillation"):
        TR.loss_and_grads(world("cosine", "relu", task=0), x, [0, 1, 2, 0], cfg,
                          (np.zeros((4, 8)), None))
    with pytest.raises(ContractError, match="logit blocks differ"):
        TR._kd_vjp(np.zeros((4, 3)), np.zeros((4, 2)), 2.0, 1.0)
    with pytest.raises(ContractError, match="gradients"):
        p = flat(M.trainable_params(state))
        TR.sgd_step(p, [], 0.1, 0.0)


def test_overflow_raises_numeric_error_through_run_task():
    rng = np.random.default_rng(6)
    ext = M.ExtractorParams(
        (2, 2, 2), ("identity", "identity"),
        [np.eye(2) * 1e200, np.eye(2) * 1e200],
        [np.zeros(2), np.zeros(2)],
    )
    state = M.begin_task(M.ModelState(ext, M.init_head([0, 1], 2, rng), None, 0), [2, 3], rng)
    task = D.LabeledSet(np.ones((4, 2)), (2, 3, 2, 3), "train")
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        TR.run_task(state, task, None, None, 0.0, TR.LossConfig(),
                    TR.OptimConfig(epochs=1), None, rng)


def test_nonfinite_loss_and_gradient_rejected():
    state = world("linear", "identity", task=1, seed=7)
    x = np.random.default_rng(8).normal(size=(1, 6))
    # finite logits +-1.5e308 whose log-softmax overflows: a non-finite loss
    f = M.features(state.extractor, x)[0]
    u = f / (f @ f) * 1.5e8
    head = state.head
    huge = M.ClassifierHead("linear", head.scale, head.old_ids, head.new_ids, head.w_old,
                            np.stack([u, -u]) * 1e300)
    huge_state = M.ModelState(state.extractor, huge, None, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="loss"):
            TR.loss_and_grads(huge_state, x, [1], TR.LossConfig())
        with pytest.raises(NumericError):
            taped(huge_state, x, [1], TR.LossConfig())
    # a finite loss (about 1.5e308) whose distillation gradient overflows
    x_new = np.random.default_rng(9).normal(size=(4, 6))
    cfg = TR.LossConfig(lambda_kd=5e306, kd_temperature=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="gradient"):
            TR.loss_and_grads(state, x_new, [0, 1, 0, 1], cfg,
                              kd_batch(state, x_new, x_new * 30.0))
        with pytest.raises(NumericError):
            taped(state, x_new, [0, 1, 0, 1], cfg, kd_rows(x_new, x_new * 30.0))

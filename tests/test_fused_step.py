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
from advreplay import replay as R
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
    """``state`` after one ``sgd_step``, rebuilt as the training loop does:
    its parameters become read-only views of the updated vector."""
    p = flat(M.trainable_params(state))
    p = TR.sgd_step(p, grad, lr, weight_decay, np.empty_like(p))
    p.flags.writeable = False
    return M.with_params(state, M.param_views(state, p))


def kd_batch(state, x_kd):
    """``x_kd`` and the frozen model's logits of it, as the training loop
    passes them to ``loss_and_grads``; None without KD rows."""
    return None if x_kd is None else (x_kd, TR.frozen_logits(state.frozen, x_kd))


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
    # the KD batch is the new rows plus more replay rows than new rows, or
    # without replay the new-row array itself
    x_kd = {"kd": np.concatenate([x_new, rng.normal(size=(40, 6))]),
            "kd-no-replay": x_new}.get(kd)
    cfg = TR.LossConfig(lambda_kd=10.0, ce_temperature=temps[0], kd_temperature=temps[1])

    ce, kd_value, grad = TR.loss_and_grads(state, x_new, y_rel, cfg, kd_batch(state, x_kd))
    ce_ref, kd_ref, grads_ref = taped(state, x_new, y_rel, cfg, x_kd)
    assert ce == ce_ref
    assert kd_value == kd_ref
    assert grad.shape == (sum(p.size for p in M.trainable_params(state)),)
    grads = M.param_views(state, grad)
    assert len(grads) == len(M.trainable_params(state))
    for got, want in zip(grads, grads_ref):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if kd.startswith("kd"):
        assert kd_value > 0.0


@pytest.mark.parametrize("replay,passes", [(False, 2), (True, 2)])
def test_kd_without_replay_reuses_the_ce_forward(monkeypatch, replay, passes):
    """Extractor passes per KD step: one current-model forward and the
    frozen forward.  With replay rows after 24 new rows (whole row blocks)
    the CE term reads the first rows of the KD batch's forward."""
    state = world("cosine", "relu", task=1)
    rng = np.random.default_rng(6)
    x_new = rng.normal(size=(24, 6))
    x_kd = np.concatenate([x_new, rng.normal(size=(24, 6))]) if replay else x_new
    calls = []
    real = M.feature_vjp

    def spy(params, x):
        calls.append(params)
        return real(params, x)

    monkeypatch.setattr(M, "feature_vjp", spy)
    TR.loss_and_grads(state, x_new, rng.integers(0, 6, size=24), TR.LossConfig(),
                      kd_batch(state, x_kd))
    assert len(calls) == passes
    assert sum(params is state.frozen[0] for params in calls) == 1


def test_run_task_without_replay_distills_on_the_new_batch_itself(monkeypatch):
    state = world("cosine", "relu", task=1)
    rng = np.random.default_rng(7)
    task = D.LabeledSet(rng.normal(size=(40, 6)), tuple(int(c) for c in rng.integers(8, 14, 40)),
                        "train")
    seen = []
    real = TR.loss_and_grads

    def spy(state, x_new, y_rel, loss_cfg, kd_batch=None):
        seen.append(kd_batch[0] is x_new)
        return real(state, x_new, y_rel, loss_cfg, kd_batch)

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
    """Why the training loop gathers cached frozen logits only for batches
    of whole ``GEMM_ROW_BLOCK``s: with 42 classes a row rounds otherwise
    alone (a matrix-vector product) and in the partial last row block of a
    call than in a whole block."""
    frozen = frozen_model()
    x = np.random.default_rng(12).normal(size=(64, 32)) * 2.0
    blocks = TR.frozen_logits(frozen, x)
    lone = [TR.frozen_logits(frozen, x[i:i + 1])[0] for i in range(64)]
    assert any(a.tobytes() != b.tobytes() for a, b in zip(blocks, lone))
    assert TR.GEMM_ROW_BLOCK == 4
    tails = [TR.frozen_logits(frozen, x[i:i + 6])[4:] for i in range(0, 64 - 6, 6)]
    assert any(got.tobytes() != blocks[i + 4:i + 6].tobytes()
               for i, got in zip(range(0, 64 - 6, 6), tails))


# whole chunks; a partial last chunk of whole blocks; a last chunk of 6 and
# one of 1, padded to whole blocks; chunks of 30 rows, rounded down to 28,
# serving the 12-row last batch
@pytest.mark.parametrize("n_rows,size", [(720, 32), (68, 32), (70, 32), (65, 32), (72, 30)])
@pytest.mark.parametrize("widths,n_classes", [("csv60", 42), ("csv60", 12), ("reference", 16),
                                              ("tiny", 4)])
def test_frozen_logits_by_chunk_equal_per_batch_calls(n_rows, size, widths, n_classes):
    frozen = frozen_model(widths, n_classes)
    rng = np.random.default_rng(n_rows)
    x = rng.normal(size=(n_rows, SHIPPED_WIDTHS[widths][0])) * 2.0
    cached = TR.frozen_logits_by_chunk(frozen, x, size)
    assert cached.shape == (n_rows, n_classes)
    checked = 0
    for _ in range(4):  # epochs: full batches and the partial last one
        order = rng.permutation(n_rows)
        for start in range(0, n_rows, size):
            batch = order[start:start + size]
            if len(batch) % TR.GEMM_ROW_BLOCK == 0:
                want = TR.frozen_logits(frozen, x[batch])
                assert cached[batch].tobytes() == want.tobytes()
                checked += len(batch)
    assert checked


# the last batch of each epoch: 8 rows, gathered; 6 rows and 1 row, their
# own call each
@pytest.mark.parametrize("n_rows,calls", [(40, [16, 16, 8]), (38, [16, 16, 8, 6, 6]),
                                          (33, [16, 16, 4, 1, 1])])
def test_run_task_without_replay_equals_per_batch_frozen_logits(monkeypatch, n_rows, calls):
    """The cached frozen logits train a task bit for bit as a call per step
    does."""
    state = world("cosine", "relu", task=1)
    rng = np.random.default_rng(8)
    task = D.LabeledSet(rng.normal(size=(n_rows, 6)),
                        tuple(int(c) for c in rng.integers(8, 14, n_rows)), "train")
    optim, cfg = TR.OptimConfig(epochs=2, batch_new=16), TR.LossConfig()
    rows, real = [], TR.frozen_logits

    def counted(frozen, x):
        rows.append(len(x))
        return real(frozen, x)

    monkeypatch.setattr(TR, "frozen_logits", counted)
    got, _ = TR.run_task(state, task, None, None, 0.0, cfg, optim, None,
                         np.random.default_rng(9))
    assert rows == calls
    monkeypatch.setattr(TR, "frozen_logits", real)

    mirror, rel = state, {cid: i for i, cid in enumerate(state.head.new_ids)}
    y_rel = np.array([rel[c] for c in task.y])
    for epoch, batch, *_ in TR.task_schedule(n_rows, optim, np.random.default_rng(9)):
        x_new = task.x[batch]
        grad = TR.loss_and_grads(mirror, x_new, y_rel[batch], cfg, kd_batch(mirror, x_new))[2]
        mirror = stepped_state(mirror, grad, TR.cosine_lr(optim.lr, epoch, optim.epochs),
                               optim.weight_decay)
    assert M.checksum(got.extractor, got.head) == M.checksum(mirror.extractor, mirror.head)


# 16-row batches and their replay rows over two epochs.  Whole blocks of
# new rows take their frozen logits from the cache (three padded chunks
# of the 40 or 38 rows), their replay rows from a call of their own; a
# last batch of 6 rows, or 6 replay rows, keeps one call over the step's
# new and replay rows.
@pytest.mark.parametrize("n_rows,batch_replay,calls", [
    (40, 8, [16, 16, 8] + [8] * 6),
    (38, 8, [16, 16, 8] + [8, 8, 14] * 2),
    (40, 6, [22, 22, 14] * 2),
])
def test_run_task_with_replay_equals_per_step_frozen_logits(monkeypatch, n_rows, batch_replay,
                                                            calls):
    """The cached frozen logits of the new rows train a replay task bit for
    bit as one call per step over its new and replay rows does."""
    state = world("cosine", "relu", task=1)
    rng = np.random.default_rng(n_rows)
    task = D.LabeledSet(rng.normal(size=(n_rows, 6)),
                        tuple(int(c) for c in rng.integers(8, 14, n_rows)), "train")
    old = state.head.old_ids
    cands = R.CandidateSet(old, rng.integers(0, n_rows, (len(old), 3)),
                           D.identity_policies((len(old), 3)))
    protos = {cid: np.zeros(32) for cid in old}
    optim = TR.OptimConfig(epochs=2, batch_new=16, batch_replay=batch_replay)
    cfg = TR.LossConfig()
    rows, real = [], TR.frozen_logits

    def counted(frozen, x):
        rows.append(len(x))
        return real(frozen, x)

    monkeypatch.setattr(TR, "frozen_logits", counted)
    got, _ = TR.run_task(state, task, cands, protos, 0.0, cfg, optim, None,
                         np.random.default_rng(9))
    assert rows == calls
    monkeypatch.setattr(TR, "frozen_logits", real)

    mirror, rel = state, {cid: i for i, cid in enumerate(state.head.new_ids)}
    y_rel = np.array([rel[c] for c in task.y])
    bank = task.x[cands.indices]
    for epoch, batch, cls, slots, _ in TR.task_schedule(n_rows, optim, np.random.default_rng(9),
                                                        bank.shape[:2]):
        x_new = task.x[batch]
        x_kd = np.concatenate([x_new, bank[cls, slots]])
        grad = TR.loss_and_grads(mirror, x_new, y_rel[batch], cfg, kd_batch(mirror, x_kd))[2]
        mirror = stepped_state(mirror, grad, TR.cosine_lr(optim.lr, epoch, optim.epochs),
                               optim.weight_decay)
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


# new rows and replay rows per step: the reference config's full batch and
# its last, partial one (whole row blocks), a batch as large as its replay
# rows, and 6 new rows, which keep their own forward
@pytest.mark.parametrize("n_new,n_replay,passes", [(32, 64, 1), (8, 64, 1), (32, 32, 1),
                                                   (6, 64, 2)])
@pytest.mark.parametrize("widths", sorted(SHIPPED_WIDTHS))
def test_ce_pass_reads_the_first_rows_of_the_kd_forward(monkeypatch, widths, n_new, n_replay,
                                                         passes):
    """A step with replay rows after a whole number of ``GEMM_ROW_BLOCK``s
    of new rows runs the current extractor once.  Its losses and gradient
    equal, byte for byte, those of the step with a forward of its own for
    the CE rows, and the tape's."""
    state = shipped_world(widths)
    rng = np.random.default_rng(n_new * 100 + n_replay)
    n_in = SHIPPED_WIDTHS[widths][0]
    x_new = rng.normal(size=(n_new, n_in)) * 2.0
    x_kd = np.concatenate([x_new, rng.normal(size=(n_replay, n_in)) * 2.0])
    y_rel = rng.integers(0, 4, size=n_new)
    cfg = TR.LossConfig()
    batch = kd_batch(state, x_kd)
    calls = spied_pass_rows(monkeypatch)
    ce, kd, grad = TR.loss_and_grads(state, x_new, y_rel, cfg, batch)
    assert calls == ([n_new + n_replay] if passes == 1 else [n_new, n_new + n_replay])
    monkeypatch.setattr(TR, "_leads_with", lambda x_kd, x_new: False)
    calls.clear()
    two = TR.loss_and_grads(state, x_new, y_rel, cfg, batch)
    assert calls == [n_new, n_new + n_replay]
    monkeypatch.undo()
    assert (ce, kd) == two[:2]
    assert grad.tobytes() == two[2].tobytes()
    ce_ref, kd_ref, grads_ref = taped(state, x_new, y_rel, cfg, x_kd)
    assert (ce, kd) == (ce_ref, kd_ref)
    assert grad.tobytes() == flat(grads_ref).tobytes()


def test_kd_rows_that_do_not_start_with_the_new_rows_get_their_own_forward(monkeypatch):
    """Replay rows before the new rows, or a first row that differs in one
    bit, leave the CE pass on a forward of its own."""
    state = shipped_world("reference")
    rng = np.random.default_rng(5)
    x_new = rng.normal(size=(8, 16))
    replay = rng.normal(size=(8, 16))
    nudged = x_new.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
    for x_kd in (np.concatenate([replay, x_new]), np.concatenate([nudged, replay])):
        batch = kd_batch(state, x_kd)
        calls = spied_pass_rows(monkeypatch)
        grad = TR.loss_and_grads(state, x_new, [0, 1, 2, 3] * 2, TR.LossConfig(), batch)[2]
        monkeypatch.undo()
        assert calls == [8, 16]
        want = taped(state, x_new, [0, 1, 2, 3] * 2, TR.LossConfig(), x_kd)[2]
        assert grad.tobytes() == flat(want).tobytes()


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
        x_kd = np.concatenate([x_new, rng.normal(size=(24, 6))])
        grad = TR.loss_and_grads(fused, x_new, y_rel, cfg, kd_batch(fused, x_kd))[2]
        fused = stepped_state(fused, grad, 0.05, 2e-4)
        taped_grads = taped(taped_state, x_new, y_rel, cfg, x_kd)[2]
        taped_state = stepped_state(taped_state, flat(taped_grads), 0.05, 2e-4)
    assert (M.checksum(fused.extractor, fused.head)
            == M.checksum(taped_state.extractor, taped_state.head))


def test_head_logits_equal_tape_bytewise():
    for mode in ("cosine", "linear"):
        state = world(mode, "relu", task=1, seed=4)
        feats = np.random.default_rng(5).normal(size=(40, 32))
        want = M.logits(state.head, Tensor(feats), "all").data
        assert M.head_logits(state.head, feats).tobytes() == want.tobytes()
        # each block alone is block_vjp's forward
        head = state.head
        for split, w in (("old_only", head.w_old), ("new_only", head.w_new)):
            want = M.logits(head, Tensor(feats), split).data
            assert M.block_vjp(head, w, feats)[0].tobytes() == want.tobytes()
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
                          (x, np.zeros((4, 8))))
    with pytest.raises(ContractError, match="logit blocks differ"):
        TR._kd_vjp(np.zeros((4, 3)), np.zeros((4, 2)), 2.0, 1.0)
    with pytest.raises(ContractError, match="gradients"):
        p = flat(M.trainable_params(state))
        TR.sgd_step(p, [], 0.1, 0.0, np.empty_like(p))


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
    cfg = TR.LossConfig(lambda_kd=2.6e306, kd_temperature=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="gradient"):
            TR.loss_and_grads(state, x_new, [0, 1, 0, 1], cfg, kd_batch(state, x_new * 30.0))
        with pytest.raises(NumericError):
            taped(state, x_new, [0, 1, 0, 1], cfg, x_new * 30.0)

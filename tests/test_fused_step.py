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
    moved = {p: Tensor(p.data + rng.normal(scale=0.1, size=p.shape))
             for p in M.trainable_params(state)}
    return M.replace_params(state, moved)


def taped(state, x_new, y_rel, cfg, x_kd=None):
    """The step's objective on the autodiff tape: the oracle."""
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
    params = M.trainable_params(state)
    _, grads = T.value_and_grad(loss, params)
    return float(ce.data), kd, [grads[p].data for p in params]


CASES = [(mode, kind, kd, temps)
         for mode in ("cosine", "linear") for kind in sorted(STACKS)
         for kd in ("first-task", "no-kd", "kd") for temps in TEMPERATURES]


@pytest.mark.parametrize("mode,kind,kd,temps", CASES)
def test_loss_and_grads_equal_tape_bytewise(mode, kind, kd, temps):
    state = world(mode, kind, task=0 if kd == "first-task" else 1)
    rng = np.random.default_rng(1)
    x_new = rng.normal(size=(24, 6)) * 2.0
    y_rel = rng.integers(0, len(state.head.new_ids), size=24)
    # the KD batch is the new rows plus more replay rows than new rows
    x_kd = np.concatenate([x_new, rng.normal(size=(40, 6))]) if kd == "kd" else None
    cfg = TR.LossConfig(lambda_kd=10.0, ce_temperature=temps[0], kd_temperature=temps[1])

    ce, kd_value, grads = TR.loss_and_grads(state, x_new, y_rel, cfg, x_kd)
    ce_ref, kd_ref, grads_ref = taped(state, x_new, y_rel, cfg, x_kd)
    assert ce == ce_ref
    assert kd_value == kd_ref
    assert len(grads) == len(M.trainable_params(state))
    for got, want in zip(grads, grads_ref):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    if kd == "kd":
        assert kd_value > 0.0


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
        fused = TR.sgd_step(fused, TR.loss_and_grads(fused, x_new, y_rel, cfg, x_kd)[2],
                            0.05, 2e-4)
        taped_state = TR.sgd_step(taped_state, taped(taped_state, x_new, y_rel, cfg, x_kd)[2],
                                  0.05, 2e-4)
    assert (M.checksum(fused.extractor, fused.head)
            == M.checksum(taped_state.extractor, taped_state.head))


def test_head_logits_equal_tape_bytewise():
    for mode in ("cosine", "linear"):
        state = world(mode, "relu", task=1, seed=4)
        feats = np.random.default_rng(5).normal(size=(40, 32))
        for split in ("all", "old_only", "new_only"):
            want = M.logits(state.head, Tensor(feats), split).data
            assert M.head_logits(state.head, feats, split).tobytes() == want.tobytes()
        # a head with no old block: "all" is the new block
        want = M.logits(state.frozen[1], Tensor(feats), "all").data
        assert M.head_logits(state.frozen[1], feats, "all").tobytes() == want.tobytes()
        with pytest.raises(ContractError):
            M.head_logits(state.frozen[1], feats, "old_only")


def test_contract_errors_kept():
    state = world("cosine", "relu", task=1)
    x = np.ones((4, 6))
    cfg = TR.LossConfig()
    with pytest.raises(ContractError, match="relative label"):
        TR.loss_and_grads(state, x, [0, 1, 6, 0], cfg)
    with pytest.raises(ContractError, match="one relative index per row"):
        TR.loss_and_grads(state, x, [0, 1], cfg)
    with pytest.raises(ContractError, match="distillation"):
        TR.loss_and_grads(world("cosine", "relu", task=0), x, [0, 1, 2, 0], cfg, x)
    with pytest.raises(ContractError, match="logit blocks differ"):
        TR._kd_vjp(np.zeros((4, 3)), np.zeros((4, 2)), 2.0, 1.0)
    with pytest.raises(ContractError, match="gradients"):
        TR.sgd_step(state, [], 0.1, 0.0)


def test_overflow_raises_numeric_error_through_run_task():
    rng = np.random.default_rng(6)
    ext = M.ExtractorParams(
        (2, 2, 2), ("identity", "identity"),
        [Tensor(np.eye(2) * 1e200), Tensor(np.eye(2) * 1e200)],
        [Tensor(np.zeros(2)), Tensor(np.zeros(2))],
    )
    state = M.begin_task(M.ModelState(ext, M.init_head([0, 1], 2, rng), None, 0), [2, 3], rng)
    task = D.LabeledSet(Tensor(np.ones((4, 2))), (2, 3, 2, 3), "train")
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
                            Tensor(np.stack([u, -u]) * 1e300))
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
            TR.loss_and_grads(state, x_new, [0, 1, 0, 1], cfg, x_new * 30.0)
        with pytest.raises(NumericError):
            taped(state, x_new, [0, 1, 0, 1], cfg, x_new * 30.0)

import hashlib
import multiprocessing
import os
import re
import time
from contextlib import closing

import numpy as np
import pytest
from test_fused_step import flat, kd_batch, stepped_state

from advreplay import blas
from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
from advreplay import tensor as T
from advreplay import train as TR
from advreplay.errors import ConfigError, ContractError, EngineError, NumericError, StatsError
from advreplay.tensor import Tensor


# -- local CE loss ---------------------------------------------------------------


def test_ce_uniform_logits_is_log_n():
    logits = Tensor(np.zeros((6, 10)))
    loss = TR.local_ce_loss(logits, np.arange(6) % 10)
    assert float(loss.data) == pytest.approx(np.log(10.0), abs=1e-12)


def test_ce_large_margin_goes_to_zero():
    logits = np.full((4, 5), -40.0)
    logits[np.arange(4), [0, 1, 2, 3]] = 40.0
    loss = TR.local_ce_loss(Tensor(logits), [0, 1, 2, 3])
    assert float(loss.data) < 1e-12


def test_ce_matches_direct_logsumexp():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(4, 5)) * 3.0
    y = rng.integers(0, 5, size=4)
    loss = float(TR.local_ce_loss(Tensor(logits), y).data)
    manual = 0.0
    for row, label in zip(logits, y):
        manual += np.log(np.exp(row - row.max()).sum()) + row.max() - row[label]
    assert loss == pytest.approx(manual / 4.0, abs=1e-12)


def test_ce_label_out_of_range():
    with pytest.raises(ContractError):
        TR.local_ce_loss(Tensor(np.zeros((2, 3))), [0, 3])


# -- local KD loss ---------------------------------------------------------------


def test_kd_identical_logits_is_exactly_zero():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(5, 4))
    loss = TR.local_kd_loss(Tensor(logits), Tensor(logits), temperature=2.0)
    assert float(loss.data) == 0.0


def test_kd_direct_kl_arithmetic():
    prev = Tensor(np.array([[0.0, 0.0]]))
    cur = Tensor(np.array([[np.log(3.0), 0.0]]))
    loss = TR.local_kd_loss(cur, prev, temperature=1.0)
    expected = 0.5 * np.log(2.0 / 3.0) + 0.5 * np.log(2.0)
    assert float(loss.data) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.143841, abs=1e-6)


def test_kd_column_mismatch():
    with pytest.raises(ContractError):
        TR.local_kd_loss(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_default_loss_weights_follow_reference_settings():
    cfg = TR.LossConfig()
    assert cfg.lambda_kd == 10.0
    assert cfg.ce_temperature == 1.0


# -- class statistics ---------------------------------------------------------------


def identity_extractor(dim):
    return M.ExtractorParams((dim, dim), ("identity",),
                             [np.eye(dim)], [np.zeros(dim)])


def test_class_stats_hand_covariance():
    ds = D.LabeledSet([[0.0, 0.0], [2.0, 0.0]], (5, 5), "train")
    stats = TR.compute_class_stats(identity_extractor(2), ds)
    mu, cov = stats[5]
    np.testing.assert_array_equal(mu, [1.0, 0.0])
    np.testing.assert_array_equal(cov, [[2.0, 0.0], [0.0, 0.0]])


def test_class_stats_degenerate_zero_covariance():
    ds = D.LabeledSet(np.ones((4, 3)), (1, 1, 1, 1), "train")
    _, cov = TR.compute_class_stats(identity_extractor(3), ds)[1]
    np.testing.assert_array_equal(cov, np.zeros((3, 3)))


def test_class_stats_symmetric_psd():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 6))
    ds = D.LabeledSet(x, tuple([0] * 20 + [1] * 20), "train")
    for mu, cov in TR.compute_class_stats(identity_extractor(6), ds).values():
        assert np.max(np.abs(cov - cov.T)) <= 1e-12
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_class_stats_needs_two_samples():
    ds = D.LabeledSet([[1.0, 2.0]], (0,), "train")
    with pytest.raises(StatsError):
        TR.compute_class_stats(identity_extractor(2), ds)


# -- task loop -----------------------------------------------------------------------


def small_world(seed=0, n_classes=4, input_dim=6, d=4):
    """Two-task fixture: trained task-0 model plus task-1 data."""
    rng = np.random.default_rng(seed)
    spec = D.SyntheticSpec(n_classes=n_classes, input_dim=input_dim, radius=6.0,
                           cluster_std=1.0, n_train=30, n_val=4, n_test=10)
    stream = D.make_task_stream(spec, 2, "cold", seed, seed)
    extractor = M.default_extractor(input_dim, d, rng, hidden=(16,))
    head = M.init_head(stream.class_groups[0], d, rng)
    state = M.ModelState(extractor, head, None, 0)
    state = TR.train_initial(state, stream.train[0], TR.LossConfig(),
                             TR.OptimConfig(lr=0.1, epochs=8, batch_new=16), rng)
    return state, stream, rng


def replay_inputs(state, data, protos, k, seed):
    """What ``runner.learn`` hands ``run_task``: the bank that candidate
    sampling returns for ``data`` (rng ``seed``), and the prototypes as
    centers in the bank's ascending class order."""
    bank = R.build_candidate_set(state.frozen[0], data, protos, k=k,
                                 rng=np.random.default_rng(seed),
                                 family=D.AugFamily(input_dim=data.input_dim))
    return bank, np.array([protos[cid] for cid in sorted(protos)])


def test_zero_learning_rate_keeps_params_bitwise():
    state, stream, rng = small_world()
    stats = TR.compute_class_stats(state.extractor, stream.train[0])
    protos = {c: mu for c, (mu, _) in stats.items()}
    state = M.begin_task(state, stream.class_groups[1], rng)
    before = M.checksum(state.extractor, state.head)
    bank, centers = replay_inputs(state, stream.train[1], protos, 8, 3)
    out, epochs = TR.run_task(
        state, stream.train[1], bank, centers, noise_r=0.5,
        loss_cfg=TR.LossConfig(), optim_cfg=TR.OptimConfig(lr=0.0, epochs=1, batch_new=16),
        attack_cfg=R.AttackConfig(alpha=1.0, n_attack=1), rng=np.random.default_rng(4))
    assert M.checksum(out.extractor, out.head) == before
    assert np.isfinite(epochs[0]["ce_loss"])
    assert np.isfinite(epochs[0]["kd_loss"])


def test_lambda_zero_no_replay_equals_plain_finetune():
    state, stream, rng = small_world(seed=5)
    state = M.begin_task(state, stream.class_groups[1], np.random.default_rng(6))
    optim = TR.OptimConfig(lr=0.05, epochs=3, batch_new=16)
    loss_cfg = TR.LossConfig(lambda_kd=0.0)

    got, _ = TR.run_task(state, stream.train[1], None, None, 0.0, loss_cfg, optim,
                         None, np.random.default_rng(7))

    # independent re-implementation: CE-only SGD with the same batch stream
    mirror = state
    rel = {cid: i for i, cid in enumerate(mirror.head.new_ids)}
    y_rel = np.array([rel[c] for c in stream.train[1].y])
    x = stream.train[1].x
    rng2 = np.random.default_rng(7)
    for epoch in range(optim.epochs):
        lr = TR.cosine_lr(optim.lr, epoch, optim.epochs)
        order = rng2.permutation(len(x))
        for start in range(0, len(x), optim.batch_new):
            batch = order[start: start + optim.batch_new]
            params = [Tensor(p) for p in M.trainable_params(mirror)]
            taped = M.with_params(mirror, params)
            feats = M.extract(taped.extractor, Tensor(x[batch]))
            ce = TR.local_ce_loss(M.logits(taped.head, feats, "new_only"), y_rel[batch])
            _, grads = T.value_and_grad(ce, params)
            mirror = stepped_state(mirror, flat(grads[p].data for p in params), lr,
                                   optim.weight_decay)

    assert M.checksum(got.extractor, got.head) == M.checksum(mirror.extractor, mirror.head)


def test_sgd_step_writes_read_only_finite_params():
    state, stream, _ = small_world(seed=20)
    x, labels = stream.train[0].x[:8], [0] * 8
    grads = TR.loss_and_grads(state, x, labels, TR.LossConfig())[2]
    stepped = stepped_state(state, grads, 0.1, 2e-4)
    assert all(not p.flags.writeable for p in M.trainable_params(stepped))
    p = flat(M.trainable_params(state))
    want = p - 0.1 * (grads + 2e-4 * p)
    assert TR.sgd_step(p, grads, 0.1, 2e-4) is p
    assert p.tobytes() == want.tobytes()  # updated in place
    M.param_views(state, grads)[0][...] = 1e308  # times lr 10: an overflowing update
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="updated parameters"):
        TR.sgd_step(p, grads, 10.0, 2e-4)


def test_sgd_steps_across_head_growth_equal_per_array_update():
    """The fused update over the packed vector equals ``p - lr * (g + wd * p)``
    on each parameter array, byte for byte, before and after ``begin_task``
    changes the layout."""
    state, stream, rng = small_world(seed=24)
    x0, x1 = stream.train[0].x, stream.train[1].x
    labels = np.arange(16) % 2
    lr, wd = 0.05, 2e-4
    for task in range(2):
        if task == 1:
            state = M.begin_task(state, stream.class_groups[1], rng)
        for step in range(3):
            rows = slice(16 * step, 16 * step + 16)
            grad = TR.loss_and_grads(state, (x0, x1)[task][rows], labels, TR.LossConfig(),
                                     kd_batch(state, x1[rows], x0[rows]) if task else None)[2]
            want = [p - lr * (g + wd * p)
                    for p, g in zip(M.trainable_params(state), M.param_views(state, grad))]
            state = stepped_state(state, grad, lr, wd)
            got = M.trainable_params(state)
            assert len(got) == len(want) == 2 * len(state.extractor.weights) + 1 + task
            for p, w in zip(got, want):
                assert p.shape == w.shape
                assert p.tobytes() == w.tobytes()


def test_stepped_params_are_read_only_views_of_one_vector():
    """What ``train_initial`` and ``run_task`` return: the training loop's
    vector, of which the parameters are consecutive read-only views."""
    state, stream, rng = small_world(seed=25)
    grown = M.begin_task(state, stream.class_groups[1], rng)
    trained, _ = TR.run_task(grown, stream.train[1], None, None, 0.0, TR.LossConfig(),
                             TR.OptimConfig(epochs=1, batch_new=16), None, rng)
    for stepped in (state, trained):
        params = M.trainable_params(stepped)
        vector = params[0].base
        assert vector.ndim == 1 and vector.flags.c_contiguous and not vector.flags.writeable
        start = vector.__array_interface__["data"][0]
        offset = 0
        for p in params:
            assert not p.flags.writeable
            assert p.base is vector
            assert p.__array_interface__["data"][0] == start + 8 * offset
            offset += p.size
        assert offset == vector.size
        with pytest.raises(ContractError, match="flat vector"):
            M.param_views(stepped, vector[:-1])
    # the returned vector is read-only: a step on it raises and writes nothing
    x = stream.train[1].x[:8]
    grad = TR.loss_and_grads(trained, x, [0, 1] * 4, TR.LossConfig(), kd_batch(trained, x))[2]
    before = vector.tobytes()
    with pytest.raises(ContractError, match="writeable parameter vector"):
        TR.sgd_step(vector, grad, 0.1, 2e-4)
    assert vector.tobytes() == before


def test_every_step_of_a_task_updates_the_returned_vector(monkeypatch):
    """``_fit`` steps one vector in place: every step of a replaying task
    reads its parameters as views of that one vector, which is the
    read-only vector of the state ``run_task`` returns."""
    state, stream, rng = small_world(seed=29)
    stats = TR.compute_class_stats(state.extractor, stream.train[0])
    protos = {c: mu for c, (mu, _) in stats.items()}
    state = M.begin_task(state, stream.class_groups[1], rng)
    bank, centers = replay_inputs(state, stream.train[1], protos, 8, 3)
    seen = []
    loss_and_grads = TR.loss_and_grads

    def spy(stepped, *args):
        seen.append(M.trainable_params(stepped)[0].base)
        return loss_and_grads(stepped, *args)

    monkeypatch.setattr(TR, "loss_and_grads", spy)
    trained, _ = TR.run_task(state, stream.train[1], bank, centers, 0.5, TR.LossConfig(),
                             TR.OptimConfig(epochs=2, batch_new=16),
                             R.AttackConfig(alpha=1.0, n_attack=1), np.random.default_rng(4))
    vector = M.trainable_params(trained)[0].base
    assert len(seen) == 2 * -(-len(stream.train[1]) // 16)
    assert all(v is vector for v in seen)
    assert not vector.flags.writeable


def test_a_returned_state_is_never_written_again():
    """The vector that ``_fit`` hands back is read-only: training later
    tasks from a returned state leaves it, and the frozen copy that shares
    its arrays, as they were."""
    state, stream, rng = small_world(seed=27)
    first = M.checksum(state.extractor, state.head)
    grown = M.begin_task(state, stream.class_groups[1], rng)
    trained, _ = TR.run_task(grown, stream.train[1], None, None, 0.0, TR.LossConfig(),
                             TR.OptimConfig(epochs=2, batch_new=16), None, rng)
    assert M.checksum(state.extractor, state.head) == first
    assert M.checksum(*trained.frozen) == first
    second = M.checksum(trained.extractor, trained.head)
    # a third task: the task-1 rows relabelled as two more classes
    task = stream.train[1]
    relabelled = D.LabeledSet(task.x, tuple(c + 100 for c in task.y), "train")
    grown = M.begin_task(trained, [c + 100 for c in stream.class_groups[1]], rng)
    later, _ = TR.run_task(grown, relabelled, None, None, 0.0, TR.LossConfig(),
                           TR.OptimConfig(epochs=2, batch_new=16), None, rng)
    assert M.checksum(trained.extractor, trained.head) == second
    assert M.checksum(*later.frozen) == second
    assert M.checksum(state.extractor, state.head) == first
    for done in (state, trained, later):
        assert not M.trainable_params(done)[0].base.flags.writeable


def test_sgd_step_parameter_contract():
    """``sgd_step`` updates only a writeable parameter vector, and only from
    a gradient of its shape; either fault raises before anything is
    written.  A non-finite update still raises."""
    rng = np.random.default_rng(28)
    p, grad = rng.normal(size=16), rng.normal(size=16)
    before = p.tobytes()
    read_only = p.copy()
    read_only.flags.writeable = False
    for bad in (read_only, p.reshape(4, 4), list(p)):
        with pytest.raises(ContractError, match="writeable parameter vector"):
            TR.sgd_step(bad, grad, 0.1, 2e-4)
    assert read_only.tobytes() == before
    for bad in (grad[:15], grad.reshape(4, 4), list(grad)):
        with pytest.raises(ContractError, match="16 gradients"):
            TR.sgd_step(p, bad, 0.1, 2e-4)
    assert p.tobytes() == before
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="updated parameters"):
        TR.sgd_step(p, np.full(16, 1e308), 10.0, 2e-4)


@pytest.mark.parametrize("config, field, value", [
    (TR.LossConfig, "lambda_kd", -1.0),
    (TR.LossConfig, "kd_temperature", 0.0),
    (TR.LossConfig, "ce_temperature", -1.0),
    (TR.OptimConfig, "lr", -0.01),
    (TR.OptimConfig, "epochs", 0),
    (TR.OptimConfig, "batch_new", 0),
    (TR.OptimConfig, "batch_replay", 0),
])
def test_loss_and_optim_configs_reject_out_of_range_fields(config, field, value):
    """Direct callers, which skip ``config.SCHEMA``, get a ``ConfigError``
    too, not a ``range`` ``ValueError`` or a ``ZeroDivisionError`` later."""
    with pytest.raises(ConfigError):
        config(**{field: value})


def test_nan_in_any_gradient_block_raises():
    state, stream, rng = small_world(seed=26)
    state = M.begin_task(state, stream.class_groups[1], rng)
    x = stream.train[1].x[:8]
    grad = TR.loss_and_grads(state, x, [0, 1] * 4, TR.LossConfig(), kd_batch(state, x))[2]
    n = len(state.extractor.weights)
    # a weight, a bias, w_old and w_new
    for block in (1, n + 1, 2 * n, 2 * n + 1):
        bad = grad.copy()
        M.param_views(state, bad)[block].ravel()[-1] = np.nan
        with pytest.raises(NumericError, match="updated parameters"):
            TR.sgd_step(flat(M.trainable_params(state)), bad, 0.1, 2e-4)
    TR.sgd_step(flat(M.trainable_params(state)), grad, 0.1, 2e-4)


def test_run_task_is_deterministic():
    def one_run():
        state, stream, _ = small_world(seed=8)
        stats = TR.compute_class_stats(state.extractor, stream.train[0])
        protos = {c: mu for c, (mu, _) in stats.items()}
        state = M.begin_task(state, stream.class_groups[1], np.random.default_rng(9))
        bank, centers = replay_inputs(state, stream.train[1], protos, 8, 10)
        out, _ = TR.run_task(
            state, stream.train[1], bank, centers, noise_r=0.3,
            loss_cfg=TR.LossConfig(), optim_cfg=TR.OptimConfig(lr=0.02, epochs=2, batch_new=16),
            attack_cfg=R.AttackConfig(alpha=1.0, n_attack=2), rng=np.random.default_rng(11))
        return M.checksum(out.extractor, out.head)

    assert one_run() == one_run()


def test_run_task_builds_the_pinned_bank_from_the_distance_replay(monkeypatch):
    """The task's replay bank, pinned from the per-row replay that the
    batched ``apply_policy`` calls replaced: candidate sampling replays the
    task rows once per old class for the distances and gathers the bank
    from those rows, and training replays nothing."""
    state, stream, _ = small_world(seed=8)
    stats = TR.compute_class_stats(state.extractor, stream.train[0])
    protos = {c: mu for c, (mu, _) in stats.items()}
    state = M.begin_task(state, stream.class_groups[1], np.random.default_rng(9))
    replays = []

    def spy(x, policies):
        replays.append(replay(x, policies))
        return replays[-1]

    replay = D.apply_policy
    monkeypatch.setattr(D, "apply_policy", spy)
    bank, centers = replay_inputs(state, stream.train[1], protos, 8, 10)
    TR.run_task(state, stream.train[1], bank, centers, noise_r=0.3, loss_cfg=TR.LossConfig(),
                optim_cfg=TR.OptimConfig(lr=0.02, epochs=1, batch_new=16),
                attack_cfg=R.AttackConfig(alpha=1.0, n_attack=2), rng=np.random.default_rng(11))
    assert len(replays) == len(protos)
    for rows, replayed in zip(bank, replays):
        assert all((row == replayed).all(axis=1).any() for row in rows)
    assert bank.shape == (2, 8, 6)
    assert hashlib.sha256(bank.tobytes()).hexdigest() == (
        "875c3e463750169d23d53d935a6b22e2de7369590b88205ca9b51acb8e861597")


@pytest.mark.parametrize("stage", ["train_initial", "run_task"])
def test_a_label_outside_the_heads_new_classes_is_named(stage):
    """A dataset label the head does not hold as a new class is a
    ``ContractError`` naming the stray labels and the head's new classes."""
    state, stream, rng = small_world(seed=12)
    data, fit = stream.train[0], TR.train_initial
    if stage == "run_task":
        state = M.begin_task(state, stream.class_groups[1], rng)
        data = stream.train[1]

        def fit(state, data, loss_cfg, optim_cfg, rng):
            return TR.run_task(state, data, None, None, 0.0, loss_cfg, optim_cfg, None, rng)
    stray = D.LabeledSet(data.x, (99,) + data.y[1:], "train")
    named = re.escape(f"task labels [99] are not among the head's new classes "
                      f"{list(state.head.new_ids)}")
    with pytest.raises(ContractError, match=f"^{named}$"):
        fit(state, stray, TR.LossConfig(lambda_kd=0.0), TR.OptimConfig(epochs=1), rng)


def test_run_task_requires_snapshot_and_candidates():
    state, stream, rng = small_world(seed=12)
    with pytest.raises(ContractError):
        TR.run_task(state, stream.train[1], None, None, 0.0, TR.LossConfig(),
                    TR.OptimConfig(epochs=1), None, rng)
    state = M.begin_task(state, stream.class_groups[1], rng)
    old = state.head.old_ids
    named = re.escape(f"a center for each old class {list(old)}, got a ")
    bank, centers = np.zeros((len(old), 1, 6)), np.zeros((len(old), 4))
    # a class's bank rows, a class's center, or the centers missing
    for replay in ((bank[:1], centers), (bank, centers[:1]), (bank, None)):
        with pytest.raises(ContractError, match=named):
            TR.run_task(state, stream.train[1], *replay, 0.0, TR.LossConfig(),
                        TR.OptimConfig(epochs=1), None, rng)


def test_split_gradients_do_not_leak_across_head_blocks():
    state, stream, rng = small_world(seed=13)
    state = M.begin_task(state, stream.class_groups[1], rng)
    x = Tensor(stream.train[1].x[:8])
    rel = np.zeros(8, dtype=int)
    state = M.with_params(state, [Tensor(p) for p in M.trainable_params(state)])
    w_old, w_new = state.head.w_old, state.head.w_new

    feats = M.extract(state.extractor, x)
    ce = TR.local_ce_loss(M.logits(state.head, feats, "new_only"), rel)
    _, grads = T.value_and_grad(ce, [w_old, w_new])
    assert np.array_equal(grads[w_old].data, np.zeros_like(w_old.data))
    assert np.any(grads[w_new].data != 0.0)

    prev = M.logits(state.frozen[1], M.extract(state.frozen[0], x), "all")
    feats = M.extract(state.extractor, x)
    kd = TR.local_kd_loss(M.logits(state.head, feats, "old_only"), Tensor(prev.data))
    _, grads = T.value_and_grad(kd, [w_old, w_new])
    assert np.array_equal(grads[w_new].data, np.zeros_like(w_new.data))


def test_combined_loss_gradient_matches_fd():
    state, stream, _ = small_world(seed=14, n_classes=4, input_dim=4, d=3)
    rng = np.random.default_rng(15)
    state = M.begin_task(state, stream.class_groups[1], rng)
    x_new = stream.train[1].x[:6]
    rel = np.array([0, 1, 0, 1, 0, 1])
    x_kd = np.concatenate([x_new, stream.train[0].x[:4]])
    frozen_ext, frozen_head = state.frozen
    prev_old = M.logits(frozen_head, M.extract(frozen_ext, Tensor(x_kd)), "all").data
    cfg = TR.LossConfig(lambda_kd=10.0, kd_temperature=2.0)

    def loss_for(st):
        feats_new = M.extract(st.extractor, Tensor(x_new))
        ce = TR.local_ce_loss(M.logits(st.head, feats_new, "new_only"), rel,
                              cfg.ce_temperature)
        cur_old = M.logits(st.head, M.extract(st.extractor, Tensor(x_kd)), "old_only")
        kd = TR.local_kd_loss(cur_old, Tensor(prev_old), cfg.kd_temperature)
        return T.add(ce, T.mul(kd, cfg.lambda_kd))

    values = M.trainable_params(state)
    params = [Tensor(p) for p in values]
    _, grads = T.value_and_grad(loss_for(M.with_params(state, params)), params)

    step = 1e-5
    for pi, param in enumerate(params):
        ad = grads[param].data
        fd = np.zeros_like(param.data)
        for i in range(param.data.size):
            for sign, slot in ((+1, 0), (-1, 1)):
                arr = param.data.copy()
                arr.ravel()[i] += sign * step
                mutated = M.with_params(state, values[:pi] + [arr] + values[pi + 1:])
                if slot == 0:
                    up = float(loss_for(mutated).data)
                else:
                    down = float(loss_for(mutated).data)
            fd.ravel()[i] = (up - down) / (2 * step)
        err = np.max(np.abs(ad - fd)) / max(np.max(np.abs(fd)), 1e-6)
        assert err <= 1e-4, f"param {pi}: rel err {err:.2e}"


@pytest.mark.parametrize("seed", range(19, 29))
def test_distillation_preserves_old_logit_behavior(seed):
    """The KD term's direct object: on the rows it distils (the new task's
    training rows), the old-class logits must track the frozen model more
    closely than under plain fine-tuning, at every ``run_task`` seed."""

    def old_logit_gap(lambda_kd, with_replay):
        state, stream, _ = small_world(seed=16, n_classes=6, input_dim=8, d=6)
        stats = TR.compute_class_stats(state.extractor, stream.train[0])
        protos = {c: mu for c, (mu, _) in stats.items()}
        covs = {c: cov for c, (_, cov) in stats.items()}
        state = M.begin_task(state, stream.class_groups[1], np.random.default_rng(17))
        bank = centers = None
        if with_replay:
            bank, centers = replay_inputs(state, stream.train[1], protos, 10, 18)
        r = R.noise_magnitude(covs, 6)
        state, _ = TR.run_task(
            state, stream.train[1], bank, centers, noise_r=r,
            loss_cfg=TR.LossConfig(lambda_kd=lambda_kd),
            optim_cfg=TR.OptimConfig(lr=0.05, epochs=10, batch_new=16),
            attack_cfg=R.AttackConfig(alpha=2.0, n_attack=2), rng=np.random.default_rng(seed))

        x1 = stream.train[1].x
        cur = M.logits(state.head, M.extract(state.extractor, x1), "old_only").data
        prev = M.logits(state.frozen[1], M.extract(state.frozen[0], x1), "all").data
        return float(np.mean(np.abs(cur - prev)))

    gap_kd = old_logit_gap(10.0, True)
    gap_finetune = old_logit_gap(0.0, False)
    assert gap_kd < gap_finetune, f"KD gap {gap_kd} vs fine-tune gap {gap_finetune}"


def test_replay_rows_follow_round_robin_order(monkeypatch):
    """Pins which bank row and target each replay slot gets.

    Three old classes, k=4, 5 replay rows per step and 4 steps per epoch
    over 2 epochs: each class is drawn more than k times per epoch (the
    within-class order wraps), 20 draws per epoch is not a multiple of 3
    (the class cursor carries into the next epoch), and the within-class
    orders are reshuffled at each epoch start.
    """
    state, stream, _ = small_world(seed=21, n_classes=6, input_dim=6, d=4)
    state = M.begin_task(state, stream.class_groups[1], np.random.default_rng(22))
    x = stream.train[1].x
    old = state.head.old_ids
    indices = {cid: tuple(range(4 * j, 4 * j + 4)) for j, cid in enumerate(old)}
    bank = x[[indices[cid] for cid in old]]
    protos = {cid: np.full(4, float(cid)) for cid in old}
    seen = []

    def record(f_old, rows, targets, cfg, r=0.0, rng=None):
        for row, target in zip(rows, targets):
            cid = int(target[0])
            np.testing.assert_array_equal(target, protos[cid])
            sample = int(np.flatnonzero((x == row).all(axis=1))[0])
            seen.append((cid, indices[cid].index(sample)))
        return rows

    monkeypatch.setattr(R, "adversarial_attack", record)
    on_cpus(monkeypatch, 1)  # inline: a helper would record in its own memory
    TR.run_task(state, stream.train[1], bank, np.array([protos[cid] for cid in old]), 0.0,
                TR.LossConfig(), TR.OptimConfig(lr=0.01, epochs=2, batch_new=24, batch_replay=5),
                R.AttackConfig(alpha=1.0, n_attack=1), np.random.default_rng(23))
    # (class, slot) per replay row, from the task's rng: the noise key, then
    # per epoch one permutation of k = 4 slots per old class and the batch
    # permutation; row j of the task replays class j mod 3 at that class's
    # next slot of the epoch, wrapping after k
    rng, want = np.random.default_rng(23), []
    rng.integers(2**63)
    for _ in range(2):
        orders = [rng.permutation(4) for _ in old]
        rng.permutation(len(x))
        used = [0] * len(old)
        for j in range(len(want), len(want) + 4 * 5):
            c = j % len(old)
            want.append((old[c], int(orders[c][used[c] % 4])))
            used[c] += 1
    assert len(x) == 90 and old == (0, 1, 4)  # 4 steps of 5 replay rows per epoch
    assert seen == want


# -- the replay helper ---------------------------------------------------------------


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the replay helper is forked")


def on_cpus(monkeypatch, n):
    """Make this process look as if it may run on ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def attacked_setup():
    """A trained task-0 model at task 1, its task data, replay bank and centers."""
    state, stream, _ = small_world(seed=8)
    stats = TR.compute_class_stats(state.extractor, stream.train[0])
    protos = {c: mu for c, (mu, _) in stats.items()}
    state = M.begin_task(state, stream.class_groups[1], np.random.default_rng(9))
    return (state, stream.train[1], *replay_inputs(state, stream.train[1], protos, 8, 10))


ATTACKED_ATTACK = R.AttackConfig(alpha=1.0, n_attack=2)


def attacked_optim(epochs=3, batch_replay=32):
    """60 task rows in batches of 16: 4 steps per epoch."""
    return TR.OptimConfig(lr=0.02, epochs=epochs, batch_new=16, batch_replay=batch_replay)


def attacked_task(noise_r=0.3, setup=None, epochs=3, batch_replay=32):
    """``run_task`` on a seeded attacked task (``attacked_setup``): the returned
    state's checksum, the epoch rows and the caller's rng's next draw."""
    state, data, bank, centers = setup or attacked_setup()
    rng = np.random.default_rng(11)
    out, rows = TR.run_task(
        state, data, bank, centers, noise_r=noise_r, loss_cfg=TR.LossConfig(),
        optim_cfg=attacked_optim(epochs, batch_replay), attack_cfg=ATTACKED_ATTACK, rng=rng)
    return M.checksum(out.extractor, out.head), rows, rng.random()


def log_pid(path):
    with path.open("a") as fh:
        fh.write(f"{os.getpid()}\n")


def wait_for_pids(path, ready, timeout=10.0):
    """Wait until ``ready`` holds for the set of pids logged in ``path``."""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if path.exists() and ready(set(path.read_text().split())):
            return
        time.sleep(0.001)


def train_after_helper_attacks(monkeypatch, pids):
    """Hold this process's training steps until the helper has begun an
    attack, so that the helper attacks at least one step of a small task.
    Install it after ``attacked_setup``, whose initial training has no helper."""
    me, step = str(os.getpid()), TR.loss_and_grads

    def waiting(*args, **kwargs):
        wait_for_pids(pids, lambda seen: seen - {me})
        return step(*args, **kwargs)

    monkeypatch.setattr(TR, "loss_and_grads", waiting)


def attacks_shared(monkeypatch, pids):
    """On two CPUs from now on, make both this process and the helper attack
    at least one group of a task of two or more groups, logging their pids
    to ``pids`` and the row count of each call to ``pids.rows``.  Install
    it after ``attacked_setup``."""
    me, attack = str(os.getpid()), R.adversarial_attack

    def shared(f_old, x, *args, **kwargs):
        if str(os.getpid()) != me:  # the helper lets this process attack first
            wait_for_pids(pids, lambda seen: me in seen)
        log_pid(pids)
        with pids.with_suffix(".rows").open("a") as fh:
            fh.write(f"{len(x)}\n")
        return attack(f_old, x, *args, **kwargs)

    monkeypatch.setattr(R, "adversarial_attack", shared)
    train_after_helper_attacks(monkeypatch, pids)
    on_cpus(monkeypatch, 2)


@needs_fork
@pytest.mark.parametrize("noise_r", [0.3, 0.0])  # with target noise, and without
def test_helper_and_inline_schedules_give_the_same_bytes(monkeypatch, tmp_path, noise_r):
    setup = attacked_setup()
    on_cpus(monkeypatch, 1)
    inline = attacked_task(noise_r, setup)
    attacks_shared(monkeypatch, tmp_path / "pids")
    helped = attacked_task(noise_r, setup)
    assert len(set((tmp_path / "pids").read_text().split())) == 2  # both processes attacked
    assert helped == inline


def test_no_helper_without_openblas(monkeypatch, tmp_path):
    """Only OpenBLAS is known to stop its threads around a fork: under any
    other BLAS the task runs inline, with the same bytes."""
    setup = attacked_setup()
    on_cpus(monkeypatch, 1)
    inline = attacked_task(setup=setup)

    pids, attack = tmp_path / "pids", R.adversarial_attack

    def logged(*args, **kwargs):
        log_pid(pids)
        return attack(*args, **kwargs)

    monkeypatch.setattr(R, "adversarial_attack", logged)
    monkeypatch.setattr(blas, "lookup", lambda: None)
    on_cpus(monkeypatch, 2)
    assert attacked_task(setup=setup) == inline
    assert set(pids.read_text().split()) == {str(os.getpid())}


@needs_fork
def test_racing_claims_lose_no_step():
    """80 short steps in groups of one step, most of them claimed while the
    other process claims too: a group attacked twice or by neither would
    shift the helper's rows onto the wrong steps or stall the task."""
    setup = attacked_setup()
    with pytest.MonkeyPatch.context() as mp:
        on_cpus(mp, 1)
        inline = attacked_task(setup=setup, epochs=20, batch_replay=TR.ROWS)
    with pytest.MonkeyPatch.context() as mp:
        on_cpus(mp, 2)
        for _ in range(3):
            assert attacked_task(setup=setup, epochs=20, batch_replay=TR.ROWS) == inline


@pytest.mark.parametrize("cpus", [1, 2])
def test_attack_target_error_is_the_same_with_a_helper(monkeypatch, cpus):
    on_cpus(monkeypatch, cpus)
    with np.errstate(over="ignore"), \
            pytest.raises(NumericError, match="^non-finite attack targets$"):
        attacked_task(noise_r=1e308)


@needs_fork
def test_helper_error_is_raised_with_its_type_and_message(monkeypatch, tmp_path):
    pids, me = tmp_path / "pids", os.getpid()
    attack = R.adversarial_attack

    def failing(*args, **kwargs):
        if os.getpid() != me:
            log_pid(pids)
            raise NumericError("non-finite squared distance in attack")
        return attack(*args, **kwargs)

    setup = attacked_setup()
    monkeypatch.setattr(R, "adversarial_attack", failing)
    train_after_helper_attacks(monkeypatch, pids)
    on_cpus(monkeypatch, 2)
    with pytest.raises(NumericError, match="^non-finite squared distance in attack$"):
        attacked_task(setup=setup)


@needs_fork
def test_parent_error_leaves_no_live_helper(monkeypatch):
    setup = attacked_setup()
    calls = []
    step = TR.loss_and_grads

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise ZeroDivisionError("third step")
        return step(*args, **kwargs)

    monkeypatch.setattr(TR, "loss_and_grads", failing)
    on_cpus(monkeypatch, 2)
    with pytest.raises(ZeroDivisionError, match="third step"):
        attacked_task(setup=setup)
    assert multiprocessing.active_children() == []


@needs_fork
def test_helper_that_dies_mid_stream_is_an_engine_error(monkeypatch, tmp_path):
    pids, me = tmp_path / "pids", os.getpid()
    attack = R.adversarial_attack

    def dying(*args, **kwargs):
        if os.getpid() != me:
            log_pid(pids)
            os._exit(3)
        return attack(*args, **kwargs)

    setup = attacked_setup()
    monkeypatch.setattr(R, "adversarial_attack", dying)
    train_after_helper_attacks(monkeypatch, pids)
    on_cpus(monkeypatch, 2)
    with pytest.raises(EngineError, match="replay helper exited with code 3"):
        attacked_task(setup=setup)


# -- the replay groups ----------------------------------------------------------------


def fit_receives(monkeypatch):
    """A list that records every ``(epoch, batch, replay rows)`` step that
    ``_fit`` trains on from now on, as it takes it."""
    seen, fit = [], TR._fit

    def spy(state, task_data, steps, *args):
        def recorded():
            with closing(steps):
                for step in steps:
                    seen.append(step)
                    yield step

        return fit(state, task_data, recorded(), *args)

    monkeypatch.setattr(TR, "_fit", spy)
    return seen


def grouped_oracle(setup, optim, noise_r):
    """Per step of ``attacked_task``'s schedule, its epoch, batch and replay
    rows as the group contract makes them: ``R.adversarial_attack`` over
    each group's stacked bank rows and targets, with ``noise_r`` times
    standard normal draws from the group's stream ``[key, group index]``,
    split back per step; and the steps per group."""
    state, data, bank, centers = setup
    rng = np.random.default_rng(11)
    key = int(rng.integers(2**63))
    steps = list(TR.task_schedule(len(data), optim, rng, bank.shape[:2]))
    size = max(1, TR.ROWS // optim.batch_replay)
    groups = [steps[start:start + size] for start in range(0, len(steps), size)]
    rows = []
    for index, group in enumerate(groups):
        x = np.concatenate([bank[cls, slots] for _, _, cls, slots in group])
        targets = np.concatenate([centers[cls] for _, _, cls, _ in group])
        noise = None if noise_r == 0.0 else (np.random.default_rng([key, index]), noise_r)
        attacked = R.adversarial_attack(state.frozen[0], x, targets, ATTACKED_ATTACK, noise)
        rows += np.split(attacked, len(group))
    want = [(epoch, batch, r) for (epoch, batch, *_), r in zip(steps, rows)]
    return want, [[epoch for epoch, *_ in group] for group in groups]


def assert_same_steps(got, want):
    assert len(got) == len(want)
    for (epoch, batch, rows), (want_epoch, want_batch, want_rows) in zip(got, want):
        assert epoch == want_epoch
        assert batch.tobytes() == want_batch.tobytes()
        assert rows.shape == want_rows.shape
        assert rows.tobytes() == want_rows.tobytes()


# 12 steps over 3 epochs of 4: groups of 256 // 32 = 8 steps, the first
# spanning an epoch boundary, the last partial; groups of 5; and
# batch_replay >= ROWS, one step per group
@pytest.mark.parametrize("batch_replay,spans,partial", [
    (32, True, True), (48, True, True), (TR.ROWS, False, False), (TR.ROWS + 40, False, False)])
@pytest.mark.parametrize("noise_r", [0.3, 0.0])
def test_fit_receives_the_rows_of_each_group_attacked_in_one_call(monkeypatch, batch_replay,
                                                                    spans, partial, noise_r):
    setup = attacked_setup()
    want, epochs = grouped_oracle(setup, attacked_optim(batch_replay=batch_replay), noise_r)
    size = max(1, TR.ROWS // batch_replay)
    assert (size == 1) == (batch_replay >= TR.ROWS)
    assert any(len(set(group)) > 1 for group in epochs) == spans
    assert (len(epochs[-1]) < size) == partial
    assert sum(map(len, epochs)) == 12

    calls, attack = [], R.adversarial_attack

    def counted(f_old, x, *args):
        calls.append(len(x))
        return attack(f_old, x, *args)

    monkeypatch.setattr(R, "adversarial_attack", counted)
    on_cpus(monkeypatch, 1)
    seen = fit_receives(monkeypatch)
    attacked_task(noise_r, setup, batch_replay=batch_replay)
    assert calls == [len(group) * batch_replay for group in epochs]
    assert_same_steps(seen, want)


def test_target_noise_moves_no_batch_or_bank_row(monkeypatch):
    """With target noise and without, a task trains on the same batches and
    attacks the same bank rows toward the same centers: a group's noise
    comes from its own stream, not from the schedule's."""
    setup = attacked_setup()
    on_cpus(monkeypatch, 1)
    attack, runs = R.adversarial_attack, {}
    for noise_r in (0.3, 0.0):
        calls = []

        def spy(f_old, x, targets, cfg, noise=None):
            calls.append((x.tobytes(), targets.tobytes(), noise is not None))
            return attack(f_old, x, targets, cfg, noise)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(R, "adversarial_attack", spy)
            seen = fit_receives(mp)
            attacked_task(noise_r, setup)
        runs[noise_r] = calls, [(epoch, batch.tobytes()) for epoch, batch, _ in seen]
    (noisy, noisy_batches), (plain, plain_batches) = runs[0.3], runs[0.0]
    assert [noise for *_, noise in noisy] == [True] * 2
    assert [noise for *_, noise in plain] == [False] * 2
    assert [call[:2] for call in noisy] == [call[:2] for call in plain]
    assert noisy_batches == plain_batches and len(plain_batches) == 12


@needs_fork
def test_forked_groups_equal_the_inline_ones(monkeypatch, tmp_path):
    """With the helper attacking at least one of the three groups of 4
    steps, ``_fit`` receives the oracle's rows, as it does inline."""
    setup = attacked_setup()
    want, epochs = grouped_oracle(setup, attacked_optim(batch_replay=64), 0.3)
    assert [len(group) for group in epochs] == [4, 4, 4]

    attacks_shared(monkeypatch, tmp_path / "pids")
    seen = fit_receives(monkeypatch)
    attacked_task(0.3, setup, batch_replay=64)
    assert len(set((tmp_path / "pids").read_text().split())) == 2  # both processes attacked
    assert (tmp_path / "pids.rows").read_text().split() == ["256"] * 3
    assert_same_steps(seen, want)

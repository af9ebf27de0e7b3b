import numpy as np
import pytest

from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
from advreplay import tensor as T
from advreplay import train as TR
from advreplay.errors import ContractError, StatsError
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
                             [Tensor(np.eye(dim))], [Tensor(np.zeros(dim))])


def test_class_stats_hand_covariance():
    ds = D.LabeledSet(Tensor([[0.0, 0.0], [2.0, 0.0]]), (5, 5), "train")
    stats = TR.compute_class_stats(identity_extractor(2), ds)
    mu, cov = stats[5]
    np.testing.assert_array_equal(mu, [1.0, 0.0])
    np.testing.assert_array_equal(cov, [[2.0, 0.0], [0.0, 0.0]])


def test_class_stats_degenerate_zero_covariance():
    ds = D.LabeledSet(Tensor(np.ones((4, 3))), (1, 1, 1, 1), "train")
    _, cov = TR.compute_class_stats(identity_extractor(3), ds)[1]
    np.testing.assert_array_equal(cov, np.zeros((3, 3)))


def test_class_stats_symmetric_psd():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 6))
    ds = D.LabeledSet(Tensor(x), tuple([0] * 20 + [1] * 20), "train")
    for mu, cov in TR.compute_class_stats(identity_extractor(6), ds).values():
        assert np.max(np.abs(cov - cov.T)) <= 1e-12
        assert np.linalg.eigvalsh(cov).min() >= -1e-10


def test_class_stats_needs_two_samples():
    ds = D.LabeledSet(Tensor([[1.0, 2.0]]), (0,), "train")
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


def test_zero_learning_rate_keeps_params_bitwise():
    state, stream, rng = small_world()
    stats = TR.compute_class_stats(state.extractor, stream.train[0])
    protos = {c: mu for c, (mu, _) in stats.items()}
    state = M.begin_task(state, stream.class_groups[1], rng)
    before = M.checksum(state.extractor, state.head)
    cands = R.build_candidate_set(state.frozen[0], stream.train[1], protos, k=8,
                                  rng=np.random.default_rng(3),
                                  family=D.AugFamily(input_dim=6))
    out, epochs = TR.run_task(
        state, stream.train[1], cands, protos, noise_r=0.5,
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
    x = stream.train[1].x.data
    rng2 = np.random.default_rng(7)
    for epoch in range(optim.epochs):
        lr = TR.cosine_lr(optim.lr, epoch, optim.epochs)
        order = rng2.permutation(len(x))
        for start in range(0, len(x), optim.batch_new):
            batch = order[start: start + optim.batch_new]
            feats = M.extract(mirror.extractor, Tensor(x[batch]))
            ce = TR.local_ce_loss(M.logits(mirror.head, feats, "new_only"), y_rel[batch])
            params = M.trainable_params(mirror)
            _, grads = T.value_and_grad(ce, params)
            mirror = TR.sgd_step(mirror, [grads[p].data for p in params], lr,
                                 optim.weight_decay)

    assert M.checksum(got.extractor, got.head) == M.checksum(mirror.extractor, mirror.head)


def test_run_task_is_deterministic():
    def one_run():
        state, stream, _ = small_world(seed=8)
        stats = TR.compute_class_stats(state.extractor, stream.train[0])
        protos = {c: mu for c, (mu, _) in stats.items()}
        state = M.begin_task(state, stream.class_groups[1], np.random.default_rng(9))
        cands = R.build_candidate_set(state.frozen[0], stream.train[1], protos, k=8,
                                      rng=np.random.default_rng(10),
                                      family=D.AugFamily(input_dim=6))
        out, _ = TR.run_task(
            state, stream.train[1], cands, protos, noise_r=0.3,
            loss_cfg=TR.LossConfig(), optim_cfg=TR.OptimConfig(lr=0.02, epochs=2, batch_new=16),
            attack_cfg=R.AttackConfig(alpha=1.0, n_attack=2), rng=np.random.default_rng(11))
        return M.checksum(out.extractor, out.head)

    assert one_run() == one_run()


def test_run_task_requires_snapshot_and_candidates():
    state, stream, rng = small_world(seed=12)
    with pytest.raises(ContractError):
        TR.run_task(state, stream.train[1], None, None, 0.0, TR.LossConfig(),
                    TR.OptimConfig(epochs=1), None, rng)
    state = M.begin_task(state, stream.class_groups[1], rng)
    partial = R.CandidateSet(1, {state.head.old_ids[0]: (0,)},
                             {state.head.old_ids[0]: (D.AugPolicy(),)})
    with pytest.raises(ContractError, match="missing"):
        TR.run_task(state, stream.train[1], partial, {}, 0.0, TR.LossConfig(),
                    TR.OptimConfig(epochs=1), None, rng)


def test_split_gradients_do_not_leak_across_head_blocks():
    state, stream, rng = small_world(seed=13)
    state = M.begin_task(state, stream.class_groups[1], rng)
    x = Tensor(stream.train[1].x.data[:8])
    rel = np.zeros(8, dtype=int)

    feats = M.extract(state.extractor, x)
    ce = TR.local_ce_loss(M.logits(state.head, feats, "new_only"), rel)
    _, grads = T.value_and_grad(ce, [state.head.w_old, state.head.w_new])
    assert np.array_equal(grads[state.head.w_old].data,
                          np.zeros_like(state.head.w_old.data))
    assert np.any(grads[state.head.w_new].data != 0.0)

    prev = M.logits(state.frozen[1], M.extract(state.frozen[0], x), "all")
    feats = M.extract(state.extractor, x)
    kd = TR.local_kd_loss(M.logits(state.head, feats, "old_only"), Tensor(prev.data))
    _, grads = T.value_and_grad(kd, [state.head.w_old, state.head.w_new])
    assert np.array_equal(grads[state.head.w_new].data,
                          np.zeros_like(state.head.w_new.data))


def test_combined_loss_gradient_matches_fd():
    state, stream, _ = small_world(seed=14, n_classes=4, input_dim=4, d=3)
    rng = np.random.default_rng(15)
    state = M.begin_task(state, stream.class_groups[1], rng)
    x_new = stream.train[1].x.data[:6]
    rel = np.array([0, 1, 0, 1, 0, 1])
    x_kd = np.concatenate([x_new, stream.train[0].x.data[:4]])
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

    params = M.trainable_params(state)
    _, grads = T.value_and_grad(loss_for(state), params)

    step = 1e-5
    for pi, param in enumerate(params):
        ad = grads[param].data
        fd = np.zeros_like(param.data)
        for i in range(param.data.size):
            for sign, slot in ((+1, 0), (-1, 1)):
                arr = param.data.copy()
                arr.ravel()[i] += sign * step
                mutated = M.replace_params(state, {param: Tensor(arr)})
                if slot == 0:
                    up = float(loss_for(mutated).data)
                else:
                    down = float(loss_for(mutated).data)
            fd.ravel()[i] = (up - down) / (2 * step)
        err = np.max(np.abs(ad - fd)) / max(np.max(np.abs(fd)), 1e-6)
        assert err <= 1e-4, f"param {pi}: rel err {err:.2e}"


def test_distillation_preserves_old_logit_behavior():
    """The KD term's direct object: old-class logits on old-task data must
    track the frozen model more closely than under plain fine-tuning."""

    def old_logit_gap(lambda_kd, with_replay):
        state, stream, _ = small_world(seed=16, n_classes=6, input_dim=8, d=6)
        stats = TR.compute_class_stats(state.extractor, stream.train[0])
        protos = {c: mu for c, (mu, _) in stats.items()}
        covs = {c: cov for c, (_, cov) in stats.items()}
        state = M.begin_task(state, stream.class_groups[1], np.random.default_rng(17))
        cands = None
        if with_replay:
            cands = R.build_candidate_set(state.frozen[0], stream.train[1], protos,
                                          k=10, rng=np.random.default_rng(18),
                                          family=D.AugFamily(input_dim=8))
        r = R.noise_magnitude(covs, 6)
        state, _ = TR.run_task(
            state, stream.train[1], cands, protos, noise_r=r,
            loss_cfg=TR.LossConfig(lambda_kd=lambda_kd),
            optim_cfg=TR.OptimConfig(lr=0.05, epochs=10, batch_new=16),
            attack_cfg=R.AttackConfig(alpha=2.0, n_attack=2), rng=np.random.default_rng(19))

        x0 = stream.test[0].x
        cur = M.logits(state.head, M.extract(state.extractor, x0), "old_only").data
        prev = M.logits(state.frozen[1], M.extract(state.frozen[0], x0), "all").data
        return float(np.mean(np.abs(cur - prev)))

    gap_kd = old_logit_gap(10.0, True)
    gap_finetune = old_logit_gap(0.0, False)
    assert gap_kd < gap_finetune, f"KD gap {gap_kd} vs fine-tune gap {gap_finetune}"

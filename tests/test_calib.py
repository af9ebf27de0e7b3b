import json
import pickle
import re

import numpy as np
import pytest

from advreplay import calib as C
from advreplay import classify as CL
from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
from advreplay import train as TR
from advreplay.errors import ConfigError, ContractError, DecodeError, NumericError


def identity_extractor(dim):
    return M.ExtractorParams((dim, dim), ("identity",),
                             [np.eye(dim)], [np.zeros(dim)])


def random_spd(rng, d, scale=1.0):
    a = rng.normal(size=(d, d))
    return a @ a.T + scale * np.eye(d)


# -- drift samples ---------------------------------------------------------------


def test_drift_sample_at_prototype_unperturbed():
    f = identity_extractor(3)
    mu = np.array([1.0, 2.0, 3.0])
    data = D.LabeledSet(np.stack([mu, mu + 5.0]), (0, 0), "train")
    out = C.generate_drift_samples(f, data, {0: mu}, R.AttackConfig(6.32, 3), 1)
    np.testing.assert_array_equal(out[0], mu[None, :])


def test_drift_samples_move_toward_prototype():
    rng = np.random.default_rng(0)
    f = identity_extractor(4)
    x = rng.normal(size=(30, 4)) + 4.0
    mu = np.zeros(4)
    data = D.LabeledSet(x, tuple([0] * 30), "train")
    out = C.generate_drift_samples(f, data, {0: mu}, R.AttackConfig(2.0, 4), 10)[0]
    pre = np.linalg.norm(np.sort(np.linalg.norm(x, axis=1))[:10])
    post = np.linalg.norm(out, axis=1).mean()
    assert post < np.mean(np.sort(np.linalg.norm(x, axis=1))[:10])
    assert pre > 0


def test_drift_samples_per_prototype_are_its_attacked_nearest_rows():
    rng = np.random.default_rng(2)
    f = M.ExtractorParams((4, 3), ("tanh",), [rng.normal(size=(4, 3))], [np.zeros(3)])
    data = D.LabeledSet(rng.normal(size=(25, 4)), tuple([0] * 25), "train")
    protos = {5: rng.normal(size=3), 2: rng.normal(size=3), 9: np.zeros(3)}
    out = C.generate_drift_samples(f, data, protos, R.AttackConfig(0.5, 2), 7)
    assert list(out) == [5, 2, 9]
    feats = M.features(f, data.x)
    attack = R.AttackConfig(alpha=0.5, n_attack=2)
    for cid, mu in protos.items():
        nearest = np.argsort(np.linalg.norm(feats - mu, axis=1), kind="stable")[:7]
        want = R.adversarial_attack(f, data.x[nearest], np.tile(mu, (7, 1)), attack)
        np.testing.assert_array_equal(out[cid], want)


def test_drift_sampling_needs_a_candidate():
    data = D.LabeledSet(np.ones((3, 2)), (0, 0, 0), "train")
    with pytest.raises(ConfigError, match="adc.candidates must be >= 1"):
        C.generate_drift_samples(identity_extractor(2), data, {0: np.ones(2)},
                                 R.AttackConfig(1.0, 1), 0)


def test_drift_sampling_warns_when_short():
    f = identity_extractor(2)
    data = D.LabeledSet(np.ones((3, 2)), (0, 0, 0), "train")
    with pytest.warns(UserWarning, match="using all"):
        out = C.generate_drift_samples(f, data, {0: np.ones(2)}, R.AttackConfig(6.32, 1), 10)
    assert out[0].shape[0] == 3


# -- transfer matrix --------------------------------------------------------------


def test_transfer_fit_fixed_point():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(50, 6))
    w, delta = C.fit_transfer_matrix(feats, feats, lr=1e-3, epochs=50)
    assert np.linalg.norm(w - np.eye(6)) <= 1e-6
    np.testing.assert_allclose(delta, np.zeros(6), atol=1e-12)


def test_transfer_fit_recovers_linear_map():
    rng = np.random.default_rng(2)
    feats_old = rng.normal(size=(200, 5))
    a = np.eye(5) + 0.3 * rng.normal(size=(5, 5))
    feats_new = feats_old @ a.T
    mse0 = float(np.mean((feats_old - feats_new) ** 2))
    w, _ = C.fit_transfer_matrix(feats_old, feats_new, lr=0.05, epochs=800)
    mse = float(np.mean((feats_old @ w.T - feats_new) ** 2))
    assert mse <= 1e-4 * mse0
    oracle = C.lstsq_transfer_oracle(feats_old, feats_new)
    assert np.linalg.norm(w - oracle) / np.linalg.norm(oracle) < 1e-3


def residual_form_fit(feats_old, feats_new, lr, epochs):
    """The descent written on the (m, d) residual, one product pair per epoch."""
    m, d = feats_old.shape
    w = np.eye(d)
    for _ in range(epochs):
        residual = feats_old @ w.T - feats_new
        w = w - lr * (2.0 / m * residual.T @ feats_old)
    return w


@pytest.mark.parametrize("epochs", [1, 64, 400])
def test_transfer_fit_matches_residual_form(epochs):
    rng = np.random.default_rng(epochs)
    feats_old = rng.normal(size=(100, 32))
    feats_new = feats_old @ (np.eye(32) + 0.1 * rng.normal(size=(32, 32))).T \
        + 0.05 * rng.normal(size=(100, 32))
    lr = min(1e-3, C.stable_transfer_lr(feats_old))
    w, delta = C.fit_transfer_matrix(feats_old, feats_new, lr, epochs)
    np.testing.assert_allclose(w, residual_form_fit(feats_old, feats_new, lr, epochs),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(delta, feats_new.mean(axis=0) - feats_old.mean(axis=0))


def test_transfer_fit_oversized_lr_diverges():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(40, 6)) * 10.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError, match="diverged"):
            C.fit_transfer_matrix(feats, 2.0 * feats, lr=10.0, epochs=400)


def rank_deficient_pair(case):
    """Paired features whose Gram matrix F^T F has zero eigenvalues: fewer
    rows than dimensions, or one feature that is always zero."""
    rng = np.random.default_rng(40)
    m, d = (12, 20) if case == "few-rows" else (60, 16)
    feats_old = rng.normal(size=(m, d))
    if case == "zero-column":
        feats_old[:, 5] = 0.0
    feats_new = feats_old @ (np.eye(d) + 0.2 * rng.normal(size=(d, d))).T \
        + 0.05 * rng.normal(size=(m, d))
    return feats_old, feats_new


@pytest.mark.parametrize("case", ["few-rows", "zero-column"])
@pytest.mark.parametrize("epochs", [1, 64, 400])
def test_transfer_fit_closed_form_on_rank_deficient_features(case, epochs):
    feats_old, feats_new = rank_deficient_pair(case)
    lr = C.stable_transfer_lr(feats_old)
    w, _ = C.fit_transfer_matrix(feats_old, feats_new, lr, epochs)
    np.testing.assert_allclose(w, residual_form_fit(feats_old, feats_new, lr, epochs),
                               rtol=0, atol=1e-12)


def test_transfer_fit_zero_feature_keeps_identity_column():
    # a feature that never varies gets no gradient: its column stays e_j
    feats_old, feats_new = rank_deficient_pair("zero-column")
    w, _ = C.fit_transfer_matrix(feats_old, feats_new, C.stable_transfer_lr(feats_old), 400)
    np.testing.assert_allclose(w[:, 5], np.eye(16)[:, 5], rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["few-rows", "zero-column"])
def test_transfer_fit_oversized_lr_diverges_on_rank_deficient_features(case):
    feats_old, feats_new = rank_deficient_pair(case)
    with pytest.raises(NumericError, match="diverged"):
        C.fit_transfer_matrix(feats_old, feats_new, 100.0 * C.stable_transfer_lr(feats_old), 400)


def test_transfer_fit_default_arguments_follow_reference():
    import inspect

    sig = inspect.signature(C.fit_transfer_matrix)
    assert sig.parameters["lr"].default == pytest.approx(1e-4)
    assert sig.parameters["epochs"].default == 64


def test_transfer_fit_shape_mismatch():
    with pytest.raises(ContractError):
        C.fit_transfer_matrix(np.zeros((3, 2)), np.zeros((4, 2)))


# -- calibration -------------------------------------------------------------------


def entry_with(mu, cov):
    return C.StoreEntry(np.asarray(mu, float), np.asarray(cov, float), None, 0, 0)


def test_calibrate_identity_is_noop():
    entry = entry_with([1.0, 2.0], [[2.0, 0.5], [0.5, 1.0]])
    entry = C.calibrate(entry, np.eye(2), np.zeros(2), task=1)
    np.testing.assert_array_equal(entry.mu, [1.0, 2.0])
    np.testing.assert_allclose(entry.cov, [[2.0, 0.5], [0.5, 1.0]], atol=0)
    assert entry.calibrated_task == 1


def test_calibrate_scaling_law():
    entry = entry_with([1.0, -1.0], [[1.0, 0.2], [0.2, 2.0]])
    entry = C.calibrate(entry, 2.0 * np.eye(2), np.array([0.5, 0.5]), task=1)
    np.testing.assert_allclose(entry.cov, 4.0 * np.array([[1.0, 0.2], [0.2, 2.0]]), atol=1e-12)
    np.testing.assert_array_equal(entry.mu, [1.5, -0.5])


def test_calibrate_matches_triple_product_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        cov = random_spd(rng, 5)
        w = rng.normal(size=(5, 5))
        entry = entry_with(rng.normal(size=5), cov)
        entry = C.calibrate(entry, w, np.zeros(5), task=2)
        expected = w @ cov @ w.T
        expected = 0.5 * (expected + expected.T)
        assert np.max(np.abs(entry.cov - expected)) <= 1e-10
        assert np.max(np.abs(entry.cov - entry.cov.T)) == 0.0
        assert np.linalg.eigvalsh(entry.cov).min() >= -1e-10


def test_calibrate_decomposed_entry_recompresses():
    rng = np.random.default_rng(4)
    cov = random_spd(rng, 6)
    entry = C.StoreEntry(np.zeros(6), None, C.decompose(cov, 3), 0, 0)
    entry = C.calibrate(entry, np.eye(6) * 1.5, np.ones(6), task=3)
    assert entry.rank == 3 and entry.svd[1].shape == (3, 3)
    np.testing.assert_array_equal(entry.cov, C.recompose(*entry.svd))
    np.testing.assert_array_equal(entry.mu, np.ones(6))


def test_calibrate_leaves_input_entry_unchanged():
    rng = np.random.default_rng(5)
    cov = random_spd(rng, 4)
    decomposed = C.StoreEntry(np.ones(4), None, C.decompose(cov, 2), 0, 0)
    for entry in (entry_with(np.ones(4), cov), decomposed):
        before = (entry.mu.copy(), entry.cov.copy(), entry.svd, entry.calibrated_task)
        out = C.calibrate(entry, 2.0 * np.eye(4), np.ones(4), task=1)
        assert out is not entry and out.calibrated_task == 1 and out.rank == entry.rank
        np.testing.assert_array_equal(entry.mu, before[0])
        np.testing.assert_array_equal(entry.cov, before[1])
        assert entry.svd is before[2] and entry.calibrated_task == before[3] == 0


def test_store_entry_arrays_are_read_only():
    rng = np.random.default_rng(6)
    store = C.PrototypeStore()
    store.add(0, rng.normal(size=3), random_spd(rng, 3), task=0)
    store.add(1, rng.normal(size=3), random_spd(rng, 3), task=0, svd_k=2)
    for entry in store.entries.values():
        for arr in (entry.mu, entry.cov, *(entry.svd or ())):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(AttributeError):
            entry.mu = np.zeros(3)


def test_rank_k_entry_holds_only_its_factors_also_unpickled():
    """A rank-k entry keeps mu and its (U, S, V); ``cov`` is formed on each
    access.  A store sent between processes comes back the same way, with
    every array read-only again."""
    rng = np.random.default_rng(16)
    cov = random_spd(rng, 6)
    entries = (C.StoreEntry(np.ones(6), None, C.decompose(cov, 2), 0, 1),
               C.StoreEntry(np.ones(6), cov, None, 0, 1))
    for entry in entries:
        back = pickle.loads(pickle.dumps(entry))
        held = [back.mu, *(back.svd or (back.cov,))]
        assert all(not a.flags.writeable for a in held)
        np.testing.assert_array_equal(back.cov, entry.cov)
        assert (back.rank, back.created_task, back.calibrated_task) == (entry.rank, 0, 1)
    rank_k = pickle.loads(pickle.dumps(entries[0]))
    assert set(vars(rank_k)) == {"mu", "svd", "created_task", "calibrated_task"}
    assert rank_k.cov is not rank_k.cov and not rank_k.cov.flags.writeable
    with pytest.raises(AttributeError):
        rank_k.svd = None


def test_store_add_copies_callers_arrays():
    mu, cov = np.array([1.0, 2.0]), np.array([[2.0, 0.5], [0.5, 1.0]])
    store = C.PrototypeStore()
    store.add(0, mu, cov, task=0)
    mu[0], cov[0, 0] = 99.0, 99.0
    np.testing.assert_array_equal(store.entries[0].mu, [1.0, 2.0])
    np.testing.assert_array_equal(store.entries[0].cov, [[2.0, 0.5], [0.5, 1.0]])


def test_compress_all_rebuilds_every_entry():
    rng = np.random.default_rng(7)
    store = C.PrototypeStore()
    store.add(0, rng.normal(size=5), random_spd(rng, 5), task=0)
    store.add(1, rng.normal(size=5), random_spd(rng, 5), task=1, svd_k=4)
    old = dict(store.entries)
    store.compress_all(2)
    for cid, entry in store.entries.items():
        assert entry.rank == 2 and entry.created_task == old[cid].created_task
        np.testing.assert_array_equal(entry.cov, C.recompose(*entry.svd))
        np.testing.assert_array_equal(entry.svd[0], C.decompose(old[cid].cov, 2)[0])
    assert old[0].rank is None and old[1].rank == 4


def test_compress_all_refuses_a_rank_above_a_stored_rank():
    rng = np.random.default_rng(8)
    store = C.PrototypeStore()
    store.add(0, rng.normal(size=6), random_spd(rng, 6), task=0)
    store.add(1, rng.normal(size=6), random_spd(rng, 6), task=0, svd_k=2)
    old = dict(store.entries)
    with pytest.raises(ConfigError, match=r"^class 1 is stored at rank 2, below k=5$"):
        store.compress_all(5)
    assert store.entries == old
    store.compress_all(2)
    assert [e.rank for e in store.entries.values()] == [2, 2]


# -- shrink / normalize ---------------------------------------------------------------


def test_shrink_normalize_identity():
    for g1, g2 in [(0.0, 0.0), (1.0, 3.0), (8.0, 120.0)]:
        np.testing.assert_allclose(C.shrink_normalize(np.eye(4), g1, g2), np.eye(4),
                                   atol=1e-15)


def test_shrink_normalize_direct_evaluation():
    sigma = np.array([[2.0, 1.0], [1.0, 2.0]])
    out = C.shrink_normalize(sigma, 1.0, 1.0)
    np.testing.assert_allclose(out, [[1.0, 0.2], [0.2, 1.0]], atol=1e-15)


def test_shrink_normalize_unit_diagonal_and_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sigma = random_spd(rng, 6)
        out = C.shrink_normalize(sigma, 8.0, 8.0)
        np.testing.assert_array_equal(np.diag(out), np.ones(6))
        assert np.max(np.abs(out - out.T)) == 0.0


def test_shrink_normalize_rejects_nonpositive_diagonal():
    with pytest.raises(NumericError):
        C.shrink_normalize(-np.eye(3), 0.0, 0.0)


def test_shrinkage_rejects_an_asymmetric_matrix_at_any_scale():
    """The symmetry test is relative: an asymmetry of 2.5e-7 of the largest
    entry is rejected at every scale, also where it is far below 1e-9."""
    for scale in (1e-6, 1.0, 1e8):
        cov = scale * np.array([[2.0, 0.5], [0.5 + 5e-7, 1.0]])
        with pytest.raises(ContractError, match="symmetric square"):
            C.shrinkage_terms(cov)


def test_tune_shrinkage_on_large_scale_rank_k_store():
    """Inputs scaled by 1e4 scale the covariances by 1e8.  A recomposed
    rank-k covariance is asymmetric by rounding, relative to its scale, so
    at 1e8 by more than 1e-9 in absolute terms.  The full and the rank-k
    store both tune to the gamma of the unscaled store."""
    rng = np.random.default_rng(15)
    d, classes = 16, 4
    mus = rng.normal(size=(classes, d)) * 3.0
    y = np.repeat(np.arange(classes), 30)
    x = mus[y] + rng.normal(size=(len(y), d)) * rng.uniform(0.5, 2.0, size=d)
    tuned = {}
    for scale in (1.0, 1e4):
        for k in (None, 4):
            store = C.PrototypeStore()
            for cid in range(classes):
                rows = scale * x[y == cid]
                store.add(cid, rows.mean(axis=0), np.cov(rows.T), task=0, svd_k=k)
            tuned[scale, k] = C.tune_shrinkage(CL.MahalanobisScorer(store), identity_extractor(d),
                                               D.LabeledSet(scale * x, tuple(y.tolist()), "val"),
                                               C.GAMMA_GRID)
    cov = store.entries[0].cov
    assert np.max(np.abs(cov - cov.T)) > 1e-9
    assert tuned[1.0, None] == tuned[1e4, None] and tuned[1.0, 4] == tuned[1e4, 4]


def test_gamma_grid_as_shipped():
    assert C.GAMMA_GRID == (1, 3, 8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120)
    assert len(C.GAMMA_GRID) == 17


# -- decomposition -----------------------------------------------------------------------


def test_decompose_spectral_truncation():
    sigma = np.diag([3.0, 2.0, 1.0])
    u, s, v = C.decompose(sigma, 2)
    np.testing.assert_allclose(C.recompose(u, s, v), np.diag([3.0, 2.0, 0.0]), atol=1e-12)


def test_decomposed_scalar_budget_reference_point():
    assert C.decomposed_scalars(512, 8) == 8256
    assert C.decomposed_scalars(512, 8) / 512**2 == pytest.approx(0.0315, abs=1e-3)


def test_full_rank_roundtrip():
    rng = np.random.default_rng(6)
    sigma = random_spd(rng, 7)
    u, s, v = C.decompose(sigma, 7)
    err = np.linalg.norm(C.recompose(u, s, v) - sigma) / np.linalg.norm(sigma)
    assert err <= 1e-9


def test_eckart_young_bound():
    rng = np.random.default_rng(7)
    for _ in range(10):
        d = 8
        sigma = random_spd(rng, d)
        svals = np.linalg.svd(sigma, compute_uv=False)
        for k in (1, 3, 6):
            u, s, v = C.decompose(sigma, k)
            err = np.linalg.norm(C.recompose(u, s, v) - sigma)
            assert err <= svals[k] * np.sqrt(d - k) + 1e-12


def test_decompose_rank_out_of_range():
    with pytest.raises(ConfigError):
        C.decompose(np.eye(3), 0)
    with pytest.raises(ConfigError):
        C.decompose(np.eye(3), 4)


# -- shrinkage tuning ---------------------------------------------------------------------


def tuned_world(rng):
    spec = D.SyntheticSpec(n_classes=4, input_dim=6, radius=9.0, cluster_std=1.0,
                           n_train=40, n_val=15, n_test=10)
    stream = D.make_task_stream(spec, 2, "cold", 11, 11)
    extractor = identity_extractor(6)
    store = C.PrototypeStore()
    merged_x = np.concatenate([stream.train[0].x, stream.train[1].x])
    merged_y = stream.train[0].y + stream.train[1].y
    merged = D.LabeledSet(merged_x, merged_y, "train")
    for cid, (mu, cov) in TR.compute_class_stats(extractor, merged).items():
        store.add(cid, mu, cov, task=0)
    val_x = np.concatenate([stream.val[0].x, stream.val[1].x])
    val = D.LabeledSet(val_x, stream.val[0].y + stream.val[1].y, "val")
    return CL.MahalanobisScorer(store), extractor, val


def test_tune_single_candidate_grid():
    scorer, extractor, val = tuned_world(np.random.default_rng(8))
    assert C.tune_shrinkage(scorer, extractor, val, (24,)) == (24.0, 24.0)


def test_tune_flat_accuracy_prefers_smallest_gamma():
    scorer, extractor, val = tuned_world(np.random.default_rng(9))
    # well-separated identity-like clusters: accuracy saturates across the grid
    g1, g2 = C.tune_shrinkage(scorer, extractor, val, C.GAMMA_GRID)
    assert (g1, g2) == (1.0, 1.0)


def test_tune_rejects_test_split():
    scorer, extractor, val = tuned_world(np.random.default_rng(10))
    test_tagged = D.LabeledSet(val.x, val.y, "test")
    with pytest.raises(ContractError):
        C.tune_shrinkage(scorer, extractor, test_tagged, C.GAMMA_GRID)


def test_tune_rejects_empty_grid():
    scorer, extractor, val = tuned_world(np.random.default_rng(11))
    with pytest.raises(ConfigError):
        C.tune_shrinkage(scorer, extractor, val, ())


# -- store persistence ----------------------------------------------------------------------


def test_store_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    store = C.PrototypeStore()
    store.add(3, rng.normal(size=4), random_spd(rng, 4), task=0)
    store.add(7, rng.normal(size=4), random_spd(rng, 4), task=1, svd_k=2)
    path = tmp_path / "store.json"
    C.save_store(store, path)
    loaded = C.load_store(path)
    assert loaded.class_ids() == (3, 7)
    np.testing.assert_array_equal(loaded.entries[3].cov, store.entries[3].cov)
    np.testing.assert_array_equal(loaded.entries[7].svd[0], store.entries[7].svd[0])
    np.testing.assert_array_equal(loaded.entries[3].mu, store.entries[3].mu)
    assert loaded.entries[7].rank == 2
    np.testing.assert_array_equal(loaded.entries[7].cov, C.recompose(*loaded.entries[7].svd))
    np.testing.assert_array_equal(loaded.entries[7].cov, store.entries[7].cov)


def _tolist_store_record(store):
    """The record ``save_store`` wrote when it converted every array first."""
    classes = {}
    for cid, e in store.entries.items():
        rec = {"mu": e.mu.tolist(), "created_task": e.created_task,
               "calibrated_task": e.calibrated_task}
        if e.svd is None:
            rec["repr"], rec["cov"] = "full", e.cov.tolist()
        else:
            rec["repr"] = f"svd-{e.rank}"
            rec["u"], rec["s"], rec["v"] = (part.tolist() for part in e.svd)
        classes[str(cid)] = rec
    return {"format_version": C.STORE_VERSION, "classes": classes}


@pytest.mark.parametrize("ranks", [(None, None), (2, 3), (None, 2, None)],
                         ids=["full", "svd", "mixed"])
def test_save_store_writes_the_json_of_the_tolist_record(tmp_path, ranks):
    rng = np.random.default_rng(17)
    store = C.PrototypeStore()
    for cid, k in zip((5, 1, 9), ranks):
        store.add(cid, rng.normal(size=4), random_spd(rng, 4), task=cid % 2, svd_k=k)
    path = tmp_path / "store.json"
    C.save_store(store, path)
    assert path.read_bytes() == json.dumps(_tolist_store_record(store)).encode()


def _store_text(**fields):
    rec = {"mu": [0.0, 1.0], "created_task": 0, "calibrated_task": 0,
           "repr": "full", "cov": [[1.0, 0.0], [0.0, 1.0]]}
    rec.update(fields)
    return json.dumps({"format_version": C.STORE_VERSION,
                       "classes": {"4": {k: v for k, v in rec.items() if v is not None}}})


def _mixed_width_store_text():
    """Class 4 of width 2 next to a class 5 of width 3."""
    payload = json.loads(_store_text())
    payload["classes"]["5"] = dict(payload["classes"]["4"], mu=[0.0, 1.0, 2.0],
                                   cov=np.eye(3).tolist())
    return json.dumps(payload)


# broken store.json files: (file text, what the DecodeError must name)
BAD_STORES = {
    "missing-repr": (_store_text(repr=None), "class 4: missing key 'repr'"),
    "invalid-json": ('{"format_version": 1, "classes": {', "not valid JSON"),
    "cov-shape": (_store_text(cov=[[1.0, 0.0]]), "class 4: 'cov' has shape (1, 2)"),
    "mu-width": (_mixed_width_store_text(), "class 5: 'mu' has shape (3,), expected (2,)"),
    "version": (_store_text().replace('"format_version": 1', '"format_version": 2'),
                "unsupported 'format_version' 2"),
    "missing-version": ('{"classes": {}}', "missing key 'format_version'"),
    "classes-list": ('{"format_version": 1, "classes": []}', "malformed key 'classes'"),
    "class-id": (_store_text().replace('"4"', '"four"'), "class four: class id is not an integer"),
    "record-list": ('{"format_version": 1, "classes": {"4": [0.0]}}',
                    "class 4: record is not a JSON object"),
    "repr-rank": (_store_text(repr="svd-0"), "class 4: 'repr' must be 'full' or 'svd-<k>'"),
    "mu-text": (_store_text(mu=["a", 1.0]), "class 4: 'mu' is not a numeric array"),
}


@pytest.mark.parametrize("case", sorted(BAD_STORES))
def test_load_store_bad_file_names_file_and_field(tmp_path, case):
    text, expected = BAD_STORES[case]
    path = tmp_path / "store.json"
    path.write_text(text)
    with pytest.raises(DecodeError, match=re.escape(expected)) as err:
        C.load_store(path)
    assert str(path) in str(err.value)


def test_store_duplicate_class_rejected():
    store = C.PrototypeStore()
    store.add(0, np.zeros(2), np.eye(2), task=0)
    with pytest.raises(ContractError):
        store.add(0, np.zeros(2), np.eye(2), task=1)

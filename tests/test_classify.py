import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from advreplay import calib as C
from advreplay import classify as CL
from advreplay import data as D
from advreplay import model as M
from advreplay.errors import ContractError, NumericError


def identity_extractor(dim):
    return M.ExtractorParams((dim, dim), ("identity",),
                             [np.eye(dim)], [np.zeros(dim)])


def store_from(mus, covs):
    store = C.PrototypeStore()
    for cid, (mu, cov) in enumerate(zip(mus, covs)):
        store.add(cid, np.asarray(mu, float), np.asarray(cov, float), task=0)
    return store


def test_identity_covariance_mahalanobis_equals_ncm():
    rng = np.random.default_rng(0)
    mus = rng.normal(size=(4, 3)) * 3.0
    store = store_from(mus, [np.eye(3)] * 4)
    x = rng.normal(size=(50, 3)) * 3.0
    ncm = CL.predict_ncm(store, x)
    maha = CL.MahalanobisScorer(store).predict(x, (1.0, 1.0))
    np.testing.assert_array_equal(ncm, maha)


def test_exact_prototype_hit_returns_class():
    rng = np.random.default_rng(1)
    mus = rng.normal(size=(3, 4)) * 4.0
    covs = [np.eye(4) * s for s in (0.5, 1.0, 2.0)]
    store = store_from(mus, covs)
    x = mus[1][None, :]
    assert CL.predict_ncm(store, x)[0] == 1
    assert CL.MahalanobisScorer(store).predict(x, (1.0, 1.0))[0] == 1


def test_mahalanobis_matches_bruteforce_enumeration():
    rng = np.random.default_rng(2)
    mus = rng.normal(size=(3, 2)) * 2.0
    covs = []
    for _ in range(3):
        a = rng.normal(size=(2, 2))
        covs.append(a @ a.T + 0.5 * np.eye(2))
    store = store_from(mus, covs)
    x = rng.normal(size=(100, 2)) * 2.5
    pred = CL.MahalanobisScorer(store).predict(x, (1.0, 1.0))

    # brute force: explicit inverse per class, loop over points
    shrunk = [C.shrink_normalize(cov, 1.0, 1.0) for cov in covs]
    inverses = [np.linalg.inv(s) for s in shrunk]
    expected = []
    for row in x:
        dists = []
        for mu, inv in zip(mus, inverses):
            diff = row - mu
            dists.append(float(diff @ inv @ diff))
        expected.append(int(np.argmin(dists)))
    np.testing.assert_array_equal(pred, np.array(expected))


def test_distance_rescaling_invariance():
    rng = np.random.default_rng(3)
    mus = rng.normal(size=(3, 4))
    covs = [np.eye(4)] * 3
    scorer = CL.MahalanobisScorer(store_from(mus, covs))
    feats = rng.normal(size=(20, 4))
    base = scorer.distances(feats, (1.0, 1.0))
    for c in (0.5, 3.0, 1e6):
        np.testing.assert_array_equal(base.argmin(axis=1), (c * base).argmin(axis=1))


def solve_reference_distances(store, gamma1, gamma2, feats):
    """Per-class triangular solve on the Cholesky factor, one class at a time."""
    out = np.empty((len(feats), len(store.class_ids())))
    for j, cid in enumerate(store.class_ids()):
        entry = store.entries[cid]
        chol = np.linalg.cholesky(C.shrink_normalize(entry.cov, gamma1, gamma2))
        y = np.linalg.solve(chol, (feats - entry.mu).T)
        out[:, j] = (y * y).sum(axis=0)
    return out


def random_spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T / d + 0.1 * np.eye(d)


@pytest.mark.parametrize("d", [1, 4, 64])
@pytest.mark.parametrize("gamma", [1.0, 8.0])
def test_distances_match_solve_reference(d, gamma):
    rng = np.random.default_rng(100 + d)
    mus = rng.normal(size=(5, d))
    store = store_from(mus, [random_spd(rng, d) for _ in range(5)])
    feats = rng.normal(size=(300, d)) * 1.5
    got = CL.MahalanobisScorer(store).distances(feats, (gamma, gamma))
    want = solve_reference_distances(store, gamma, gamma, feats)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(got.argmin(axis=1), want.argmin(axis=1))


def test_distances_match_solve_reference_on_svd_store():
    rng = np.random.default_rng(7)
    d, k = 32, 8
    store = C.PrototypeStore()
    for cid in range(6):
        store.add(cid, rng.normal(size=d), random_spd(rng, d), task=0, svd_k=k)
    feats = rng.normal(size=(200, d))
    for gamma in (1.0, 24.0):
        got = CL.MahalanobisScorer(store).distances(feats, (gamma, gamma))
        want = solve_reference_distances(store, gamma, gamma, feats)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(got.argmin(axis=1), want.argmin(axis=1))


def anisotropic_store(rng, d, classes, svd_k=None, spread=1.0):
    store = C.PrototypeStore()
    for cid in range(classes):
        a = rng.normal(size=(d, d)) * rng.uniform(0.2, 3.0, size=d)
        store.add(cid, rng.normal(size=d) * spread, a @ a.T / d + 0.05 * np.eye(d), task=0,
                  svd_k=svd_k)
    return store


@pytest.mark.parametrize("svd_k", [None, 6])
@pytest.mark.parametrize("gamma", [(1.0, 8.0), (24.0, 3.0)])
def test_unequal_gammas_match_solve_reference(svd_k, gamma):
    rng = np.random.default_rng(21)
    store = anisotropic_store(rng, 24, 5, svd_k)
    feats = rng.normal(size=(150, 24))
    want = solve_reference_distances(store, *gamma, feats)
    got = CL.MahalanobisScorer(store).distances(feats, gamma)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    np.testing.assert_array_equal(got.argmin(axis=1), want.argmin(axis=1))


def test_scan_equals_predict_per_gamma():
    """Rank-k classes at d = 16, and full classes at d = 42 and 100: the
    widths at which a product over a subset of the rows can round otherwise
    than the whole block on some BLAS builds."""
    grid = [(float(g), float(g)) for g in C.GAMMA_GRID] + [(40.0, 2.0)]
    for seed, d, svd_k in ((22, 16, 4), (36, 42, None), (37, 100, None)):
        rng = np.random.default_rng(seed)
        store = anisotropic_store(rng, d, 6, svd_k=svd_k)
        feats = rng.normal(size=(120, d)) * 1.5
        scorer = CL.MahalanobisScorer(store)
        rows = scorer.scan(feats, grid)
        assert rows.shape == (len(grid), len(feats))
        for gamma, row in zip(grid, rows):
            np.testing.assert_array_equal(row, scorer.predict(feats, gamma))


def rebuild_per_gamma_accuracies(store, feats, labels, grid):
    """Validation accuracy per grid value, Cholesky-scored from a rebuild."""
    ids = np.asarray(store.class_ids())
    return [float(np.mean(ids[solve_reference_distances(store, g, g, feats).argmin(axis=1)]
                          == labels)) for g in grid]


@pytest.mark.parametrize("svd_k", [None, 3])
def test_tune_shrinkage_scan_matches_per_gamma_rebuild(svd_k):
    # covariances estimated from 8 rows in 12 dims: shrinkage helps up to a
    # point, and several grid values tie at the best accuracy
    rng = np.random.default_rng(23)
    d, classes = 12, 6
    mus = rng.normal(size=(classes, d)) * 0.8
    y = np.repeat(np.arange(classes), 40)
    x = mus[y] + rng.normal(size=(len(y), d))
    store = C.PrototypeStore()
    for cid in range(classes):
        rows = x[y == cid][:8]
        store.add(cid, rows.mean(axis=0), np.cov(rows.T), task=0, svd_k=svd_k)
    val = D.LabeledSet(x, tuple(int(v) for v in y), "val")
    accuracies = rebuild_per_gamma_accuracies(store, val.x, y, C.GAMMA_GRID)
    first_best = int(np.argmax(accuracies))  # ties go to the smallest gamma
    assert first_best > 0 and accuracies.count(accuracies[first_best]) > 1
    best = float(C.GAMMA_GRID[first_best])
    assert C.tune_shrinkage(CL.MahalanobisScorer(store), identity_extractor(d), val,
                            C.GAMMA_GRID) == (best, best)


def test_tied_classes_resolve_to_smaller_id():
    rng = np.random.default_rng(24)
    mu, cov = rng.normal(size=4), random_spd(rng, 4)
    store = C.PrototypeStore()
    for cid in (7, 3, 11):  # 3 and 7 are the same class twice; 11 is far away
        store.add(cid, mu + (50.0 if cid == 11 else 0.0), cov, task=0)
    feats = mu + rng.normal(size=(30, 4))
    scorer = CL.MahalanobisScorer(store)
    dist = scorer.distances(feats, (1.0, 1.0))
    np.testing.assert_array_equal(dist[:, 0], dist[:, 1])
    assert set(scorer.predict(feats, (1.0, 1.0))) == {3}
    assert set(scorer.scan(feats, [(1.0, 1.0), (24.0, 24.0)]).ravel()) == {3}


# -- scan against predict ---------------------------------------------------------


@st.composite
def scan_cases(draw):
    """A store, validation rows and a shrinkage grid for ``scan``.

    ``layout`` places the class means: far apart, all at one point with
    covariances of one scale, or each odd class an exact copy of the class
    before it (exact ties).  ``kind`` makes every class full, every class
    rank-k with one k, or each class either.  Widths run 1-10 with any k,
    and 16, 42, 64 and 100 with k in {1, 3, 8}, for every kind.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["full", "rank-k", "mixed"]))
    d = draw(st.one_of(st.integers(1, 10), st.sampled_from([16, 42, 64, 100])))
    rank = st.integers(1, d) if d <= 10 else st.sampled_from([1, 3, 8])
    classes = draw(st.integers(1, 7))
    if kind == "mixed":
        ranks = draw(st.lists(st.one_of(st.none(), rank), min_size=classes, max_size=classes))
    else:
        ranks = [None if kind == "full" else draw(rank)] * classes
    layout = draw(st.sampled_from(["separated", "overlapping", "duplicated"]))
    mus = rng.normal(size=(classes, d)) * (0.0 if layout == "overlapping" else 8.0)
    covs = []
    for _ in range(classes):
        a = rng.normal(size=(d, d)) * rng.uniform(0.2, 3.0, size=d)
        covs.append(a @ a.T / d + 0.05 * np.eye(d))
    if layout == "overlapping":
        covs = [np.eye(d) * rng.uniform(0.9, 1.1) for _ in range(classes)]
    if layout == "duplicated":
        for j in range(1, classes, 2):
            mus[j], covs[j] = mus[j - 1], covs[j - 1]
    store = C.PrototypeStore()
    for cid, j in zip(rng.permutation(classes * 3)[:classes], range(classes)):
        store.add(int(cid), mus[j], covs[j], task=0, svd_k=ranks[j])
    n = draw(st.integers(1, 40))
    feats = mus[rng.integers(classes, size=n)] + rng.normal(size=(n, d)) * rng.uniform(0.1, 4.0)
    equal = st.sampled_from(C.GAMMA_GRID).map(lambda g: (float(g), float(g)))
    unequal = st.tuples(st.floats(0.5, 120.0), st.floats(0.0, 120.0))
    gammas = [draw(equal)] + draw(st.lists(st.one_of(equal, unequal), max_size=5))
    return store, feats, gammas


def recomposed_full_store(store):
    """``store`` with every class held in full: the ``eigh`` kernel's input."""
    full = C.PrototypeStore()
    for cid, entry in store.entries.items():
        full.add(cid, entry.mu, entry.cov, task=0)
    return full


@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=scan_cases())
def test_scan_equals_distances_argmin_property(case):
    """``scan`` equals ``predict`` element for element, at every width; and
    ``predict`` equals the ``eigh`` kernel's on the recomposed covariances
    wherever that kernel's two best distances are more than 1e-9 apart."""
    store, feats, gammas = case
    scorer = CL.MahalanobisScorer(store)
    try:
        want = [scorer.predict(feats, g) for g in gammas]
    except NumericError:  # a pair that leaves some class not positive definite
        with pytest.raises(NumericError):
            scorer.scan(feats, gammas)
        return
    np.testing.assert_array_equal(scorer.scan(feats, gammas), np.array(want))
    if len(store.class_ids()) < 2:
        return
    ids, reference = np.asarray(store.class_ids()), recomposed_full_store(store)
    for gamma, pred in zip(gammas, want):
        try:
            ref = CL.MahalanobisScorer(reference).distances(feats, gamma)
        except NumericError:
            continue
        two = np.sort(ref, axis=1)[:, :2]
        clear = two[:, 1] - two[:, 0] > 1e-9 * two[:, 1]
        np.testing.assert_array_equal(pred[clear], ids[ref.argmin(axis=1)][clear])


def rank_k_world(classes=60, d=64, k=8, rows_per_class=30):
    """A csv60-svd-sized store (60 classes, d = 64, k = 8) and its 1,800
    validation rows."""
    rng = np.random.default_rng(35)
    store = anisotropic_store(rng, d, classes, svd_k=k, spread=3.0)
    y = np.repeat(np.arange(classes), rows_per_class)
    mus = np.array([store.entries[cid].mu for cid in store.class_ids()])
    val = D.LabeledSet(mus[y] + rng.normal(size=(len(y), d)), tuple(y.tolist()), "val")
    return store, val


def test_rank_k_store_holds_no_d_by_d_array():
    store, _ = rank_k_world()
    for entry in store.entries.values():
        assert all(np.shape(a) != (64, 64) for a in (entry.mu, *entry.svd))
        assert set(vars(entry)) == {"mu", "svd", "created_task", "calibrated_task"}
    # 60 x (2kd + k^2 + d) floats are 0.55 MB; a d x d matrix per class adds 1.97 MB
    assert len(pickle.dumps(store)) < 0.6e6


def test_rank_k_scorer_and_tuning_peak_memory():
    """Deterministic, unlike the process's resident size: the peak of the
    bytes Python and numpy allocate while the scorer is built and the grid
    is scanned.  The (1800, 64) rows and their features take 1.8 MB; a
    stacked d x d matrix and eigenvector block per class would add 3.9 MB."""
    store, val = rank_k_world()
    tracemalloc.start()
    try:
        scorer = CL.MahalanobisScorer(store)
        C.tune_shrinkage(scorer, identity_extractor(64), val, C.GAMMA_GRID)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_singular_covariance_names_class():
    store = store_from([[0.0, 0.0], [1.0, 1.0]],
                       [np.ones((2, 2)), np.eye(2)])
    scorer = CL.MahalanobisScorer(store)
    with pytest.raises(NumericError, match="class 0"):
        scorer.distances(np.zeros((1, 2)), (0.0, 0.0))
    with pytest.raises(NumericError, match="class 0"):
        scorer.scan(np.zeros((1, 2)), [(1.0, 1.0), (0.0, 0.0)])


@pytest.mark.parametrize("seed", range(40))
def test_rank_deficient_covariance_without_shrinkage_rejected(seed):
    # rank r < d: exactly singular, though the computed smallest eigenvalue
    # often comes out a few ulps above zero
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    a = rng.normal(size=(d, int(rng.integers(1, d)))) * rng.uniform(0.1, 10.0)
    store = store_from([np.zeros(d), np.ones(d)], [np.eye(d), a @ a.T])
    scorer = CL.MahalanobisScorer(store)
    with pytest.raises(NumericError, match="class 1"):
        scorer.distances(np.zeros((1, d)), (0.0, 0.0))


def unit_store(classes):
    store = C.PrototypeStore()
    for cid in range(classes):
        store.add(cid, np.full(2, 3.0 * cid), np.eye(2), task=0)
    return store


@pytest.mark.parametrize("call,message", [
    (lambda: CL.predict_ncm(C.PrototypeStore(), np.zeros((1, 2))), "prototype store is empty"),
    (lambda: CL.MahalanobisScorer(C.PrototypeStore()), "prototype store is empty"),
    (lambda: C.StoreEntry(np.zeros(2), np.eye(2), C.decompose(np.eye(2), 1), 0, 0),
     "entry needs exactly one covariance representation"),
    (lambda: C.StoreEntry(np.zeros(2), None, None, 0, 0),
     "entry needs exactly one covariance representation"),
    (lambda: C.tune_shrinkage(CL.MahalanobisScorer(unit_store(3)), identity_extractor(2),
                              D.LabeledSet(np.zeros((2, 2)), (0, 1), "val"), (1,)),
     r"val split lacks classes \[2\]"),
    (lambda: CL.predict("mahalanobis", None, unit_store(2), np.zeros((1, 2))),
     r"Mahalanobis prediction needs a \(gamma1, gamma2\) pair"),
], ids=["ncm-empty-store", "scorer-empty-store", "entry-both-covariances",
        "entry-no-covariance", "val-lacks-class", "mahalanobis-without-pair"])
def test_contract_errors(call, message):
    with pytest.raises(ContractError, match=f"^{message}$"):
        call()


def test_linear_predicts_by_class_id():
    extractor = identity_extractor(3)
    head = M.ClassifierHead("linear", 1.0, (), (2, 5, 9), None, np.eye(3))
    state = M.ModelState(extractor, head, None, 0)
    x = np.array([[0.1, 3.0, 0.2], [4.0, 0.0, 0.0]])
    np.testing.assert_array_equal(CL.predict_linear(state, x), [5, 2])


def test_predict_dispatch_rejects_unknown():
    extractor = identity_extractor(2)
    head = M.ClassifierHead("linear", 1.0, (), (0,), None, np.eye(2)[:1])
    state = M.ModelState(extractor, head, None, 0)
    with pytest.raises(ContractError):
        CL.predict("quadratic", state, None, np.zeros((1, 2)))


# -- metrics ----------------------------------------------------------------------


def test_metrics_all_perfect():
    res = CL.metrics([[1.0], [1.0, 1.0], [1.0, 1.0, 1.0]], 3)
    assert res.per_task == (1.0, 1.0, 1.0)
    assert res.incremental == 1.0
    assert res.final == 1.0


def test_metrics_hand_evaluation():
    res = CL.metrics([[0.8], [0.6, 0.4]], 2)
    assert res.per_task[0] == pytest.approx(0.8)
    assert res.per_task[1] == pytest.approx(0.5)
    assert res.incremental == pytest.approx(0.65)
    assert res.final == pytest.approx(0.5)


def test_metrics_permutation_equivariant_within_row():
    res_a = CL.metrics([[0.9], [0.2, 0.8]], 2)
    res_b = CL.metrics([[0.9], [0.8, 0.2]], 2)
    assert res_a.per_task == res_b.per_task
    assert res_a.incremental == res_b.incremental


def test_metrics_missing_entries_rejected():
    with pytest.raises(ContractError):
        CL.metrics([[0.5], [0.5]], 2)
    with pytest.raises(ContractError):
        CL.metrics([[0.5]], 2)
    with pytest.raises(ContractError):
        CL.metrics([[1.5]], 1)

import hashlib
import re

import numpy as np
import pytest
from test_plain_forward import float32_copy

from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
from advreplay.errors import ConfigError, ContractError, NumericError
from advreplay.tensor import Tensor

IDENTITY_FAMILY = D.AugFamily(enabled=False)


def identity_extractor(dim):
    return M.ExtractorParams((dim, dim), ("identity",),
                             [np.eye(dim)], [np.zeros(dim)])


def labeled(x, split="train"):
    return D.LabeledSet(x, tuple(range(len(x))), split)


# -- candidate sampling ----------------------------------------------------------


def test_zero_distance_sample_ranked_first():
    f = identity_extractor(2)
    mu = np.array([3.0, -1.0])
    x = np.array([[0.0, 0.0], [3.0, -1.0], [5.0, 5.0]])
    bank = R.build_candidate_set(f, labeled(x), {0: mu}, k=1,
                                 rng=np.random.default_rng(0),
                                 family=IDENTITY_FAMILY)
    assert bank.tobytes() == x[np.array([[1]])].tobytes()  # sample 1, under identity


def test_selection_equals_bruteforce_sort_oracle():
    rng_main = np.random.default_rng(9)
    rng_oracle = np.random.default_rng(9)
    fam = D.AugFamily(input_dim=4)
    f = identity_extractor(4)
    x = np.random.default_rng(1).normal(size=(10, 4))
    mu = np.random.default_rng(2).normal(size=4)

    bank = R.build_candidate_set(f, labeled(x), {0: mu}, k=3, rng=rng_main, family=fam)

    # independent oracle: same policy stream, exhaustive distance sort
    policies = D.sample_policies(rng_oracle, fam, 10)
    feats = np.stack([D.apply_policy(row, p) for row, p in zip(x, policies)])
    dists = np.linalg.norm(feats - mu, axis=1)
    expected = sorted(range(10), key=lambda i: (dists[i], i))[:3]
    assert bank.tobytes() == feats[None, expected].tobytes()


def test_k_larger_than_dataset_rejected():
    f = identity_extractor(2)
    with pytest.raises(ConfigError):
        R.build_candidate_set(f, labeled(np.zeros((3, 2))), {0: np.zeros(2)}, k=4,
                              rng=np.random.default_rng(0), family=IDENTITY_FAMILY)


def test_capped_assignment_greedy_by_global_distance():
    f = identity_extractor(1)
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    protos = {0: np.array([0.0]), 1: np.array([10.0])}
    bank = R.build_candidate_set(f, labeled(x), protos, k=2,
                                 rng=np.random.default_rng(0), cap=1,
                                 family=IDENTITY_FAMILY)
    assert bank.tobytes() == x[np.array([[0, 1], [2, 3]])].tobytes()


def test_uncapped_classes_may_share_samples():
    f = identity_extractor(1)
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    protos = {0: np.array([0.5]), 1: np.array([0.5])}
    bank = R.build_candidate_set(f, labeled(x), protos, k=2,
                                 rng=np.random.default_rng(0), cap=None,
                                 family=IDENTITY_FAMILY)
    assert bank.tobytes() == x[np.array([[0, 1], [0, 1]])].tobytes()


def test_infeasible_cap_rejected_with_constraint():
    f = identity_extractor(1)
    x = np.zeros((3, 1))
    protos = {0: np.zeros(1), 1: np.zeros(1)}
    with pytest.raises(ConfigError, match="cap"):
        R.build_candidate_set(f, labeled(x), protos, k=2,
                              rng=np.random.default_rng(0), cap=1,
                              family=IDENTITY_FAMILY)


def greedy_oracle(dists, k, cap):
    """The assignment written out: every (distance, sample, row) tuple
    sorted, then taken greedily under the per-row k and per-sample cap."""
    rows_n, n = dists.shape
    pairs = sorted((dists[r, i], i, r) for r in range(rows_n) for i in range(n))
    chosen = [[] for _ in range(rows_n)]
    used = [0] * n
    for _, i, r in pairs:
        if len(chosen[r]) < k and used[i] < cap:
            chosen[r].append(i)
            used[i] += 1
    return chosen


def tie_heavy(rng):
    """A distance matrix drawn from four values, so most entries tie."""
    rows_n, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    return rng.integers(0, 4, size=(rows_n, n)) * 0.5, int(rng.integers(1, n + 1))


def test_assign_nearest_cap_of_all_rows_equals_uncapped():
    rng = np.random.default_rng(31)
    for _ in range(200):
        dists, k = tie_heavy(rng)
        expected = [sorted(range(dists.shape[1]), key=lambda i: (row[i], i))[:k]
                    for row in dists]
        assert R.assign_nearest(dists, k).tolist() == expected
        assert R.assign_nearest(dists, k, cap=len(dists)).tolist() == expected


def test_assign_nearest_capped_equals_greedy_oracle():
    rng = np.random.default_rng(37)
    outcomes = set()
    for _ in range(300):
        dists, k = tie_heavy(rng)
        rows_n, n = dists.shape
        for cap in (1, 2):
            if k * rows_n > n * cap:
                outcomes.add("infeasible")
                with pytest.raises(ConfigError, match="infeasible cap"):
                    R.assign_nearest(dists, k, cap)
                continue
            expected = greedy_oracle(dists, k, cap)
            short = [r for r, bucket in enumerate(expected) if len(bucket) < k]
            if short:
                outcomes.add("short")
                with pytest.raises(ConfigError, match=re.escape(f"short of k: {short}")):
                    R.assign_nearest(dists, k, cap)
            else:
                outcomes.add("assigned")
                assert R.assign_nearest(dists, k, cap).tolist() == expected
    assert outcomes == {"infeasible", "short", "assigned"}


def test_assign_nearest_rejects_cap_below_one():
    with pytest.raises(ConfigError, match="cap must be >= 1"):
        R.assign_nearest(np.zeros((1, 2)), 1, cap=0)


def test_greedy_assignment_names_short_classes_by_id():
    f = identity_extractor(1)
    x = np.array([[0.0], [1.0], [10.0]])
    protos = {2: np.array([0.5]), 5: np.array([0.5]), 9: np.array([0.5])}
    with pytest.raises(ConfigError, match=re.escape("classes short of k: [9]")):
        R.build_candidate_set(f, labeled(x), protos, k=2,
                              rng=np.random.default_rng(0), cap=2,
                              family=IDENTITY_FAMILY)


# -- prototype noise magnitude ------------------------------------------------------


def test_noise_magnitude_identity_covariances():
    covs = {c: np.eye(5) for c in range(4)}
    assert R.noise_magnitude(covs, 5) == pytest.approx(2.0, abs=0)


def test_noise_magnitude_zero():
    assert R.noise_magnitude({0: np.zeros((3, 3))}, 3) == 0.0


def test_noise_magnitude_direct_evaluation():
    covs = {0: np.diag([1.0, 3.0]), 1: np.diag([2.0, 2.0])}
    assert R.noise_magnitude(covs, 2) == pytest.approx(2.0, abs=1e-15)


def test_noise_magnitude_empty_rejected():
    with pytest.raises(ContractError):
        R.noise_magnitude({}, 4)


# -- adversarial attack ---------------------------------------------------------------


def test_attack_one_step_analytic():
    f = identity_extractor(2)
    cfg = R.AttackConfig(alpha=1.0, n_attack=1)
    out = R.adversarial_attack(f, np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]), cfg)
    np.testing.assert_allclose(out, [[0.5, 0.0]], rtol=0, atol=1e-15)


def test_attack_output_is_a_read_only_copy_checked_finite():
    f = identity_extractor(2)
    x = np.array([[1.0, 0.0]])
    out = R.adversarial_attack(f, x, np.zeros((1, 2)), R.AttackConfig(1.0, 1))
    assert out.dtype == np.float64 and not out.flags.writeable
    assert not np.shares_memory(out, x)
    # a step of 1e38 * g / |g|^2 with |g| = 2e-3 overflows the float32 rows
    huge = R.AttackConfig(alpha=1e38, n_attack=1)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="attack output"):
        R.adversarial_attack(f, np.array([[1e-3, 0.0]]), np.zeros((1, 2)), huge)


# values finite in float64 that leave float32's range, the attack's dtype:
# an input row and a target (on their cast, with and without noise) and a
# squared distance of (3e19)^2 = 9e38
@pytest.mark.parametrize("what,x,targets,noise", [
    ("attack input", [[1e39, 0.0]], [[0.0, 0.0]], None),
    ("attack targets", [[1.0, 0.0]], [[1e39, 0.0]], None),
    ("attack targets", [[1.0, 0.0]], [[1e39, 0.0]], 1.0),
    ("squared distance in attack", [[3e19, 0.0]], [[0.0, 0.0]], None),
])
def test_attack_blames_float32_range_for_values_finite_in_float64(what, x, targets, noise):
    noise = None if noise is None else (np.random.default_rng(0), noise)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match=rf"^non-finite {what}: finite in float64, but beyond the "
                                rf"float32 attack's range \(about 3\.4e38\)$"):
        R.adversarial_attack(identity_extractor(2), np.array(x), np.array(targets),
                             R.AttackConfig(1.0, 1), noise)


def test_attack_blames_the_data_for_values_not_finite_in_float64():
    with pytest.raises(NumericError, match="^non-finite attack targets$"):
        R.adversarial_attack(identity_extractor(2), np.ones((1, 2)), np.full((1, 2), np.inf),
                             R.AttackConfig(1.0, 1))
    with pytest.raises(NumericError, match="^non-finite values in extractor input$"):
        R.adversarial_attack(identity_extractor(2), np.full((1, 2), np.nan), np.zeros((1, 2)),
                             R.AttackConfig(1.0, 1))


def test_attack_stationary_point_guard():
    f = identity_extractor(2)
    cfg = R.AttackConfig(alpha=1.0, n_attack=3)
    x = np.array([[2.0, -1.0]])
    out = R.adversarial_attack(f, x, x.copy(), cfg)
    np.testing.assert_array_equal(out, x)


def test_attack_monotone_for_linear_extractor():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
    f = M.ExtractorParams((3, 3), ("identity",), [a], [np.zeros(3)])
    x = rng.normal(size=(6, 3)) * 3.0
    mu = rng.normal(size=3)
    targets = np.tile(mu, (6, 1))
    cfg_step = R.AttackConfig(alpha=0.5, n_attack=1)

    current = x
    prev_dist = np.linalg.norm(M.extract(f, Tensor(current)).data - mu, axis=1)
    for _ in range(4):
        current = R.adversarial_attack(f, current, targets, cfg_step)
        dist = np.linalg.norm(M.extract(f, Tensor(current)).data - mu, axis=1)
        assert np.all(dist <= prev_dist + 1e-12)
        prev_dist = dist


def test_attack_median_improvement_with_mlp():
    rng = np.random.default_rng(12)
    f = M.default_extractor(8, 6, rng, hidden=(32,))
    x = rng.normal(size=(64, 8)) * 2.0
    mu = M.extract(f, Tensor(rng.normal(size=(1, 8)))).data[0]
    targets = np.tile(mu, (64, 1))
    cfg = R.AttackConfig(alpha=1.0, n_attack=4)
    out = R.adversarial_attack(f, x, targets, cfg)
    pre = np.median(np.linalg.norm(M.extract(f, Tensor(x)).data - mu, axis=1))
    post = np.median(np.linalg.norm(M.extract(f, out).data - mu, axis=1))
    assert post < pre


def test_attack_never_mutates_frozen_model():
    rng = np.random.default_rng(13)
    f = M.default_extractor(5, 4, rng, hidden=(16,))
    head = M.init_head([0], 4, rng)
    before = M.checksum(f, head)
    cfg = R.AttackConfig(alpha=2.0, n_attack=5)
    R.adversarial_attack(f, rng.normal(size=(8, 5)), rng.normal(size=(8, 4)),
                         cfg, noise=(np.random.default_rng(1), 1.0))
    assert M.checksum(f, head) == before


def test_attack_deterministic():
    rng = np.random.default_rng(14)
    f = M.default_extractor(5, 4, rng, hidden=(16,))
    x = rng.normal(size=(8, 5))
    targets = rng.normal(size=(8, 4))
    cfg = R.AttackConfig(alpha=2.0, n_attack=3)
    a = R.adversarial_attack(f, x, targets, cfg)
    b = R.adversarial_attack(f, x, targets, cfg)
    assert np.array_equal(a, b)
    a = R.adversarial_attack(f, x, targets, cfg, noise=(np.random.default_rng(7), 0.5))
    b = R.adversarial_attack(f, x, targets, cfg, noise=(np.random.default_rng(7), 0.5))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("noise", [
    np.zeros((3, 8, 4)),  # an offsets array, one target set per iteration
    (np.random.default_rng(1),),
    (np.random.default_rng(1), 0.5, 1),
    [np.random.default_rng(1), 0.5],
    (np.random.RandomState(1), 0.5),
    (np.random.default_rng(1), -0.5),
    (np.random.default_rng(1), float("nan")),
    (np.random.default_rng(1), "0.5"),
])
def test_attack_noise_must_be_a_generator_and_a_scale(noise):
    """Noise is a (numpy Generator, scale >= 0) pair, and nothing else."""
    rng = np.random.default_rng(15)
    f = M.default_extractor(5, 4, rng, hidden=(16,))
    with pytest.raises(ContractError,
                       match=r"^attack noise must be a \(numpy Generator, scale >= 0\) pair$"):
        R.adversarial_attack(f, rng.normal(size=(8, 5)), rng.normal(size=(8, 4)),
                             R.AttackConfig(alpha=2.0, n_attack=3), noise)


def masked_attack(f, x, targets, cfg, r=0.0, draws=None):
    """``adversarial_attack`` with its masked divide on every iteration, on
    the float32 copy of ``f``, iteration i aiming at ``targets + r *
    draws[i]``."""
    f = float32_copy(f)
    targets = targets.astype(np.float32)
    current = x.astype(np.float32)
    for i in range(cfg.n_attack):
        feats, vjp = M.feature_vjp(f, current)
        diff = feats - (targets if draws is None else targets + r * draws[i])
        g = vjp(diff + diff)
        norms = np.sqrt(np.add.reduce(g * g, axis=1))
        current = current - np.divide(cfg.alpha * g, norms[:, None] ** 2, out=np.zeros_like(g),
                                      where=(norms >= 1e-12)[:, None])
    return current.astype(np.float64)


@pytest.mark.parametrize("still_rows", [(), (5,), (0, 63)])
def test_attack_equals_the_masked_divide_bytewise(still_rows):
    """An iteration whose rows all have a gradient skips the masked divide
    with the same bits, here with target noise; a row whose gradient is
    zero (its feature on its target, with no noise) keeps the masked
    divide and does not move."""
    noise = not still_rows
    rng = np.random.default_rng(16)
    f = M.default_extractor(16, 32, rng, hidden=(64, 48))
    x = (rng.normal(size=(64, 16)) * 2.0).astype(np.float32)
    targets = rng.normal(size=(64, 32))
    feats = M.features(float32_copy(f), x)
    for row in still_rows:
        targets[row] = feats[row]
    cfg = R.AttackConfig(alpha=7.3, n_attack=12)  # not a power of two: alpha * g rounds
    draws = np.random.default_rng(3).standard_normal((12, 64, 32), dtype=np.float32)
    out = R.adversarial_attack(f, x, targets, cfg,
                               (np.random.default_rng(3), 0.3) if noise else None)
    expected = masked_attack(f, x, targets, cfg, 0.3, draws if noise else None)
    assert out.tobytes() == expected.tobytes()
    moved = np.any(out != x, axis=1)
    assert moved.sum() == 64 - len(still_rows)
    assert not moved[list(still_rows)].any()


def test_attack_config_validation():
    with pytest.raises(ConfigError):
        R.AttackConfig(alpha=0.0, n_attack=1)
    with pytest.raises(ConfigError):
        R.AttackConfig(alpha=1.0, n_attack=0)


# -- the replay bank -------------------------------------------------------------


def test_candidate_set_bytes_are_pinned():
    """The picked samples, their policy bytes and the bank of one seeded
    build: the samples and policies pinned from the struct-packed policy
    codec the record dtype replaced, the bank from their one replay."""
    def world():
        rng = np.random.default_rng(31)
        f = M.default_extractor(5, 3, rng, hidden=(8,))
        x = rng.normal(size=(40, 5))
        protos = {2: rng.normal(size=3), 5: rng.normal(size=3), 11: rng.normal(size=3)}
        return rng, f, x, protos

    rng, f, x, protos = world()
    fam = D.AugFamily(input_dim=5)
    # the classes go in ascending id order, whatever the order of the dict
    descending = dict(reversed(protos.items()))
    bank = R.build_candidate_set(f, labeled(x), descending, k=6, rng=rng, cap=2, family=fam)
    # the oracle's policies: the same stream, one per (class, sample)
    rng, *_ = world()
    drawn = D.sample_policies(rng, fam, 3 * 40).reshape(3, 40)
    indices = np.array([[6, 23, 18, 14, 38, 28], [2, 4, 9, 33, 8, 37], [37, 5, 33, 28, 36, 1]])
    policies = np.take_along_axis(drawn, indices, axis=1)
    assert hashlib.sha256(policies.tobytes()).hexdigest() == (
        "dc8468508ccea9f22acd2fbd7949b0d46b50c0373d43757bd9caaaeeb7760b18")
    assert bank.tobytes() == D.apply_policy(x[indices], policies).tobytes()
    assert hashlib.sha256(bank.tobytes()).hexdigest() == (
        "b9ff6a5bc04680d388fc6a8a59379160cab4b4789fe47c84a3ff9368ea3d8e61")

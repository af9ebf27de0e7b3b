import hashlib
import re
import struct

import numpy as np
import pytest

from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
from advreplay.errors import ConfigError, ContractError, DecodeError, NumericError
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
    cs = R.build_candidate_set(f, labeled(x), {0: mu}, k=1,
                               rng=np.random.default_rng(0),
                               family=IDENTITY_FAMILY)
    assert cs.class_ids == (0,) and cs.indices.tolist() == [[1]]
    assert cs.policies.tobytes() == D.identity_policies((1, 1)).tobytes()


def test_selection_equals_bruteforce_sort_oracle():
    rng_main = np.random.default_rng(9)
    rng_oracle = np.random.default_rng(9)
    fam = D.AugFamily(input_dim=4)
    f = identity_extractor(4)
    x = np.random.default_rng(1).normal(size=(10, 4))
    mu = np.random.default_rng(2).normal(size=4)

    idx = tuple(R.build_candidate_set(f, labeled(x), {0: mu}, k=3, rng=rng_main,
                                      family=fam).indices[0])

    # independent oracle: same policy stream, exhaustive distance sort
    policies = D.sample_policies(rng_oracle, fam, 10)
    feats = np.stack([D.apply_policy(row, p) for row, p in zip(x, policies)])
    dists = np.linalg.norm(feats - mu, axis=1)
    expected = tuple(sorted(range(10), key=lambda i: (dists[i], i))[:3])
    assert idx == expected


def test_k_larger_than_dataset_rejected():
    f = identity_extractor(2)
    with pytest.raises(ConfigError):
        R.build_candidate_set(f, labeled(np.zeros((3, 2))), {0: np.zeros(2)}, k=4,
                              rng=np.random.default_rng(0), family=IDENTITY_FAMILY)


def test_capped_assignment_greedy_by_global_distance():
    f = identity_extractor(1)
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    protos = {0: np.array([0.0]), 1: np.array([10.0])}
    cs = R.build_candidate_set(f, labeled(x), protos, k=2,
                               rng=np.random.default_rng(0), cap=1,
                               family=IDENTITY_FAMILY)
    assert cs.indices.tolist() == [[0, 1], [2, 3]]


def test_uncapped_classes_may_share_samples():
    f = identity_extractor(1)
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    protos = {0: np.array([0.5]), 1: np.array([0.5])}
    cs = R.build_candidate_set(f, labeled(x), protos, k=2,
                               rng=np.random.default_rng(0), cap=None,
                               family=IDENTITY_FAMILY)
    assert cs.indices.tolist() == [[0, 1], [0, 1]]


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
    cfg = R.AttackConfig(alpha=1.0, n_attack=1, noise=False)
    out = R.adversarial_attack(f, np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]]), cfg)
    np.testing.assert_allclose(out, [[0.5, 0.0]], rtol=0, atol=1e-15)


def test_attack_output_is_a_read_only_copy_checked_finite():
    f = identity_extractor(2)
    x = np.array([[1.0, 0.0]])
    out = R.adversarial_attack(f, x, np.zeros((1, 2)), R.AttackConfig(1.0, 1, noise=False))
    assert out.dtype == np.float64 and not out.flags.writeable
    assert not np.shares_memory(out, x)
    # a step of 1e308 * g / |g|^2 with |g| = 2e-3 overflows the output
    huge = R.AttackConfig(alpha=1e308, n_attack=1, noise=False)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="attack output"):
        R.adversarial_attack(f, np.array([[1e-3, 0.0]]), np.zeros((1, 2)), huge)


def test_attack_stationary_point_guard():
    f = identity_extractor(2)
    cfg = R.AttackConfig(alpha=1.0, n_attack=3, noise=False)
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
    cfg_step = R.AttackConfig(alpha=0.5, n_attack=1, noise=False)

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
    cfg = R.AttackConfig(alpha=1.0, n_attack=4, noise=False)
    out = R.adversarial_attack(f, x, targets, cfg)
    pre = np.median(np.linalg.norm(M.extract(f, Tensor(x)).data - mu, axis=1))
    post = np.median(np.linalg.norm(M.extract(f, out).data - mu, axis=1))
    assert post < pre


def test_attack_never_mutates_frozen_model():
    rng = np.random.default_rng(13)
    f = M.default_extractor(5, 4, rng, hidden=(16,))
    head = M.init_head([0], 4, rng)
    before = M.checksum(f, head)
    cfg = R.AttackConfig(alpha=2.0, n_attack=5, noise=True)
    R.adversarial_attack(f, rng.normal(size=(8, 5)), rng.normal(size=(8, 4)),
                         cfg, r=1.0, rng=np.random.default_rng(1))
    assert M.checksum(f, head) == before


def test_attack_deterministic():
    rng = np.random.default_rng(14)
    f = M.default_extractor(5, 4, rng, hidden=(16,))
    x = rng.normal(size=(8, 5))
    targets = rng.normal(size=(8, 4))
    cfg = R.AttackConfig(alpha=2.0, n_attack=3, noise=False)
    a = R.adversarial_attack(f, x, targets, cfg)
    b = R.adversarial_attack(f, x, targets, cfg)
    assert np.array_equal(a, b)
    cfg_noise = R.AttackConfig(alpha=2.0, n_attack=3, noise=True)
    a = R.adversarial_attack(f, x, targets, cfg_noise, r=0.5, rng=np.random.default_rng(7))
    b = R.adversarial_attack(f, x, targets, cfg_noise, r=0.5, rng=np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_attack_config_validation():
    with pytest.raises(ConfigError):
        R.AttackConfig(alpha=0.0, n_attack=1)
    with pytest.raises(ConfigError):
        R.AttackConfig(alpha=1.0, n_attack=0)


# -- serialization ----------------------------------------------------------------------


def test_candidate_set_roundtrip_and_size():
    rng = np.random.default_rng(21)
    fam = D.AugFamily(input_dim=4)
    f = identity_extractor(4)
    x = rng.normal(size=(12, 4))
    protos = {3: rng.normal(size=4), 7: rng.normal(size=4), 9: rng.normal(size=4)}
    cs = R.build_candidate_set(f, labeled(x), protos, k=5, rng=rng, family=fam)

    payload = R.encode_candidate_set(cs)
    assert len(payload) == R.candidate_set_nbytes(3, 5)
    decoded = R.decode_candidate_set(payload)
    assert decoded.class_ids == cs.class_ids == (3, 7, 9)
    np.testing.assert_array_equal(decoded.indices, cs.indices)
    assert decoded.k == cs.k == 5
    assert decoded.policies.tobytes() == cs.policies.tobytes()
    np.testing.assert_array_equal(D.apply_policy(x[decoded.indices], decoded.policies),
                                  D.apply_policy(x[cs.indices], cs.policies))


def test_candidate_set_bytes_are_pinned():
    """The serialized candidates of one seeded build, pinned from the
    struct-packed policy codec the record dtype replaced."""
    rng = np.random.default_rng(31)
    f = M.default_extractor(5, 3, rng, hidden=(8,))
    x = rng.normal(size=(40, 5))
    protos = {2: rng.normal(size=3), 5: rng.normal(size=3), 11: rng.normal(size=3)}
    cs = R.build_candidate_set(f, labeled(x), protos, k=6, rng=rng, cap=2,
                               family=D.AugFamily(input_dim=5))
    payload = R.encode_candidate_set(cs)
    assert hashlib.sha256(payload).hexdigest() == (
        "a88c088e11dc59692f3deedd4428794069d9924621c4b13c43bbcf0ce8c66d23")
    assert R.encode_candidate_set(R.decode_candidate_set(payload)) == payload


@pytest.mark.parametrize("ids,shapes,match", [
    ((7, 3), ((2, 1), (2, 1)), "ascending and distinct"),
    ((3, 3), ((2, 1), (2, 1)), "ascending and distinct"),
    ((3, 7), ((2, 1), (2, 2)), r"need \(classes, k\)"),
    ((3, 7), ((1, 1), (1, 1)), r"need \(classes, k\)"),
    ((3, 7), ((2, 0), (2, 0)), "with k >= 1"),
])
def test_candidate_set_rejects_bad_layouts(ids, shapes, match):
    (idx_shape, pol_shape) = shapes
    with pytest.raises(ContractError, match=match):
        R.CandidateSet(ids, np.zeros(idx_shape, dtype=int), D.identity_policies(pol_shape))


@pytest.mark.parametrize("ids,bad,match", [
    ((0, 4), -1, "class 4: candidate index -1 does not fit"),
    ((0, 4), 2**32 + 5, f"class 4: candidate index {2**32 + 5} does not fit"),
    ((0, 2**32), 0, f"class {2**32}: the class id does not fit"),
])
def test_encode_candidate_set_rejects_values_past_u32(ids, bad, match):
    indices = np.zeros((2, 3), dtype=np.int64)
    indices[1, 2] = bad
    cs = R.CandidateSet(ids, indices, D.identity_policies((2, 3)))
    with pytest.raises(ContractError, match=match):
        R.encode_candidate_set(cs)


def small_candidate_payload():
    f = identity_extractor(2)
    x = np.random.default_rng(5).normal(size=(6, 2))
    cs = R.build_candidate_set(f, labeled(x), {3: np.zeros(2), 7: np.ones(2)}, k=2,
                               rng=np.random.default_rng(0), family=IDENTITY_FAMILY)
    return R.encode_candidate_set(cs)


def test_decode_candidate_set_rejects_a_repeated_class():
    payload = small_candidate_payload()
    first_class = payload[: len(payload) // 2]
    with pytest.raises(DecodeError, match="class 3 repeated"):
        R.decode_candidate_set(first_class + first_class)


def test_decode_candidate_set_sorts_classes_and_rejects_partial_payloads():
    payload = small_candidate_payload()
    half = len(payload) // 2
    swapped = R.decode_candidate_set(payload[half:] + payload[:half])
    assert R.encode_candidate_set(swapped) == payload
    other_k = bytearray(payload)
    other_k[half + 4] = 3
    for bad, match in ((b"", "no class header"), (payload[:-1], "not whole"),
                       (struct.pack("<II", 3, 2**32 - 1) + payload, "not whole"),
                       (bytes(other_k), "inconsistent k")):
        with pytest.raises(DecodeError, match=match):
            R.decode_candidate_set(bad)


def test_decode_candidate_set_rejects_k_zero():
    with pytest.raises(DecodeError, match="k must be >= 1"):
        R.decode_candidate_set(struct.pack("<II", 3, 0))

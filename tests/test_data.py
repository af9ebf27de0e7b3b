import dataclasses

import numpy as np
import pytest

from advreplay import data as D
from advreplay.errors import ConfigError, DecodeError


def test_cold_group_sizes():
    assert D.group_sizes(100, 5, "cold") == [20, 20, 20, 20, 20]


def test_warm_group_sizes():
    assert D.group_sizes(100, 11, "warm") == [50] + [5] * 10


def test_indivisible_counts_rejected():
    with pytest.raises(ConfigError):
        D.group_sizes(100, 7, "cold")
    with pytest.raises(ConfigError):
        D.group_sizes(100, 8, "warm")


def small_spec(**overrides):
    base = dict(n_classes=6, input_dim=8, radius=8.0, cluster_std=1.0,
                n_train=20, n_val=5, n_test=10)
    base.update(overrides)
    return D.SyntheticSpec(**base)


def test_stream_is_deterministic():
    a = D.make_task_stream(small_spec(), 3, "cold", seed=42, class_shuffle_seed=7)
    b = D.make_task_stream(small_spec(), 3, "cold", seed=42, class_shuffle_seed=7)
    assert a.class_groups == b.class_groups
    for ta, tb in zip(a.train, b.train):
        assert np.array_equal(ta.x.data, tb.x.data)
        assert ta.y == tb.y


def test_class_shuffle_seed_is_independent():
    a = D.make_task_stream(small_spec(), 3, "cold", seed=42, class_shuffle_seed=7)
    b = D.make_task_stream(small_spec(), 3, "cold", seed=42, class_shuffle_seed=8)
    assert a.class_groups != b.class_groups


def test_groups_disjoint_and_complete():
    for task_count, mode in [(3, "cold"), (2, "cold"), (4, "warm")]:
        stream = D.make_task_stream(small_spec(), task_count, mode, 0, 0)
        flat = [c for g in stream.class_groups for c in g]
        assert len(flat) == len(set(flat)) == 6
        sizes = [len(g) for g in stream.class_groups]
        assert sizes == D.group_sizes(6, task_count, mode)


def test_split_sizes_respect_spec():
    stream = D.make_task_stream(small_spec(), 3, "cold", 1, 1)
    assert len(stream.train[0]) == 2 * 20
    assert len(stream.val[0]) == 2 * 5
    assert len(stream.test[0]) == 2 * 10
    assert stream.val[0].split == "val"
    assert stream.test[2].split == "test"


def test_nearest_true_mean_oracle_separates_task0():
    # with radius >> cluster std a linear rule on true means must exceed 95%
    spec = small_spec(radius=10.0, cluster_std=1.0)
    stream = D.make_task_stream(spec, 3, "cold", seed=3, class_shuffle_seed=3)
    means, _ = D.class_clusters(spec, np.random.default_rng(3))
    test0 = stream.test[0]
    dists = np.linalg.norm(test0.x.data[:, None, :] - means[None, :, :], axis=2)
    pred = dists.argmin(axis=1)
    acc = float(np.mean(pred == np.array(test0.y)))
    assert acc > 0.95, f"oracle accuracy {acc}"


# -- augmentation ---------------------------------------------------------------


def family(dim=8, **overrides):
    base = dict(input_dim=dim)
    base.update(overrides)
    return D.AugFamily(**base)


def test_disabled_family_yields_identity_policy():
    policy = D.sample_policy(np.random.default_rng(0), D.AugFamily(enabled=False))
    assert policy == D.AugPolicy()
    x = np.arange(8.0)
    np.testing.assert_array_equal(D.apply_policy(x, policy), x)


def test_same_rng_state_same_policy():
    a = D.sample_policy(np.random.default_rng(11), family())
    b = D.sample_policy(np.random.default_rng(11), family())
    assert a == b


def test_default_family_records_seven_scalars():
    policy = D.sample_policy(np.random.default_rng(5), family())
    assert [f.name for f in dataclasses.fields(policy)] == [
        "crop", "crop_offset", "crop_width", "flip", "jitter_seed", "jitter_sigma", "scale"]
    assert D.POLICY_RECORD_BYTES == len(D.encode_policy(policy)) == 35


def test_flip_is_involution():
    flip_only = D.AugPolicy(flip=True)
    x = np.random.default_rng(2).normal(size=8)
    np.testing.assert_array_equal(D.apply_policy(D.apply_policy(x, flip_only), flip_only), x)


def test_policy_replay_bit_identical():
    rng = np.random.default_rng(17)
    fam = family()
    for _ in range(1000):
        x = rng.normal(size=8)
        policy = D.sample_policy(rng, fam)
        first = D.apply_policy(x, policy)
        second = D.apply_policy(x, policy)
        assert np.array_equal(first, second)


def test_policy_codec_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        policy = D.sample_policy(rng, family())
        decoded = D.decode_policy(D.encode_policy(policy))
        assert decoded == policy
        x = rng.normal(size=8)
        assert np.array_equal(D.apply_policy(x, policy), D.apply_policy(x, decoded))


def test_malformed_policy_record_rejected():
    with pytest.raises(DecodeError):
        D.decode_policy(b"\x00" * 3)
    # offset 6 + width 3 runs past an 8-wide sample
    decoded = D.decode_policy(D.encode_policy(D.AugPolicy(crop=True, crop_offset=6, crop_width=3)))
    with pytest.raises(DecodeError, match="crop window"):
        D.apply_policy(np.zeros(8), decoded)


# -- ingestion -------------------------------------------------------------------


def test_csv_roundtrip(tmp_path):
    stream = D.make_task_stream(small_spec(), 3, "cold", 5, 5)
    path = tmp_path / "task0.csv"
    D.save_csv(stream.train[0], path)
    loaded = D.load_csv(path, split="train")
    assert loaded.y == stream.train[0].y
    assert np.array_equal(loaded.x.data, stream.train[0].x.data)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(DecodeError):
        D.load_csv(path)


def test_binary_roundtrip(tmp_path):
    stream = D.make_task_stream(small_spec(), 3, "cold", 6, 6)
    path = tmp_path / "task0.aprd"
    D.save_binary(stream.train[1], path)
    loaded = D.load_binary(path, split="train")
    assert loaded.y == stream.train[1].y
    assert np.array_equal(loaded.x.data, stream.train[1].x.data)
    assert path.read_bytes()[:4] == b"APRD"


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.aprd"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DecodeError):
        D.load_binary(path)

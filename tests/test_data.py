import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from advreplay import calib as C
from advreplay import data as D
from advreplay import model as M
from advreplay.errors import ConfigError, ContractError, DecodeError, DimensionError, EngineError, NumericError


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
        assert np.array_equal(ta.x, tb.x)
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


def test_shuffled_groups_relabel_with_the_class_ids():
    # ingested labels are arbitrary ints: the same shuffle seed must cut them
    # into the groups the synthetic ids 0..n-1 get, position for position
    ids = (3, 10, 11, 40, 41, 97)
    for task_count, mode in [(3, "cold"), (4, "warm")]:
        plain = D.shuffled_groups(range(6), task_count, mode, 5)
        assert plain == D.make_task_stream(small_spec(), task_count, mode, 0, 5).class_groups
        assert D.shuffled_groups(ids, task_count, mode, 5) == tuple(
            tuple(ids[c] for c in group) for group in plain)


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
    dists = np.linalg.norm(test0.x[:, None, :] - means[None, :, :], axis=2)
    pred = dists.argmin(axis=1)
    acc = float(np.mean(pred == np.array(test0.y)))
    assert acc > 0.95, f"oracle accuracy {acc}"


# -- augmentation ---------------------------------------------------------------


def family(dim=8, **overrides):
    base = dict(input_dim=dim)
    base.update(overrides)
    return D.AugFamily(**base)


def test_disabled_family_yields_identity_policy():
    rng = np.random.default_rng(0)
    policies = D.sample_policies(rng, D.AugFamily(enabled=False), 3)
    assert policies.tobytes() == D.identity_policies(3).tobytes()
    assert rng.random() == np.random.default_rng(0).random()  # nothing drawn
    x = np.arange(24.0).reshape(3, 8)
    np.testing.assert_array_equal(D.apply_policy(x, policies), x)


def test_same_rng_state_same_policy():
    a = D.sample_policies(np.random.default_rng(11), family(), 5)
    b = D.sample_policies(np.random.default_rng(11), family(), 5)
    assert a.tobytes() == b.tobytes()


def test_default_family_records_seven_scalars():
    """Seven scalars plus the jitter flag, packed as the 35-byte ``<BIIBBQdd``
    record."""
    assert D.POLICY_DTYPE.names == (
        "crop", "crop_offset", "crop_width", "flip", "jitter", "jitter_seed", "jitter_sigma",
        "scale")
    policies = D.sample_policies(np.random.default_rng(5), family(), 4)
    assert D.POLICY_RECORD_BYTES == D.POLICY_DTYPE.itemsize == 35
    assert len(policies.tobytes()) == 4 * 35
    assert (policies["jitter"] == (policies["jitter_sigma"] > 0)).all()


def test_sampling_keeps_the_per_record_draw_order():
    """Each record's scalars come from the stream in field order, one record
    after another, as a one-record-at-a-time sampler draws them."""
    fam = family(dim=6, crop_width_range=(2, 9))  # widths above the dim are clipped
    rng = np.random.default_rng(41)
    policies = D.sample_policies(np.random.default_rng(41), fam, 50)
    for policy in policies:
        crop = rng.random() < fam.crop_prob
        width = min(int(rng.integers(2, 10)), 6)
        offset = int(rng.integers(0, 6 - width + 1))
        flip = rng.random() < fam.flip_prob
        sigma = float(rng.uniform(*fam.jitter_sigma_range)) if rng.random() < fam.jitter_prob \
            else 0.0
        seed = int(rng.integers(0, 2**32))
        scale = float(rng.uniform(*fam.scale_range))
        assert policy.tolist() == (crop, offset, width, flip, sigma > 0, seed, sigma, scale)


# the 35 bytes of one record, pinned from the struct-packed codec this
# dtype replaced: crop 3..4, flip, jitter seed 0x0123456789abcdef, sigma
# 1/16, scale 1.03125
FIXED_RECORD = bytes.fromhex(
    "0103000000020000000101efcdab8967452301000000000000b03f000000000080f03f")


def test_policy_record_bytes_are_pinned():
    record = D.identity_policies()
    record[()] = (1, 3, 2, 1, 1, 0x0123456789ABCDEF, 0.0625, 1.03125)
    assert record.tobytes() == FIXED_RECORD


def test_flip_is_involution():
    flip_only = D.identity_policies()
    flip_only["flip"] = 1
    x = np.random.default_rng(2).normal(size=8)
    np.testing.assert_array_equal(D.apply_policy(D.apply_policy(x, flip_only), flip_only), x)


def test_policy_replay_bit_identical():
    rng = np.random.default_rng(17)
    fam = family()
    for _ in range(1000):
        x = rng.normal(size=8)
        policy = D.sample_policies(rng, fam, 1)[0]
        first = D.apply_policy(x, policy)
        second = D.apply_policy(x, policy)
        assert np.array_equal(first, second)


def replay_one_at_a_time(x, policy):
    """The per-sample replay the batched ``apply_policy`` must equal: crop by
    slice assignment, flip by reversal, the record's own jitter generator,
    then the scale."""
    out = np.array(x, dtype=np.float64)
    if policy["crop"]:
        out[policy["crop_offset"]: policy["crop_offset"] + policy["crop_width"]] = 0.0
    if policy["flip"]:
        out = out[::-1]
    if policy["jitter_sigma"] > 0.0:
        noise = np.random.default_rng(int(policy["jitter_seed"])).standard_normal(out.shape[0])
        out = out + policy["jitter_sigma"] * noise
    return out * policy["scale"]


def test_batched_replay_equals_one_record_at_a_time():
    """Bit for bit, signed zeros included, over a (classes, k) batch."""
    rng = np.random.default_rng(29)
    policies = D.sample_policies(rng, family(), 3 * 40).reshape(3, 40)
    special = policies[0]
    special[:4] = D.identity_policies(4)
    special[0] = (1, 5, 3, 0, 0, 0, 0.0, 1.0)   # a crop ending at the last column
    special[1] = (1, 0, 2, 1, 0, 0, 0.0, -1.5)  # flip with crop, sign-flipping scale
    special[2] = (0, 0, 0, 1, 0, 0, 0.0, 0.5)   # flip without crop
    special[3] = (0, 0, 0, 0, 1, 77, 0.0, 2.0)  # jitter flag with a zero sigma
    x = rng.normal(size=(3, 40, 8))
    x[:, :, ::3] = -0.0
    x[0, 0, 7] = x[0, 0, 6] = 0.0
    batch = D.apply_policy(x, policies)
    assert batch.shape == x.shape
    for c in range(3):
        for j in range(40):
            expected = replay_one_at_a_time(x[c, j], policies[c, j])
            assert D.apply_policy(x[c, j], policies[c, j]).tobytes() == expected.tobytes()
            assert batch[c, j].tobytes() == expected.tobytes(), (c, j)
    assert np.signbit(batch[0, 0, 5:]).sum() == 0  # the crop writes +0.0
    assert np.signbit(batch[0, 2]).any()  # unscaled -0.0 survives elsewhere


def test_policy_shape_must_match_the_samples():
    with pytest.raises(DimensionError, match="apply_policy"):
        D.apply_policy(np.zeros((4, 8)), D.identity_policies(3))


def test_malformed_policy_record_rejected():
    # offset 6 + width 3 runs past an 8-wide sample
    record = D.identity_policies()
    record[["crop", "crop_offset", "crop_width"]] = (1, 6, 3)
    with pytest.raises(DecodeError, match="crop window"):
        D.apply_policy(np.zeros(8), record)


# -- ingestion -------------------------------------------------------------------


def test_labeled_set_holds_a_read_only_copy():
    x = np.arange(6.0).reshape(3, 2)
    ds = D.LabeledSet(x, (0, 1, 0), "train")
    assert ds.x.dtype == np.float64 and not ds.x.flags.writeable
    assert not np.shares_memory(ds.x, x)
    x[0, 0] = np.nan
    with pytest.raises(NumericError, match="samples"):
        D.LabeledSet(x, (0, 1, 0), "train")


def test_csv_roundtrip(tmp_path):
    stream = D.make_task_stream(small_spec(), 3, "cold", 5, 5)
    path = tmp_path / "task0.csv"
    D.save_csv(stream.train[0], path)
    loaded = D.load_csv(path, split="train")
    assert loaded.y == stream.train[0].y
    assert np.array_equal(loaded.x, stream.train[0].x)


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
    assert np.array_equal(loaded.x, stream.train[1].x)
    assert path.read_bytes()[:4] == b"APRD"


@pytest.mark.parametrize("bad", [-1, 2 ** 32])
def test_binary_label_outside_u32_is_rejected_before_writing(tmp_path, bad):
    path = tmp_path / "task0.aprd"
    dataset = D.LabeledSet(np.zeros((2, 3)), (0, bad), "train")
    with pytest.raises(ContractError, match=f"^{re.escape(str(path))}: label {bad} does not fit"):
        D.save_binary(dataset, path)
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temporary one


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.aprd"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(DecodeError):
        D.load_binary(path)


# each bad file escaped as a raw exception, or loaded silently, before the
# loaders checked it; now each must fail as a DecodeError naming the file
BAD_CSVS = {
    "ragged-row": ("label,f0,f1\n0,1.0,2.0\n1,3.0\n", "line 3: 2 fields, header has 3"),
    "non-numeric-feature": ("label,f0,f1\n0,1.0,abc\n", "line 2: could not convert"),
    "non-integer-label": ("label,f0\n0,1.0\n1.5,2.0\n", "line 3: invalid literal"),
    "nan-feature": ("label,f0,f1\n0,1.0,2.0\n\n1,nan,2.0\n", "line 4: non-finite"),
    "inf-feature": ("label,f0\n0,1e999\n", "line 2: non-finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_CSVS))
def test_load_csv_bad_file_names_file_and_line(tmp_path, case):
    text, expected = BAD_CSVS[case]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DecodeError, match=re.escape(expected)) as err:
        D.load_csv(path)
    assert str(path) in str(err.value)


def aprd_bytes(rows, cols, data=None, labels=None, version=1):
    """An APRD file; ``data``/``labels`` default to zeros of the right size."""
    data = np.zeros(rows * cols) if data is None else np.asarray(data)
    labels = np.zeros(rows) if labels is None else np.asarray(labels)
    return (D.BINARY_MAGIC + struct.pack("<III", version, rows, cols)
            + data.astype("<f8").tobytes() + labels.astype("<u4").tobytes())


BAD_APRDS = {
    "magic-only": (D.BINARY_MAGIC, "header has 4 of 16 bytes"),
    "truncated-header": (D.BINARY_MAGIC + struct.pack("<I", 1), "header has 8 of 16 bytes"),
    "truncated-data": (aprd_bytes(2, 3)[:40], "'rows'=2 and 'cols'=3 need 72 bytes, file has 40"),
    "missing-labels": (aprd_bytes(2, 3)[:64], "need 72 bytes, file has 64"),
    "trailing-bytes": (aprd_bytes(2, 3) + b"\0", "need 72 bytes, file has 73"),
    "zero-rows": (aprd_bytes(0, 3), "'rows'=0 and 'cols'=3 must be positive"),
    "nan-sample": (aprd_bytes(2, 2, data=[1.0, 2.0, np.nan, 4.0]),
                   "'data' row 1 has non-finite values"),
}


@pytest.mark.parametrize("case", sorted(BAD_APRDS))
def test_load_binary_bad_file_names_file_and_field(tmp_path, case):
    payload, expected = BAD_APRDS[case]
    path = tmp_path / "bad.aprd"
    path.write_bytes(payload)
    with pytest.raises(DecodeError, match=re.escape(expected)) as err:
        D.load_binary(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("loader", [D.load_csv, D.load_binary, M.load_checkpoint, C.load_store],
                         ids=lambda f: f.__name__)
def test_missing_file_is_a_decode_error_naming_it(tmp_path, loader):
    path = tmp_path / "absent"
    with pytest.raises(DecodeError, match=re.escape(f"{path}: cannot read")):
        loader(path)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

CSV_FIELDS = st.sampled_from(["0", "3", "-2", "1.5", "nan", "inf", "1e999", "x", "", " 7"])
CSV_TEXT = st.one_of(
    st.text(max_size=300),
    st.lists(st.lists(CSV_FIELDS, min_size=1, max_size=4), max_size=6).map(
        lambda rows: "label,f0,f1\n" + "\n".join(",".join(r) for r in rows)),
)



def aprd_fuzz(rows, cols, version, delta):
    """A well-formed header over a random body ``delta`` bytes off the size
    that ``rows`` and ``cols`` need."""
    size = max(0, rows * (cols * 8 + 4) + delta)
    header = D.BINARY_MAGIC + struct.pack("<III", version, rows, cols)
    return st.binary(min_size=size, max_size=size).map(lambda body: header + body)


APRD_BYTES = st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda tail: D.BINARY_MAGIC + tail),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.sampled_from([1, 1, 2]),
              st.integers(-9, 2)).flatmap(lambda args: aprd_fuzz(*args)),
)


@FUZZ
@given(text=CSV_TEXT)
def test_load_csv_fuzz_fails_only_as_engine_error(fuzz_dir, text):
    path = fuzz_dir / "fuzz.csv"
    path.write_text(text, encoding="utf-8")
    try:
        loaded = D.load_csv(path)
    except EngineError:
        return
    assert loaded.x.ndim == 2 and np.isfinite(loaded.x).all()


# well-formed files: integer labels, features printed by repr
CSV_NUMBERS = st.lists(
    st.tuples(st.integers(-3, 70), st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=2, max_size=2)),
    min_size=1, max_size=6).map(
    lambda rows: "label,f0,f1\n" + "\n".join(
        ",".join([str(y)] + [repr(v) for v in feats]) for y, feats in rows))


@FUZZ
@given(text=st.one_of(CSV_TEXT, CSV_NUMBERS))
def test_load_csv_table_parse_equals_line_parse(fuzz_dir, text):
    path = fuzz_dir / "same.csv"
    path.write_text(text, encoding="utf-8")
    try:
        x, labels = D._parse_csv_lines(path)
    except DecodeError:
        # a file the line parser rejects is never taken whole, so the
        # line parser reports it
        assert D._parse_csv_table(path) is None
        return
    table = D._parse_csv_table(path)
    if table is not None:
        assert table[1] == labels
        assert np.ascontiguousarray(table[0]).tobytes() == x.tobytes()


@FUZZ
@given(payload=APRD_BYTES)
def test_load_binary_fuzz_fails_only_as_engine_error(fuzz_dir, payload):
    path = fuzz_dir / "fuzz.aprd"
    path.write_bytes(payload)
    try:
        loaded = D.load_binary(path)
    except EngineError:
        return
    assert loaded.x.ndim == 2 and np.isfinite(loaded.x).all()

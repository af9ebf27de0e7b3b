import json
import re

import numpy as np
import pytest

from advreplay import model as M
from advreplay import tensor as T
from advreplay.errors import ContractError, DecodeError, DimensionError
from advreplay.tensor import Tensor


def identity_extractor(dim):
    return M.ExtractorParams(
        (dim, dim), ("identity",),
        [np.eye(dim)], [np.zeros(dim)],
    )


def test_extract_identity_layer():
    params = identity_extractor(3)
    x = np.arange(6, dtype=float).reshape(2, 3)
    np.testing.assert_array_equal(M.extract(params, Tensor(x)).data, x)


def test_extract_zero_weights_relu_annihilates():
    params = M.ExtractorParams(
        (3, 4), ("relu",),
        [np.zeros((3, 4))], [np.zeros(4)],
    )
    out = M.extract(params, Tensor(np.random.default_rng(0).normal(size=(5, 3))))
    np.testing.assert_array_equal(out.data, np.zeros((5, 4)))


def test_extract_width_mismatch():
    params = identity_extractor(3)
    with pytest.raises(DimensionError):
        M.extract(params, Tensor(np.zeros((2, 4))))


def test_extract_gradient_matches_fd():
    rng = np.random.default_rng(5)
    params = M.default_extractor(4, 3, rng, hidden=(8,))
    x = rng.normal(size=(2, 4))

    def sq_norm(arr):
        feats = M.extract(params, Tensor(arr))
        return T.tsum(T.mul(feats, feats))

    leaf = Tensor(x)
    feats = M.extract(params, leaf)
    _, grads = T.value_and_grad(T.tsum(T.mul(feats, feats)), [leaf])
    ad = grads[leaf].data

    fd = np.zeros_like(x)
    step = 1e-5
    for i in range(x.size):
        xp, xm = x.copy().ravel(), x.copy().ravel()
        xp[i] += step
        xm[i] -= step
        fp = T.value_and_grad(sq_norm(xp.reshape(x.shape)), [])[0]
        fm = T.value_and_grad(sq_norm(xm.reshape(x.shape)), [])[0]
        fd.ravel()[i] = (fp - fm) / (2 * step)
    err = np.max(np.abs(ad - fd)) / max(np.max(np.abs(fd)), 1e-6)
    assert err <= 1e-4


def test_cosine_logit_attains_scale_on_aligned_feature():
    rng = np.random.default_rng(1)
    head = M.init_head([0, 1, 2], 4, rng, mode="cosine", scale=16.0)
    direction = head.w_new[1]
    feats = Tensor((3.5 * direction)[None, :])
    out = M.logits(head, feats, "all").data
    assert out[0, 1] == pytest.approx(16.0, abs=1e-9)
    assert out[0, 1] == out.max()


def test_linear_identity_rows_return_coordinates():
    head = M.ClassifierHead("linear", 1.0, (), (0, 1, 2), None, np.eye(3))
    feats = np.array([[0.3, -1.2, 4.0]])
    np.testing.assert_allclose(M.logits(head, Tensor(feats), "all").data, feats,
                               rtol=0, atol=0)


def test_old_split_columns_match_all_split():
    rng = np.random.default_rng(2)
    head = M.ClassifierHead(
        "cosine", 16.0,
        old_ids=(0, 2, 4), new_ids=(1, 3),
        w_old=rng.normal(size=(3, 6)),
        w_new=rng.normal(size=(2, 6)),
    )
    feats = Tensor(rng.normal(size=(5, 6)))
    all_logits = M.logits(head, feats, "all").data
    old_logits = M.logits(head, feats, "old_only").data
    new_logits = M.logits(head, feats, "new_only").data
    assert old_logits.shape == (5, 3)
    # all-split columns are ordered by class id: 0,1,2,3,4
    np.testing.assert_array_equal(old_logits, all_logits[:, [0, 2, 4]])
    np.testing.assert_array_equal(new_logits, all_logits[:, [1, 3]])


def test_cosine_logits_bounded_by_scale():
    rng = np.random.default_rng(3)
    head = M.init_head(range(7), 5, rng, mode="cosine", scale=16.0)
    for _ in range(20):
        feats = Tensor(rng.normal(size=(8, 5)) * 10.0 ** rng.integers(-3, 4))
        out = M.logits(head, feats, "all").data
        assert np.all(np.abs(out) <= 16.0 + 1e-9)


def test_missing_split_raises():
    rng = np.random.default_rng(4)
    head = M.init_head([0, 1], 3, rng)
    with pytest.raises(ContractError):
        M.logits(head, Tensor(np.zeros((1, 3))), "old_only")


def make_state(rng, n_classes=3, input_dim=4, d=3):
    extractor = M.default_extractor(input_dim, d, rng, hidden=(8,))
    head = M.init_head(range(n_classes), d, rng)
    return M.ModelState(extractor, head, None, 0)


def test_snapshot_survives_training_steps():
    rng = np.random.default_rng(6)
    state = make_state(rng)
    state = M.snapshot(state)
    frozen_sum = M.checksum(*state.frozen)
    x = rng.normal(size=(4, 4))

    for _ in range(10):
        leaves = [Tensor(p) for p in M.trainable_params(state)]
        feats = M.extract(M.with_params(state, leaves).extractor, Tensor(x))
        loss = T.tsum(T.mul(feats, feats))
        _, grads = T.value_and_grad(loss, leaves)
        state = M.with_params(state, [p.data - 0.05 * grads[p].data for p in leaves])

    assert M.checksum(*state.frozen) == frozen_sum
    assert M.checksum(state.extractor, state.head) != frozen_sum


def test_frozen_present_exactly_when_task_positive():
    rng = np.random.default_rng(7)
    state = make_state(rng)
    assert state.frozen is None and state.task_index == 0
    state = M.begin_task(state, [3, 4], rng)
    assert state.frozen is not None and state.task_index == 1
    assert state.head.old_ids == (0, 1, 2)
    assert state.head.new_ids == (3, 4)


def test_frozen_and_current_agree_right_after_snapshot():
    rng = np.random.default_rng(8)
    state = M.snapshot(make_state(rng))
    x = Tensor(rng.normal(size=(6, 4)))
    cur = M.extract(state.extractor, x).data
    froz = M.extract(state.frozen[0], x).data
    assert np.array_equal(cur, froz)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(9)
    state = M.begin_task(make_state(rng), [3, 4], rng)
    path = tmp_path / "model.json"
    M.save_checkpoint(state, path)
    loaded = M.load_checkpoint(path)
    assert M.checksum(loaded.extractor, loaded.head) == M.checksum(state.extractor, state.head)
    assert M.checksum(*loaded.frozen) == M.checksum(*state.frozen)
    assert loaded.task_index == state.task_index
    assert loaded.head.old_ids == state.head.old_ids
    assert loaded.head.mode == state.head.mode
    assert not any(p.flags.writeable for p in M.trainable_params(loaded))


def _tolist_checkpoint_record(state):
    """The record ``save_checkpoint`` wrote when it converted every array
    first."""
    def part(ext, head):
        return {"extractor": {"widths": list(ext.widths), "activations": list(ext.activations),
                              "weights": [w.tolist() for w in ext.weights],
                              "biases": [b.tolist() for b in ext.biases]},
                "head": {"mode": head.mode, "scale": head.scale, "old_ids": list(head.old_ids),
                         "new_ids": list(head.new_ids),
                         "w_old": None if head.w_old is None else head.w_old.tolist(),
                         "w_new": head.w_new.tolist()}}

    return {"format_version": M.CHECKPOINT_VERSION, "task_index": state.task_index,
            "current": part(state.extractor, state.head),
            "frozen": None if state.frozen is None else part(*state.frozen)}


@pytest.mark.parametrize("task", [0, 1, 2])
def test_save_checkpoint_writes_the_json_of_the_tolist_record(tmp_path, task):
    rng = np.random.default_rng(10)
    state = make_state(rng)
    for t in range(task):
        state = M.begin_task(state, [3 + 2 * t, 4 + 2 * t], rng)
    assert (state.frozen is None and state.head.w_old is None) == (task == 0)
    path = tmp_path / "model.json"
    M.save_checkpoint(state, path)
    assert path.read_bytes() == json.dumps(_tolist_checkpoint_record(state)).encode()


def _set(*path, value):
    def edit(rec):
        for key in path[:-1]:
            rec = rec[key]
        rec[path[-1]] = value
    return edit


def _drop(*path):
    def edit(rec):
        for key in path[:-1]:
            rec = rec[key]
        del rec[path[-1]]
    return edit


# model.json edits (widths 4 -> 8 -> 3, two old and two new classes) that
# escaped as raw exceptions or loaded silently before the loader checked them
BAD_CHECKPOINTS = {
    "invalid-json": ('{"format_version": 1, "current": {', "not valid JSON"),
    "not-an-object": ("[1, 2]", "expected a JSON object"),
    "repeated-key": ('{"format_version": 1, "format_version": 1}',
                     "repeated key 'format_version'"),
    "missing-frozen": (_drop("frozen"), "missing key 'frozen'"),
    "missing-weights": (_drop("current", "extractor", "weights"),
                        "current.extractor: missing key 'weights'"),
    "weight-shape": (_set("current", "extractor", "weights", 0, value=[[0.0] * 3] * 2),
                     "current.extractor: 'weights[0]' has shape (2, 3), expected (4, 8)"),
    "bias-count": (_set("frozen", "extractor", "biases", value=[[0.0] * 8]),
                   "frozen.extractor: 'biases' must be a list of 2 arrays"),
    "unknown-activation": (_set("current", "extractor", "activations", 0, value="gelu"),
                           "current.extractor: 'activations' must name"),
    "head-shape": (_set("current", "head", "w_new", value=[[1.0, 2.0]]),
                   "current.head: 'w_new' has shape (1, 2), expected (2, 3)"),
    "nan-weight": (_set("current", "head", "w_old", 0, 0, value=float("nan")),
                   "current.head: 'w_old' has non-finite values"),
    "task-index-type": (_set("task_index", value="1"), "'task_index' must be an integer"),
    "version": (_set("format_version", value=2), "unsupported 'format_version' 2"),
    "widths": (_set("current", "extractor", "widths", value=[4]),
               "current.extractor: 'widths' must list at least two positive integers"),
    "class-ids": (_set("frozen", "head", "new_ids", value=[0, 1.5]),
                  "frozen.head: 'new_ids' must be a list of integer class ids"),
    "head-mode": (_set("current", "head", "mode", value="quadratic"),
                  "current.head: 'mode' must be 'cosine' or 'linear'"),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_load_checkpoint_bad_file_names_file_and_key(tmp_path, case):
    edit, expected = BAD_CHECKPOINTS[case]
    path = tmp_path / "model.json"
    if isinstance(edit, str):
        path.write_text(edit)
    else:
        rng = np.random.default_rng(11)
        M.save_checkpoint(M.begin_task(make_state(rng, n_classes=2), [3, 4], rng), path)
        record = json.loads(path.read_text())
        edit(record)
        path.write_text(json.dumps(record))
    with pytest.raises(DecodeError, match=re.escape(expected)) as err:
        M.load_checkpoint(path)
    assert str(path) in str(err.value)


def test_grow_head_rejects_duplicate_ids():
    rng = np.random.default_rng(10)
    head = M.init_head([0, 1], 3, rng)
    with pytest.raises(ContractError):
        M.grow_head(head, [1, 2], rng)

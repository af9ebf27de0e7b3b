"""Feature extractor, split classifier head, and model-state snapshotting.

The classifier keeps the weights of previously seen ("old") classes and the
current task's ("new") classes as two separate parameters.  That makes the
split contract structural: a loss built from one block cannot leak gradient
into the other.

Parameters are read-only float64 arrays.  During training they are
reshaped views of the one contiguous vector that the training loop holds,
laid out in ``trainable_params`` order (see ``param_views``), so an SGD
step is one in-place update of that vector.  The plain extractor
pass runs in the dtype of the parameters it is given: the replay attack
hands it a float32 copy of the frozen extractor, every other caller the
float64 parameters themselves.  The taped ``extract``
and ``logits`` are the gradient oracle of the plain-numpy passes and also
take ``tensor.Tensor`` leaves as parameters (see ``with_params``).  The
plain head splits into ``head_input_vjp``, the features as every block
reads them (unit rows in cosine mode), and ``input_block_vjp``, one
block's logits of them, so that blocks reading the same rows normalize
them once.

The plain-numpy extractor pass ``feature_vjp`` checks finiteness at the
input once, at each tanh layer's pre-activation, and at the output once:
relu and identity layers carry a NaN or inf through to the output, and a
failed output check rescans the saved layer outputs to name the first
layer whose pre-activation was non-finite.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .arrays import read_json, readonly, record_array, record_field, record_int, write_atomic
from .errors import ContractError, DecodeError, DimensionError, NumericError

ACTIVATIONS = ("relu", "tanh", "identity")
HEAD_MODES = ("cosine", "linear")

CHECKPOINT_VERSION = 1


@dataclass
class ExtractorParams:
    """MLP parameters; layer i maps widths[i] -> widths[i+1]."""

    widths: tuple[int, ...]
    activations: tuple[str, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def feature_dim(self) -> int:
        return self.widths[-1]


@dataclass
class ClassifierHead:
    """Per-class weight vectors split into old-task and new-task blocks.

    ``old_ids`` and ``new_ids`` are ascending global class ids; ``w_old`` and
    ``w_new`` hold one weight row per id.  In cosine mode a logit is
    ``scale * cos(feature, weight)``, so logits are bounded by ±scale.
    """

    mode: str  # "cosine" | "linear"
    scale: float
    old_ids: tuple[int, ...]
    new_ids: tuple[int, ...]
    w_old: np.ndarray | None
    w_new: np.ndarray

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.old_ids + self.new_ids))


@dataclass(frozen=True)
class ModelState:
    """The current model, the frozen snapshot (from task 1 on) and the task."""

    extractor: ExtractorParams
    head: ClassifierHead
    frozen: tuple[ExtractorParams, ClassifierHead] | None
    task_index: int


def init_extractor(widths, activations, rng) -> ExtractorParams:
    widths = tuple(int(w) for w in widths)
    activations = tuple(activations)
    if len(activations) != len(widths) - 1:
        raise ContractError("need one activation tag per layer")
    for act in activations:
        if act not in ACTIVATIONS:
            raise ContractError(f"unknown activation {act!r}")
    weights, biases = [], []
    for fan_in, fan_out, act in zip(widths[:-1], widths[1:], activations):
        std = np.sqrt(2.0 / fan_in) if act == "relu" else np.sqrt(1.0 / fan_in)
        weights.append(readonly(rng.normal(0.0, std, size=(fan_in, fan_out)), "weights"))
        biases.append(readonly(np.zeros(fan_out), "biases"))
    return ExtractorParams(widths, activations, weights, biases)


def default_extractor(input_dim: int, feature_dim: int, rng,
                      hidden=(256, 128), activation="relu") -> ExtractorParams:
    widths = (input_dim, *hidden, feature_dim)
    activations = (activation,) * len(hidden) + ("identity",)
    return init_extractor(widths, activations, rng)


def _apply_activation(h: T.Tensor, act: str) -> T.Tensor:
    if act == "relu":
        return T.relu(h)
    if act == "tanh":
        return T.tanh(h)
    return h


def extract(params: ExtractorParams, x) -> T.Tensor:
    """Run the extractor on a (batch, input_dim) input, on the tape.

    This is the gradient oracle for ``feature_vjp``; parameters may be
    arrays or ``Tensor`` leaves.  Every other caller uses ``features`` /
    ``feature_vjp``.
    """
    x = T.as_tensor(x)
    if x.data.ndim != 2 or x.shape[1] != params.widths[0]:
        raise DimensionError(
            f"extract: expected (batch, {params.widths[0]}) input, got {x.shape}")
    h = x
    for w, b, act in zip(params.weights, params.biases, params.activations):
        h = _apply_activation(T.add(T.matmul(h, w), b), act)
    return h


def _raise_first_nonfinite(outputs) -> None:
    """Raise ``NumericError`` naming the first layer whose output (relu,
    identity) or pre-activation (tanh) in ``outputs`` is non-finite."""
    i = next(i for i, out in enumerate(outputs) if not np.isfinite(out).all())
    raise NumericError(f"non-finite pre-activation in extractor layer {i}")


def feature_vjp(params: ExtractorParams, x):
    """Plain-numpy extractor pass: features plus a VJP.

    Returns ``(feats, vjp)``.  ``vjp(g)`` maps a (batch, feature_dim)
    cotangent to the (batch, input_dim) input gradient; ``vjp(g,
    param_grads=True)`` instead returns the per-layer weight and bias
    gradients as two lists in layer order.  With ``rows=n``, ``g`` holds
    the cotangent of the first n rows only, and the VJP is that of a pass
    over those rows alone, read from their slices of the saved layer inputs
    and masks.  No tape is built; every op is the one ``extract`` and its
    backward pass perform, in the same order, so results are bit-identical
    (with ``rows``, where the first rows of the bigger pass round as a
    pass of their own, which holds at the shipped widths; wider layers can
    round them by call size).

    The pass computes in the dtype of ``params``' weights, to which ``x``
    is cast.  That is float64, with the tape's bits, for every caller but
    the replay attack, which passes a float32 copy.

    The tape's checks are kept, with fewer scans.  A bad input shape raises
    ``DimensionError`` and a non-finite input ``NumericError``.  Relu is
    ``z * mask + 0.0``, which equals ``np.where(mask, z, 0.0)`` on finite
    values but turns NaN and -inf into NaN, so a non-finite pre-activation
    of a relu or identity layer reaches the output.  Tanh maps +-inf to
    +-1, so each tanh layer checks its own pre-activation.  The output is
    checked once; on failure the saved layer outputs are scanned so the
    ``NumericError`` names the first layer with a non-finite
    pre-activation, as a check after every layer would.  ``vjp(g)`` raises
    ``NumericError`` on a non-finite input gradient.
    """
    h = np.asarray(x, dtype=params.weights[0].dtype)
    if h.ndim != 2 or h.shape[1] != params.widths[0]:
        raise DimensionError(
            f"features: expected (batch, {params.widths[0]}) input, got {h.shape}")
    if not np.isfinite(h).all():
        raise NumericError("non-finite values in extractor input")
    inputs = []  # per layer: the layer's input
    saved = []  # per layer: relu mask, tanh output, or None for identity
    for w, b, act in zip(params.weights, params.biases, params.activations):
        inputs.append(h)
        z = h @ w
        z += b
        if act == "relu":
            mask = z > 0.0
            z *= mask  # NaN and -inf become NaN, +inf stays
            z += 0.0  # -0.0 becomes +0.0, as in the tape's np.where(mask, z, 0.0)
            saved.append(mask)
        elif act == "tanh":
            if not np.isfinite(z).all():
                _raise_first_nonfinite([*inputs[1:], z])
            z = np.tanh(z)
            saved.append(z)
        else:
            saved.append(None)
        h = z
    if not np.isfinite(h).all():
        _raise_first_nonfinite([*inputs[1:], h])

    def vjp(g: np.ndarray, param_grads: bool = False, rows: int | None = None):
        layer_in, layer_saved = inputs, saved
        if rows is not None:
            layer_in = [a[:rows] for a in inputs]
            layer_saved = [None if a is None else a[:rows] for a in saved]
        g_w, g_b = [], []
        for i in reversed(range(len(saved))):
            act, kept = params.activations[i], layer_saved[i]
            if act == "relu":
                g = g * kept
            elif act == "tanh":
                g = g * (1.0 - kept * kept)
            if param_grads:
                g_w.append(layer_in[i].T @ g)
                g_b.append(np.add.reduce(g, axis=0))
                if i == 0:
                    return g_w[::-1], g_b[::-1]
            g = g @ params.weights[i].T
        if not np.isfinite(g).all():
            raise NumericError("non-finite input gradient")
        return g

    return h, vjp


def features(params: ExtractorParams, x) -> np.ndarray:
    """Plain-numpy extractor forward for callers that never backpropagate
    (evaluation, class statistics, candidate and drift features)."""
    return feature_vjp(params, x)[0]


def init_head(new_ids, feature_dim: int, rng, mode: str = "cosine",
              scale: float = 16.0, init_std: float = 0.01) -> ClassifierHead:
    if mode not in HEAD_MODES:
        raise ContractError(f"unknown head mode {mode!r}")
    new_ids = tuple(sorted(int(c) for c in new_ids))
    w_new = readonly(rng.normal(0.0, init_std, size=(len(new_ids), feature_dim)), "head weights")
    return ClassifierHead(mode, float(scale), (), new_ids, None, w_new)


def grow_head(head: ClassifierHead, new_ids, rng, init_std: float = 0.01) -> ClassifierHead:
    """Fold the current blocks into the old block and open a fresh new block."""
    new_ids = tuple(sorted(int(c) for c in new_ids))
    overlap = set(new_ids) & set(head.class_ids)
    if overlap:
        raise ContractError(f"class ids {sorted(overlap)} already present in head")
    blocks = [head.w_new] if head.w_old is None else [head.w_old, head.w_new]
    order = np.argsort(head.old_ids + head.new_ids, kind="stable")
    w_old = readonly(np.concatenate(blocks)[order], "head weights")
    d = w_old.shape[1]
    w_new = readonly(rng.normal(0.0, init_std, size=(len(new_ids), d)), "head weights")
    return ClassifierHead(head.mode, head.scale, head.class_ids, new_ids, w_old, w_new)


def _check_split(head: ClassifierHead, split: str) -> None:
    if split not in ("all", "old_only", "new_only"):
        raise ContractError(f"unknown split {split!r}")
    if split == "old_only" and not head.old_ids:
        raise ContractError("old_only split requested but head has no old classes")
    if split == "new_only" and not head.new_ids:
        raise ContractError("new_only split requested but head has no new classes")


def logits(head: ClassifierHead, features, split: str = "all") -> T.Tensor:
    """Class logits restricted to a split, columns ordered by global class id.

    This is the taped head; it stays as the oracle for ``input_block_vjp``
    and ``head_logits``, which training and evaluation use.  The head
    weights may be arrays or ``Tensor`` leaves.
    """
    features = T.as_tensor(features)
    _check_split(head, split)

    def block(w) -> T.Tensor:
        if head.mode == "cosine":
            f = T.normalize(features, axis=1)
            wn = T.normalize(w, axis=1)
            return T.mul(T.matmul(f, T.transpose(wn)), head.scale)
        return T.matmul(features, T.transpose(w))

    if split == "old_only":
        return block(head.w_old)
    if split == "new_only":
        return block(head.w_new)
    if not head.old_ids:
        return block(head.w_new)
    joint = T.concat([block(head.w_old), block(head.w_new)], axis=1)
    return T.permute_columns(joint, np.argsort(head.old_ids + head.new_ids, kind="stable"))


def head_input_vjp(head: ClassifierHead, feats: np.ndarray):
    """What each block of ``head`` multiplies by its weights, plus the VJP
    back to ``feats``: the rows of ``feats`` scaled to unit norm in cosine
    mode, ``feats`` itself in linear mode.  Blocks that read the same rows
    share one call, as the taped ``logits`` would compute it once per block
    with the same bits."""
    if head.mode == "cosine":
        return T.normalize_vjp(feats, axis=1)
    return feats, _identity


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def input_block_vjp(head: ClassifierHead, w: np.ndarray, head_in):
    """Plain-numpy logits of one head block plus their VJP, from the
    ``head_input_vjp`` pair of the features.

    Returns ``(out, vjp)`` where ``out`` holds one column per row of ``w``
    and ``vjp(g)`` maps a logit cotangent to ``(feature grad, w grad)``.
    The ops and memory layouts are the taped ``logits`` block's, in the
    same order, so results are bit-identical.  A non-finite logit raises
    ``NumericError``.
    """
    f, f_vjp = head_in
    if head.mode == "cosine":
        wn, wn_vjp = T.normalize_vjp(w, axis=1)
        wnT = wn.T.copy()  # the C-ordered copy the tape's transpose makes
        out = f @ wnT
        out *= head.scale

        def vjp(g):
            g = g * head.scale
            return f_vjp(g @ wnT.T), wn_vjp((f.T @ g).T)
    else:
        wT = w.T.copy()
        out = f @ wT

        def vjp(g):
            return f_vjp(g @ wT.T), (f.T @ g).T

    if not np.isfinite(out).all():
        raise NumericError("non-finite logits")
    return out, vjp


def head_logits(head: ClassifierHead, feats: np.ndarray) -> np.ndarray:
    """Plain-numpy ``logits`` over all classes: the forward half of
    ``input_block_vjp`` per block, columns gathered into global class-id
    order; bit-identical to the tape."""
    head_in = head_input_vjp(head, feats)  # every block reads it
    if not head.old_ids:
        return input_block_vjp(head, head.w_new, head_in)[0]
    joint = np.concatenate([input_block_vjp(head, head.w_old, head_in)[0],
                            input_block_vjp(head, head.w_new, head_in)[0]], axis=1)
    return np.take(joint, np.argsort(head.old_ids + head.new_ids, kind="stable"), axis=1)


def snapshot(state: ModelState) -> ModelState:
    """Copy the current model into the frozen slot.  The parameter arrays
    are read-only, so the copy shares them and owns only its containers."""
    ext, head = state.extractor, state.head
    frozen_ext = replace(ext, weights=list(ext.weights), biases=list(ext.biases))
    return ModelState(ext, head, (frozen_ext, replace(head)), state.task_index)


def begin_task(state: ModelState, new_class_ids, rng, init_std: float = 0.01) -> ModelState:
    """Snapshot the model and open task t+1 with a grown head."""
    snapped = snapshot(state)
    return ModelState(
        snapped.extractor,
        grow_head(snapped.head, new_class_ids, rng, init_std),
        snapped.frozen,
        snapped.task_index + 1,
    )


def trainable_params(state: ModelState) -> list[np.ndarray]:
    """Extractor weights, extractor biases, then ``w_old`` (when present)
    and ``w_new``; ``with_params`` and ``param_views`` use this order."""
    params = list(state.extractor.weights) + list(state.extractor.biases)
    if state.head.w_old is not None:
        params.append(state.head.w_old)
    params.append(state.head.w_new)
    return params


def with_params(state: ModelState, arrays) -> ModelState:
    """``state`` with its trainable parameters replaced, one entry per
    ``trainable_params(state)`` entry in that order.  The frozen slot is
    kept as is."""
    arrays = list(arrays)
    ext, head = state.extractor, state.head
    n = len(ext.weights)
    want = 2 * n + (head.w_old is not None) + 1
    if len(arrays) != want:
        raise ContractError(f"expected {want} parameters, got {len(arrays)}")
    return ModelState(
        ExtractorParams(ext.widths, ext.activations, arrays[:n], arrays[n:2 * n]),
        ClassifierHead(head.mode, head.scale, head.old_ids, head.new_ids,
                       None if head.w_old is None else arrays[2 * n], arrays[-1]),
        state.frozen, state.task_index)


def param_views(state: ModelState, flat: np.ndarray) -> list[np.ndarray]:
    """Reshaped views of the 1-d ``flat``, one per ``trainable_params(state)``
    entry with its shape, in that order.  This is the layout of the
    parameter vector ``train.sgd_step`` updates and of the gradient
    ``train.loss_and_grads`` returns; a ``flat`` of the wrong length raises
    ``ContractError``."""
    params = trainable_params(state)
    total = sum(p.size for p in params)
    if flat.shape != (total,):
        raise ContractError(f"expected a flat vector of {total} values, got shape {flat.shape}")
    views, start = [], 0
    for p in params:
        views.append(flat[start:start + p.size].reshape(p.shape))
        start += p.size
    return views


# -- integrity and persistence ------------------------------------------------


def checksum(extractor: ExtractorParams, head: ClassifierHead) -> str:
    """SHA-256 over raw parameter bytes; used to assert the freeze contract."""
    h = hashlib.sha256()
    for w in extractor.weights:
        h.update(w.tobytes())
    for b in extractor.biases:
        h.update(b.tobytes())
    if head.w_old is not None:
        h.update(head.w_old.tobytes())
    h.update(head.w_new.tobytes())
    return h.hexdigest()


def _extractor_record(params: ExtractorParams) -> dict:
    return {
        "widths": list(params.widths),
        "activations": list(params.activations),
        "weights": list(params.weights),
        "biases": list(params.biases),
    }


def _record_arrays(rec, key: str, shapes: list, where: str) -> list[np.ndarray]:
    """``rec[key]`` as a list of arrays, one per entry of ``shapes``."""
    items = record_field(rec, key, where)
    if not isinstance(items, list) or len(items) != len(shapes):
        raise DecodeError(f"{where}: {key!r} must be a list of {len(shapes)} arrays")
    named = {f"{key}[{i}]": item for i, item in enumerate(items)}
    return [record_array(named, name, shape, where) for name, shape in zip(named, shapes)]


def _extractor_from_record(rec, where: str) -> ExtractorParams:
    widths = record_field(rec, "widths", where)
    if (not isinstance(widths, list) or len(widths) < 2
            or not all(type(w) is int and w > 0 for w in widths)):
        raise DecodeError(f"{where}: 'widths' must list at least two positive integers")
    acts = record_field(rec, "activations", where)
    if (not isinstance(acts, list) or len(acts) != len(widths) - 1
            or not all(a in ACTIVATIONS for a in acts)):
        raise DecodeError(f"{where}: 'activations' must name one of {ACTIVATIONS} per layer")
    layers = list(zip(widths[:-1], widths[1:]))
    return ExtractorParams(tuple(widths), tuple(acts),
                           _record_arrays(rec, "weights", layers, where),
                           _record_arrays(rec, "biases", [(n,) for _, n in layers], where))


def _head_record(head: ClassifierHead) -> dict:
    return {
        "mode": head.mode,
        "scale": head.scale,
        "old_ids": list(head.old_ids),
        "new_ids": list(head.new_ids),
        "w_old": head.w_old,
        "w_new": head.w_new,
    }


def _class_ids(rec, key: str, where: str) -> tuple[int, ...]:
    ids = record_field(rec, key, where)
    if not isinstance(ids, list) or not all(type(c) is int for c in ids):
        raise DecodeError(f"{where}: {key!r} must be a list of integer class ids")
    return tuple(ids)


def _head_from_record(rec, feature_dim: int, where: str) -> ClassifierHead:
    mode = record_field(rec, "mode", where)
    if mode not in HEAD_MODES:
        raise DecodeError(f"{where}: 'mode' must be 'cosine' or 'linear', got {mode!r}")
    old_ids, new_ids = _class_ids(rec, "old_ids", where), _class_ids(rec, "new_ids", where)
    w_old = None
    if old_ids or record_field(rec, "w_old", where) is not None:
        w_old = record_array(rec, "w_old", (len(old_ids), feature_dim), where)
    return ClassifierHead(mode, float(record_array(rec, "scale", (), where)), old_ids, new_ids,
                          w_old, record_array(rec, "w_new", (len(new_ids), feature_dim), where))


def save_checkpoint(state: ModelState, path) -> None:
    """JSON checkpoint; float64 values round-trip bit-exactly via repr.  The
    record holds the arrays themselves; each becomes a list of Python floats
    only while it is encoded."""
    record = {
        "format_version": CHECKPOINT_VERSION,
        "task_index": state.task_index,
        "current": {
            "extractor": _extractor_record(state.extractor),
            "head": _head_record(state.head),
        },
        "frozen": None if state.frozen is None else {
            "extractor": _extractor_record(state.frozen[0]),
            "head": _head_record(state.frozen[1]),
        },
    }
    write_atomic(path, json.dumps(record, default=np.ndarray.tolist))


def load_checkpoint(path) -> ModelState:
    """Read a ``save_checkpoint`` file.  A file that is not valid JSON, or a
    missing, mistyped or misshapen field, raises a ``DecodeError`` naming
    the file and the key."""
    record = read_json(path)
    if record_int(record, "format_version", str(path)) != CHECKPOINT_VERSION:
        raise DecodeError(f"{path}: unsupported 'format_version' {record['format_version']}")

    def model(key: str) -> tuple[ExtractorParams, ClassifierHead]:
        part, where = record_field(record, key, str(path)), f"{path}: {key}"
        ext = _extractor_from_record(record_field(part, "extractor", where), f"{where}.extractor")
        head = _head_from_record(record_field(part, "head", where), ext.feature_dim,
                                 f"{where}.head")
        return ext, head

    frozen = None if record_field(record, "frozen", str(path)) is None else model("frozen")
    return ModelState(*model("current"), frozen, record_int(record, "task_index", str(path)))

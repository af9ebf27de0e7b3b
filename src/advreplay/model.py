"""Feature extractor, split classifier head, and model-state snapshotting.

The classifier keeps the weights of previously seen ("old") classes and the
current task's ("new") classes as two separate parameter leaves.  That makes
the split contract structural: a loss built from one block cannot leak
gradient into the other.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ContractError, DimensionError, NumericError
from .tensor import Tensor

_ACTIVATIONS = ("relu", "tanh", "identity")

CHECKPOINT_VERSION = 1


@dataclass
class ExtractorParams:
    """MLP parameters; layer i maps widths[i] -> widths[i+1]."""

    widths: tuple[int, ...]
    activations: tuple[str, ...]
    weights: list[Tensor]
    biases: list[Tensor]

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
    w_old: Tensor | None
    w_new: Tensor

    @property
    def class_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.old_ids + self.new_ids))


@dataclass
class ModelState:
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
        if act not in _ACTIVATIONS:
            raise ContractError(f"unknown activation {act!r}")
    weights, biases = [], []
    for fan_in, fan_out, act in zip(widths[:-1], widths[1:], activations):
        std = np.sqrt(2.0 / fan_in) if act == "relu" else np.sqrt(1.0 / fan_in)
        weights.append(Tensor(rng.normal(0.0, std, size=(fan_in, fan_out))))
        biases.append(Tensor(np.zeros(fan_out)))
    return ExtractorParams(widths, activations, weights, biases)


def default_extractor(input_dim: int, feature_dim: int, rng,
                      hidden=(256, 128), activation="relu") -> ExtractorParams:
    widths = (input_dim, *hidden, feature_dim)
    activations = (activation,) * len(hidden) + ("identity",)
    return init_extractor(widths, activations, rng)


def _apply_activation(h: Tensor, act: str) -> Tensor:
    if act == "relu":
        return T.relu(h)
    if act == "tanh":
        return T.tanh(h)
    return h


def extract(params: ExtractorParams, x: Tensor) -> Tensor:
    """Run the extractor on a (batch, input_dim) tensor, on the tape.

    This is the taped path: SGD on the trainable parameters and gradient
    checks use it.  Callers that only need features, or the gradient with
    respect to the input, use ``features`` / ``feature_vjp``.
    """
    x = T.as_tensor(x)
    if x.data.ndim != 2 or x.shape[1] != params.widths[0]:
        raise DimensionError(
            f"extract: expected (batch, {params.widths[0]}) input, got {x.shape}")
    h = x
    for w, b, act in zip(params.weights, params.biases, params.activations):
        h = _apply_activation(T.add(T.matmul(h, w), b), act)
    return h


def feature_vjp(params: ExtractorParams, x):
    """Plain-numpy extractor pass: features plus an input-gradient VJP.

    Returns ``(feats, vjp)`` where ``vjp(g)`` maps a (batch, feature_dim)
    cotangent to the (batch, input_dim) input gradient.  No tape is built;
    every op is the one ``extract`` and its backward pass perform, in the
    same order, so results are bit-identical.  The tape's checks are kept:
    a bad input shape raises ``DimensionError``, and a non-finite input,
    pre-activation or input gradient raises ``NumericError``.
    """
    h = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.widths[0]:
        raise DimensionError(
            f"features: expected (batch, {params.widths[0]}) input, got {h.shape}")
    if not np.isfinite(h).all():
        raise NumericError("non-finite values in extractor input")
    saved = []  # per layer: relu mask, tanh output, or None for identity
    for i, (w, b, act) in enumerate(zip(params.weights, params.biases, params.activations)):
        z = h @ w.data + b.data
        if not np.isfinite(z).all():
            raise NumericError(f"non-finite pre-activation in extractor layer {i}")
        if act == "relu":
            mask = z > 0.0
            h = np.where(mask, z, 0.0)
            saved.append(mask)
        elif act == "tanh":
            h = np.tanh(z)
            saved.append(h)
        else:
            h = z
            saved.append(None)

    def vjp(g: np.ndarray) -> np.ndarray:
        for w, act, kept in zip(reversed(params.weights), reversed(params.activations),
                                reversed(saved)):
            if act == "relu":
                g = g * kept
            elif act == "tanh":
                g = g * (1.0 - kept * kept)
            g = g @ w.data.T
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
    if mode not in ("cosine", "linear"):
        raise ContractError(f"unknown head mode {mode!r}")
    new_ids = tuple(sorted(int(c) for c in new_ids))
    w_new = Tensor(rng.normal(0.0, init_std, size=(len(new_ids), feature_dim)))
    return ClassifierHead(mode, float(scale), (), new_ids, None, w_new)


def grow_head(head: ClassifierHead, new_ids, rng, init_std: float = 0.01) -> ClassifierHead:
    """Fold the current blocks into the old block and open a fresh new block."""
    new_ids = tuple(sorted(int(c) for c in new_ids))
    overlap = set(new_ids) & set(head.class_ids)
    if overlap:
        raise ContractError(f"class ids {sorted(overlap)} already present in head")
    merged_ids = head.class_ids
    rows = {cid: _head_row(head, cid) for cid in merged_ids}
    w_old = Tensor(np.stack([rows[cid] for cid in merged_ids]))
    d = w_old.shape[1]
    w_new = Tensor(rng.normal(0.0, init_std, size=(len(new_ids), d)))
    return ClassifierHead(head.mode, head.scale, merged_ids, new_ids, w_old, w_new)


def _head_row(head: ClassifierHead, cid: int) -> np.ndarray:
    if cid in head.old_ids:
        return head.w_old.data[head.old_ids.index(cid)]
    return head.w_new.data[head.new_ids.index(cid)]


def logits(head: ClassifierHead, features: Tensor, split: str = "all") -> Tensor:
    """Class logits restricted to a split, columns ordered by global class id."""
    features = T.as_tensor(features)
    if split not in ("all", "old_only", "new_only"):
        raise ContractError(f"unknown split {split!r}")
    if split == "old_only" and not head.old_ids:
        raise ContractError("old_only split requested but head has no old classes")
    if split == "new_only" and not head.new_ids:
        raise ContractError("new_only split requested but head has no new classes")

    def block(w: Tensor) -> Tensor:
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


def _copy_extractor(params: ExtractorParams) -> ExtractorParams:
    return ExtractorParams(
        params.widths, params.activations,
        [Tensor(w.data) for w in params.weights],
        [Tensor(b.data) for b in params.biases],
    )


def _copy_head(head: ClassifierHead) -> ClassifierHead:
    return ClassifierHead(
        head.mode, head.scale, head.old_ids, head.new_ids,
        None if head.w_old is None else Tensor(head.w_old.data),
        Tensor(head.w_new.data),
    )


def snapshot(state: ModelState) -> ModelState:
    """Deep-copy the current model into the frozen slot."""
    return ModelState(
        state.extractor, state.head,
        (_copy_extractor(state.extractor), _copy_head(state.head)),
        state.task_index,
    )


def begin_task(state: ModelState, new_class_ids, rng, init_std: float = 0.01) -> ModelState:
    """Snapshot the model and open task t+1 with a grown head."""
    snapped = snapshot(state)
    return ModelState(
        snapped.extractor,
        grow_head(snapped.head, new_class_ids, rng, init_std),
        snapped.frozen,
        snapped.task_index + 1,
    )


def trainable_params(state: ModelState) -> list[Tensor]:
    params = list(state.extractor.weights) + list(state.extractor.biases)
    if state.head.w_old is not None:
        params.append(state.head.w_old)
    params.append(state.head.w_new)
    return params


def replace_params(state: ModelState, mapping: dict[Tensor, Tensor]) -> ModelState:
    """Functional parameter update: swap leaves for new tensors."""
    ext = state.extractor
    new_ext = ExtractorParams(
        ext.widths, ext.activations,
        [mapping.get(w, w) for w in ext.weights],
        [mapping.get(b, b) for b in ext.biases],
    )
    head = state.head
    new_head = ClassifierHead(
        head.mode, head.scale, head.old_ids, head.new_ids,
        None if head.w_old is None else mapping.get(head.w_old, head.w_old),
        mapping.get(head.w_new, head.w_new),
    )
    return ModelState(new_ext, new_head, state.frozen, state.task_index)


# -- integrity and persistence ------------------------------------------------


def checksum(extractor: ExtractorParams, head: ClassifierHead) -> str:
    """SHA-256 over raw parameter bytes; used to assert the freeze contract."""
    h = hashlib.sha256()
    for w in extractor.weights:
        h.update(w.data.tobytes())
    for b in extractor.biases:
        h.update(b.data.tobytes())
    if head.w_old is not None:
        h.update(head.w_old.data.tobytes())
    h.update(head.w_new.data.tobytes())
    return h.hexdigest()


def _extractor_record(params: ExtractorParams) -> dict:
    return {
        "widths": list(params.widths),
        "activations": list(params.activations),
        "weights": [w.data.tolist() for w in params.weights],
        "biases": [b.data.tolist() for b in params.biases],
    }


def _extractor_from_record(rec: dict) -> ExtractorParams:
    return ExtractorParams(
        tuple(rec["widths"]), tuple(rec["activations"]),
        [Tensor(np.array(w)) for w in rec["weights"]],
        [Tensor(np.array(b)) for b in rec["biases"]],
    )


def _head_record(head: ClassifierHead) -> dict:
    return {
        "mode": head.mode,
        "scale": head.scale,
        "old_ids": list(head.old_ids),
        "new_ids": list(head.new_ids),
        "w_old": None if head.w_old is None else head.w_old.data.tolist(),
        "w_new": head.w_new.data.tolist(),
    }


def _head_from_record(rec: dict) -> ClassifierHead:
    w_old = rec["w_old"]
    return ClassifierHead(
        rec["mode"], float(rec["scale"]),
        tuple(rec["old_ids"]), tuple(rec["new_ids"]),
        None if w_old is None else Tensor(np.array(w_old).reshape(len(rec["old_ids"]), -1)),
        Tensor(np.array(rec["w_new"])),
    )


def save_checkpoint(state: ModelState, path) -> None:
    """JSON checkpoint; float64 values round-trip bit-exactly via repr."""
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
    Path(path).write_text(json.dumps(record), encoding="utf-8")


def load_checkpoint(path) -> ModelState:
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    if record.get("format_version") != CHECKPOINT_VERSION:
        raise ContractError(f"unsupported checkpoint version {record.get('format_version')}")
    frozen = record["frozen"]
    return ModelState(
        _extractor_from_record(record["current"]["extractor"]),
        _head_from_record(record["current"]["head"]),
        None if frozen is None else (
            _extractor_from_record(frozen["extractor"]),
            _head_from_record(frozen["head"]),
        ),
        int(record["task_index"]),
    )

"""Task streams, synthetic data generation, and record-and-replay augmentation.

A task stream partitions the class inventory into disjoint groups.  In cold
start every group holds ``total/T`` classes; in warm start the first group
holds half of the classes and the remainder is split evenly over the other
``T-1`` tasks.

Augmentation policies are recorded draws: each policy is one packed
``POLICY_DTYPE`` record (35 bytes of ``tobytes()``) whose replay on the same
sample is bit-identical, alone or in any batch.  The default family mirrors
crop / flip / jitter / rescale in vector space.  Candidate sampling replays
each picked (sample, policy) pair once per task into a bank of augmented
current-task rows, which lives for that task only.
"""

from __future__ import annotations

import csv
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arrays import csv_text, readonly, write_atomic
from .errors import ConfigError, ContractError, DecodeError, DimensionError

BINARY_MAGIC = b"APRD"
BINARY_VERSION = 1


# -- labeled data -------------------------------------------------------------


@dataclass(frozen=True)
class LabeledSet:
    """Immutable sample/label batch carrying its split provenance.  ``x``
    is stored as a read-only copy (``arrays.readonly``)."""

    x: np.ndarray  # (n, input_dim)
    y: tuple[int, ...]
    split: str  # "train" | "val" | "test"

    def __post_init__(self):
        object.__setattr__(self, "x", readonly(self.x, "samples"))
        if self.x.ndim != 2 or len(self.y) != self.x.shape[0]:
            raise DimensionError("LabeledSet: samples and labels disagree")
        if self.split not in ("train", "val", "test"):
            raise ContractError(f"unknown split tag {self.split!r}")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    def classes(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.y)))


@dataclass(frozen=True)
class TaskStream:
    """Ordered disjoint class groups with per-task train/val/test sets."""

    mode: str  # "cold" | "warm"
    class_groups: tuple[tuple[int, ...], ...]
    train: tuple[LabeledSet, ...]
    val: tuple[LabeledSet, ...]
    test: tuple[LabeledSet, ...]

    @property
    def task_count(self) -> int:
        return len(self.class_groups)


def group_sizes(total_classes: int, task_count: int, mode: str) -> list[int]:
    """Class-count layout per task for a start mode."""
    if task_count < 1:
        raise ConfigError("task count must be >= 1")
    if mode == "cold":
        if total_classes % task_count != 0:
            raise ConfigError(
                f"cold start needs total classes ({total_classes}) divisible by T ({task_count})")
        return [total_classes // task_count] * task_count
    if mode == "warm":
        if task_count < 2:
            raise ConfigError("warm start needs at least 2 tasks")
        if total_classes % 2 != 0 or (total_classes // 2) % (task_count - 1) != 0:
            raise ConfigError(
                f"warm start needs total/2 classes ({total_classes}/2) divisible by "
                f"T-1 ({task_count - 1})")
        rest = (total_classes // 2) // (task_count - 1)
        return [total_classes // 2] + [rest] * (task_count - 1)
    raise ConfigError(f"unknown start mode {mode!r}")


def shuffled_groups(class_ids, task_count: int, mode: str,
                    shuffle_seed: int) -> tuple[tuple[int, ...], ...]:
    """Per-task class groups: the ids in one seeded shuffle, cut by ``group_sizes``."""
    ids = np.asarray(class_ids)
    sizes = group_sizes(len(ids), task_count, mode)
    shuffled = ids[np.random.default_rng(shuffle_seed).permutation(len(ids))]
    return tuple(tuple(int(c) for c in group)
                 for group in np.split(shuffled, np.cumsum(sizes)[:-1]))


# -- synthetic generator -------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian cluster per class: mean on a sphere, random SPD covariance."""

    n_classes: int = 20
    input_dim: int = 16
    radius: float = 8.0
    cluster_std: float = 1.0
    n_train: int = 100
    n_val: int = 20
    n_test: int = 50


def class_clusters(spec: SyntheticSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    """True per-class (means, covariances); also the oracle for sanity tests."""
    d = spec.input_dim
    means = rng.normal(size=(spec.n_classes, d))
    means *= spec.radius / np.linalg.norm(means, axis=1, keepdims=True)
    covs = np.empty((spec.n_classes, d, d))
    for c in range(spec.n_classes):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eigs = rng.uniform(0.5, 1.5, size=d) * spec.cluster_std**2
        covs[c] = (q * eigs) @ q.T
    return means, covs


def _sample_class(mean, cov, n, rng):
    chol = np.linalg.cholesky(cov)
    return mean + rng.standard_normal((n, mean.shape[0])) @ chol.T


def make_task_stream(spec: SyntheticSpec, task_count: int, mode: str,
                     seed: int, class_shuffle_seed: int) -> TaskStream:
    """Deterministic synthetic stream under (seed, class_shuffle_seed)."""
    groups = shuffled_groups(range(spec.n_classes), task_count, mode, class_shuffle_seed)
    data_rng = np.random.default_rng(seed)
    means, covs = class_clusters(spec, data_rng)
    per_class = {}
    for c in range(spec.n_classes):
        block = _sample_class(means[c], covs[c],
                              spec.n_train + spec.n_val + spec.n_test, data_rng)
        per_class[c] = (
            block[: spec.n_train],
            block[spec.n_train: spec.n_train + spec.n_val],
            block[spec.n_train + spec.n_val:],
        )

    def bundle(group, part, split):
        xs = np.concatenate([per_class[c][part] for c in group])
        ys = tuple(int(c) for c in group for _ in range(len(per_class[c][part])))
        return LabeledSet(xs, ys, split)

    train = tuple(bundle(g, 0, "train") for g in groups)
    val = tuple(bundle(g, 1, "val") for g in groups)
    test = tuple(bundle(g, 2, "test") for g in groups)
    return TaskStream(mode, groups, train, val, test)


# -- augmentation policies -----------------------------------------------------


# One recorded augmentation, packed as its 35-byte ``<BIIBBQdd`` record: zero
# ``crop_width`` coordinates from ``crop_offset`` when ``crop`` is 1, reverse
# the sample when ``flip`` is 1, add ``jitter_sigma`` times standard normal
# noise seeded by ``jitter_seed`` (none unless the sigma is positive; ``jitter``
# is the flag ``sigma > 0``), then multiply by ``scale``.
POLICY_DTYPE = np.dtype([
    ("crop", "u1"), ("crop_offset", "<u4"), ("crop_width", "<u4"), ("flip", "u1"),
    ("jitter", "u1"), ("jitter_seed", "<u8"), ("jitter_sigma", "<f8"), ("scale", "<f8")])
POLICY_RECORD_BYTES = POLICY_DTYPE.itemsize


@dataclass(frozen=True)
class AugFamily:
    """Sampling ranges for the default vector-space augmentation family.  The
    ranges are not checked here: ``config.validate_config`` checks the
    ``augmentation.*`` keys that ``config.build_family`` builds one from."""

    enabled: bool = True
    crop_prob: float = 0.5
    crop_width_range: tuple[int, int] = (1, 4)
    flip_prob: float = 0.5
    jitter_prob: float = 0.8
    jitter_sigma_range: tuple[float, float] = (0.01, 0.15)
    scale_range: tuple[float, float] = (0.9, 1.1)
    input_dim: int = 16


def identity_policies(shape=()) -> np.ndarray:
    """Records of ``shape`` that replay as the identity."""
    return np.full(shape, np.array((0, 0, 0, 0, 0, 0, 0.0, 1.0), POLICY_DTYPE))


def sample_policies(rng, family: AugFamily, n: int) -> np.ndarray:
    """Draw ``n`` fully recorded policies, record by record in field order;
    a disabled family draws nothing and yields identity records."""
    out = identity_policies(n)
    if not family.enabled:
        return out
    (w_lo, w_hi), dim = family.crop_width_range, family.input_dim
    for i in range(n):
        crop_apply = rng.random() < family.crop_prob
        width = min(int(rng.integers(w_lo, w_hi + 1)), dim)
        offset = int(rng.integers(0, dim - width + 1))
        flip_apply = rng.random() < family.flip_prob
        jitter_on = rng.random() < family.jitter_prob
        sigma = float(rng.uniform(*family.jitter_sigma_range)) if jitter_on else 0.0
        seed = int(rng.integers(0, 2**32))
        factor = float(rng.uniform(*family.scale_range))
        out[i] = (crop_apply, offset, width, flip_apply, sigma > 0.0, seed, sigma, factor)
    return out


def apply_policy(x: np.ndarray, policies: np.ndarray) -> np.ndarray:
    """Pure, deterministic replay of recorded policies on samples ``x`` of
    shape ``policies.shape + (input_dim,)``, one record per sample."""
    out = np.array(x, dtype=np.float64)
    pol = np.asarray(policies, dtype=POLICY_DTYPE)
    if out.ndim < 1 or pol.shape != out.shape[:-1]:
        raise DimensionError(f"apply_policy: {pol.shape} policies for samples {out.shape}")
    dim = out.shape[-1]
    crop = pol["crop"][..., None] == 1
    start = pol["crop_offset"][..., None].astype(np.int64)
    stop = start + pol["crop_width"][..., None]
    if (crop & (stop > dim)).any():
        raise DecodeError("crop window out of bounds")
    cols = np.arange(dim)
    out = np.where(crop & (cols >= start) & (cols < stop), 0.0, out)  # writes +0.0
    out = np.where(pol["flip"][..., None] == 1, out[..., ::-1], out)
    jitter = pol["jitter_sigma"] > 0.0
    if jitter.any():
        noise = [np.random.default_rng(int(seed)).standard_normal(dim)
                 for seed in pol["jitter_seed"][jitter]]
        out[jitter] += pol["jitter_sigma"][jitter][:, None] * np.array(noise)
    return out * pol["scale"][..., None]


# -- ingestion ----------------------------------------------------------------


def load_csv(path, split: str = "train") -> LabeledSet:
    """Read rows of ``label,f0,...,f{D-1}`` into a labeled set.  A row whose
    width differs from the header's, a label that is not an integer, or a
    feature that is not a finite number raises ``DecodeError`` naming the
    file and the line.

    A well-formed file is parsed by ``np.loadtxt`` (labels through ``int``,
    features through the same correctly rounded conversion as ``float``);
    any file it does not take whole goes to the per-line parser, which
    finds and reports the bad line.
    """
    path = Path(path)
    parsed = _parse_csv_table(path)
    if parsed is None:
        parsed = _parse_csv_lines(path)
    return LabeledSet(*parsed, split)


def _parse_csv_table(path: Path):
    """``(features, labels)`` of a well-formed file, else ``None``."""
    try:
        with path.open(newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body warns; treat it as a failure
            header = next(csv.reader(fh), None)
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, converters={0: int})
    except Exception:
        return None
    if (not header or header[0] != "label" or len(header) < 2 or not len(table)
            or table.shape[1] != len(header) or not np.isfinite(table).all()
            or np.abs(table[:, 0]).max() >= 2.0 ** 53):  # labels must convert back exactly
        return None
    return table[:, 1:], tuple(int(v) for v in table[:, 0])


def _parse_csv_lines(path: Path):
    """``(features, labels)`` parsed line by line; the first bad line raises
    ``DecodeError`` naming the file and the line."""
    rows, labels, lines = [], [], []
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "label" or len(header) < 2:
                raise DecodeError(f"{path}: expected a header 'label,f0,...'")
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"{len(row)} fields, header has {len(header)}")
                    labels.append(int(row[0]))
                    rows.append([float(v) for v in row[1:]])
                except ValueError as err:
                    raise DecodeError(f"{path}: line {reader.line_num}: {err}") from None
                lines.append(reader.line_num)
    except OSError as err:
        raise DecodeError(f"{path}: cannot read ({err.strerror})") from None
    except (csv.Error, UnicodeDecodeError) as err:
        raise DecodeError(f"{path}: not a CSV text file ({err})") from None
    if not rows:
        raise DecodeError(f"{path}: no data rows")
    x = np.array(rows)
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise DecodeError(f"{path}: line {lines[int(bad.argmax())]}: non-finite feature")
    return x, tuple(labels)


def save_csv(dataset: LabeledSet, path) -> None:
    """A ``label,f0,...`` file that ``load_csv`` reads back bit for bit."""
    write_atomic(path, csv_text(["label"] + [f"f{i}" for i in range(dataset.input_dim)],
                                ([label, *row] for label, row in zip(dataset.y, dataset.x))))


def save_binary(dataset: LabeledSet, path) -> None:
    """Matrix container: magic, version, rows, cols, f64 data, u32 labels.
    A label outside u32 raises ``ContractError`` naming ``path`` before
    anything is written."""
    bad = next((label for label in dataset.y if not 0 <= label < 2 ** 32), None)
    if bad is not None:
        raise ContractError(f"{path}: label {bad} does not fit the u32 label field")
    rows, cols = dataset.x.shape
    write_atomic(path, b"".join([BINARY_MAGIC, struct.pack("<III", BINARY_VERSION, rows, cols),
                                 np.ascontiguousarray(dataset.x, dtype="<f8").tobytes(),
                                 np.asarray(dataset.y, dtype="<u4").tobytes()]))


def load_binary(path, split: str = "train") -> LabeledSet:
    """Read a ``save_binary`` file.  A truncated or oversized file, or a
    non-finite sample, raises ``DecodeError`` naming the file and the field."""
    try:
        payload = Path(path).read_bytes()
    except OSError as err:
        raise DecodeError(f"{path}: cannot read ({err.strerror})") from None
    if payload[:4] != BINARY_MAGIC:
        raise DecodeError(f"{path}: bad magic {payload[:4]!r}")
    if len(payload) < 16:
        raise DecodeError(f"{path}: header has {len(payload)} of 16 bytes")
    version, rows, cols = struct.unpack_from("<III", payload, 4)
    if version != BINARY_VERSION:
        raise DecodeError(f"{path}: unsupported version {version}")
    if rows == 0 or cols == 0:
        raise DecodeError(f"{path}: 'rows'={rows} and 'cols'={cols} must be positive")
    need = 16 + rows * cols * 8 + rows * 4
    if len(payload) != need:
        raise DecodeError(f"{path}: 'rows'={rows} and 'cols'={cols} need {need} bytes, "
                          f"file has {len(payload)}")
    matrix = np.frombuffer(payload, dtype="<f8", count=rows * cols, offset=16).reshape(rows, cols)
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise DecodeError(f"{path}: 'data' row {int(bad.argmax())} has non-finite values")
    labels = np.frombuffer(payload, dtype="<u4", count=rows, offset=16 + rows * cols * 8)
    return LabeledSet(matrix, tuple(int(v) for v in labels), split)

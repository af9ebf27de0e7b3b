"""Evaluation heads (linear / NCM / Mahalanobis) and incremental metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calib as C
from . import model as M
from .errors import ContractError, NumericError
from .tensor import Tensor


def predict_linear(state: M.ModelState, x: Tensor) -> np.ndarray:
    """Argmax over all-class logits; ties resolve to the smallest class id."""
    out = M.head_logits(state.head, M.features(state.extractor, x), "all")
    ids = np.asarray(state.head.class_ids)
    return ids[out.argmax(axis=1)]


def predict_ncm(extractor: M.ExtractorParams, store: C.PrototypeStore,
                x: Tensor) -> np.ndarray:
    ids = store.class_ids()
    if not ids:
        raise ContractError("prototype store is empty")
    feats = M.features(extractor, x)
    centers = np.stack([store.entries[c].mu for c in ids])
    dists = np.linalg.norm(feats[:, None, :] - centers[None, :, :], axis=2)
    return np.asarray(ids)[dists.argmin(axis=1)]


class MahalanobisScorer:
    """Shrunk-and-normalized Mahalanobis distances through per-class
    whitening maps cached for the whole evaluation pass.

    With ``sigma = L L^T`` (Cholesky), ``(x - mu)^T sigma^-1 (x - mu)`` is
    ``||L^-1 (x - mu)||^2``.  The map ``inv(L).T`` is formed once per class,
    so scoring a batch is one GEMM per class plus a row-wise sum of squares;
    the only temporaries are one class's ``(n, d)`` centered and whitened
    features.
    """

    def __init__(self, store: C.PrototypeStore, gamma1: float, gamma2: float):
        if not store.class_ids():
            raise ContractError("prototype store is empty")
        self.ids = store.class_ids()
        self.means = {}
        self.whiten = {}
        for cid in self.ids:
            entry = store.entries[cid]
            sigma = C.shrink_normalize(entry.covariance(), gamma1, gamma2)
            try:
                chol = np.linalg.cholesky(sigma)
            except np.linalg.LinAlgError:
                raise NumericError(
                    f"class {cid}: shrunk covariance is not positive definite") from None
            self.whiten[cid] = np.ascontiguousarray(np.linalg.inv(chol).T)
            self.means[cid] = entry.mu

    def distances(self, feats: np.ndarray) -> np.ndarray:
        out = np.empty((len(feats), len(self.ids)))
        for j, cid in enumerate(self.ids):
            y = (feats - self.means[cid]) @ self.whiten[cid]
            out[:, j] = np.einsum("ij,ij->i", y, y)
        return out

    def predict(self, feats: np.ndarray) -> np.ndarray:
        return np.asarray(self.ids)[self.distances(feats).argmin(axis=1)]


def predict_mahalanobis(extractor: M.ExtractorParams, store: C.PrototypeStore,
                        x: Tensor, gamma1: float, gamma2: float) -> np.ndarray:
    feats = M.features(extractor, x)
    return MahalanobisScorer(store, gamma1, gamma2).predict(feats)


def predict(kind: str, state: M.ModelState, store: C.PrototypeStore | None,
            x: Tensor, gamma1: float = 1.0, gamma2: float = 1.0) -> np.ndarray:
    if kind == "linear":
        return predict_linear(state, x)
    if kind == "ncm":
        return predict_ncm(state.extractor, store, x)
    if kind == "mahalanobis":
        return predict_mahalanobis(state.extractor, store, x, gamma1, gamma2)
    raise ContractError(f"unknown classifier {kind!r}")


# -- metrics -----------------------------------------------------------------


@dataclass(frozen=True)
class EvalResult:
    accuracy: tuple[tuple[float, ...], ...]  # a[k][j], j <= k
    per_task: tuple[float, ...]              # A_k
    incremental: float                       # A_inc
    final: float                             # A_last


def metrics(accuracy_matrix, task_count: int) -> EvalResult:
    """Average accuracy per task row, over rows, and at the last row.

    ``accuracy_matrix[k][j]`` is the accuracy on class group j after task k;
    row k must hold exactly k+1 entries.
    """
    rows = [tuple(float(v) for v in row) for row in accuracy_matrix]
    if len(rows) != task_count:
        raise ContractError(f"expected {task_count} rows, got {len(rows)}")
    for k, row in enumerate(rows):
        if len(row) != k + 1:
            raise ContractError(f"row {k} must have {k + 1} entries, got {len(row)}")
        if any(not 0.0 <= v <= 1.0 for v in row):
            raise ContractError(f"row {k} has accuracy outside [0, 1]")
    per_task = tuple(sum(row) / len(row) for row in rows)
    return EvalResult(
        accuracy=tuple(rows),
        per_task=per_task,
        incremental=sum(per_task) / task_count,
        final=per_task[-1],
    )

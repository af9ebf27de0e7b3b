"""Evaluation heads (linear / NCM / Mahalanobis) and incremental metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calib as C
from . import model as M
from .errors import ContractError, NumericError


def predict_linear(state: M.ModelState, x: np.ndarray) -> np.ndarray:
    """Argmax over all-class logits; ties resolve to the smallest class id."""
    out = M.head_logits(state.head, M.features(state.extractor, x), "all")
    ids = np.asarray(state.head.class_ids)
    return ids[out.argmax(axis=1)]


def predict_ncm(extractor: M.ExtractorParams, store: C.PrototypeStore,
                x: np.ndarray) -> np.ndarray:
    ids = store.class_ids()
    if not ids:
        raise ContractError("prototype store is empty")
    feats = M.features(extractor, x)
    # one class at a time: the temporaries stay (n, d), not (n, classes, d)
    dists = np.empty((len(feats), len(ids)))
    for j, cid in enumerate(ids):
        dists[:, j] = np.linalg.norm(feats - store.entries[cid].mu, axis=1)
    return np.asarray(ids)[dists.argmin(axis=1)]


class MahalanobisScorer:
    """Shrunk-and-normalized Mahalanobis distances from one eigendecomposition
    per class, at any shrinkage.

    ``calib.shrink_normalize`` turns a covariance ``S`` into the correlation
    matrix ``R = D^-1/2 (S + cI) D^-1/2``, with ``c = gamma1 v1 + gamma2 v2``
    and ``D = diag(S) + c``.  With ``S = Q diag(lam) Q^T``, formed once per
    class here, ``(x - mu)^T R^-1 (x - mu)`` is
    ``||(x - mu) D^1/2 Q (lam + c)^-1/2||^2``: each class and shrinkage costs
    one d x d map and one GEMM, with no Cholesky factor or inverse.
    ``distances`` and ``predict`` use the constructor's shrinkage unless
    given a ``(gamma1, gamma2)`` pair; ``scan`` predicts for a whole grid.
    """

    def __init__(self, store: C.PrototypeStore, gamma1: float, gamma2: float):
        if not store.class_ids():
            raise ContractError("prototype store is empty")
        self.ids = store.class_ids()
        terms = [C.shrinkage_terms(store.entries[cid].covariance()) for cid in self.ids]
        covs = np.stack([cov for cov, _, _ in terms])
        self._lam, self._q = np.linalg.eigh(covs)
        self._diag = np.diagonal(covs, axis1=1, axis2=2)
        self._v = np.array([(v1, v2) for _, v1, v2 in terms])
        self._mu = [store.entries[cid].mu for cid in self.ids]
        self._default = self._factors(gamma1, gamma2)

    def _factors(self, gamma1: float, gamma2: float):
        """Per-class ``D^1/2`` and ``(lam + c)^-1/2`` rows at one shrinkage.

        A shrunk spectrum whose smallest value is not above ``d eps`` times
        its largest is rejected as not positive definite, as a Cholesky
        factorization of it would be.
        """
        c = gamma1 * self._v[:, :1] + gamma2 * self._v[:, 1:]
        shrunk, scale = self._lam + c, self._diag + c
        floor = shrunk.shape[1] * np.finfo(np.float64).eps * shrunk[:, -1]
        bad = (shrunk[:, 0] <= floor) | (scale <= 0.0).any(axis=1)
        if bad.any():
            raise NumericError(
                f"class {self.ids[int(bad.argmax())]}: shrunk covariance is not positive definite")
        return np.sqrt(scale), 1.0 / np.sqrt(shrunk)

    def _sq_norms(self, j: int, centered: np.ndarray, factors) -> np.ndarray:
        root, inv_root = factors
        y = centered @ (root[j][:, None] * self._q[j] * inv_root[j])
        return np.einsum("ij,ij->i", y, y)

    def distances(self, feats: np.ndarray, gamma=None) -> np.ndarray:
        factors = self._default if gamma is None else self._factors(*gamma)
        out = np.empty((len(feats), len(self.ids)))
        for j in range(len(self.ids)):
            out[:, j] = self._sq_norms(j, feats - self._mu[j], factors)
        return out

    def predict(self, feats: np.ndarray, gamma=None) -> np.ndarray:
        """Nearest class id per row; ties resolve to the smallest class id."""
        return np.asarray(self.ids)[self.distances(feats, gamma).argmin(axis=1)]

    def scan(self, feats: np.ndarray, gammas) -> np.ndarray:
        """``predict(feats, gamma)`` for each pair in ``gammas``, one row each.

        Classes are the outer loop, so each class's centered features serve
        the whole grid and only a running minimum per (gamma, row) is held.
        A strictly smaller distance is needed to move a row to a later
        class, so ties resolve as in ``predict``.
        """
        factors = [self._factors(g1, g2) for g1, g2 in gammas]
        best = np.full((len(factors), len(feats)), np.inf)
        arg = np.zeros(best.shape, dtype=np.intp)
        for j in range(len(self.ids)):
            centered = feats - self._mu[j]
            for g, fac in enumerate(factors):
                dist = self._sq_norms(j, centered, fac)
                closer = dist < best[g]
                best[g, closer] = dist[closer]
                arg[g, closer] = j
        return np.asarray(self.ids)[arg]


def predict_mahalanobis(extractor: M.ExtractorParams, store: C.PrototypeStore,
                        x: np.ndarray, gamma1: float, gamma2: float,
                        scorer: MahalanobisScorer | None = None) -> np.ndarray:
    """Mahalanobis predictions at ``(gamma1, gamma2)``, through ``scorer``
    when the caller already built one over ``store``."""
    if scorer is None:
        scorer = MahalanobisScorer(store, gamma1, gamma2)
    return scorer.predict(M.features(extractor, x), (gamma1, gamma2))


def predict(kind: str, state: M.ModelState, store: C.PrototypeStore | None,
            x: np.ndarray, gamma1: float = 1.0, gamma2: float = 1.0,
            scorer: MahalanobisScorer | None = None) -> np.ndarray:
    if kind == "linear":
        return predict_linear(state, x)
    if kind == "ncm":
        return predict_ncm(state.extractor, store, x)
    if kind == "mahalanobis":
        return predict_mahalanobis(state.extractor, store, x, gamma1, gamma2, scorer)
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

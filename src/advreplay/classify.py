"""Evaluation heads (linear / NCM / Mahalanobis) and incremental metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calib as C
from . import model as M
from .errors import ContractError, NumericError


def predict_linear(state: M.ModelState, feats: np.ndarray) -> np.ndarray:
    """Argmax over all-class logits of ``state``'s head on the features
    ``feats``; ties resolve to the smallest class id."""
    out = M.head_logits(state.head, feats)
    ids = np.asarray(state.head.class_ids)
    return ids[out.argmax(axis=1)]


def predict_ncm(store: C.PrototypeStore, feats: np.ndarray) -> np.ndarray:
    """Nearest stored prototype per row of the features ``feats``."""
    ids = store.class_ids()
    if not ids:
        raise ContractError("prototype store is empty")
    # one class at a time: the temporaries stay (n, d), not (n, classes, d)
    dists = np.empty((len(feats), len(ids)))
    for j, cid in enumerate(ids):
        dists[:, j] = np.linalg.norm(feats - store.entries[cid].mu, axis=1)
    return np.asarray(ids)[dists.argmin(axis=1)]


class MahalanobisScorer:
    """Shrunk-and-normalized Mahalanobis distances at any shrinkage, from one
    eigendecomposition per full class and the stored factors of each rank-k
    class.

    ``calib.shrink_normalize`` turns a covariance ``S`` into the correlation
    matrix ``R = D^-1/2 (S + cI) D^-1/2``, with ``c = gamma1 v1 + gamma2 v2``
    and ``D = diag(S) + c``.  So ``(x - mu)^T R^-1 (x - mu)`` is
    ``z^T (S + cI)^-1 z`` with ``z = (x - mu) D^1/2``, and
    ``||z||^2 = a + (min diag + c) b`` with ``a = e^2 . (diag - min diag)``
    and ``b = ||e||^2`` for ``e = x - mu``: sums of non-negative terms,
    which cannot cancel whatever the sign of c.

    - A full class: with ``S = Q diag(lam) Q^T``, formed once per class
      here, the distance is ``||z Q (lam + c)^-1/2||^2``: one d x d map and
      one GEMM per shrinkage, with no Cholesky factor or inverse.
    - A rank-k class, ``S = U diag(lam) U^T`` from its stored SVD: by
      Woodbury, ``(S + cI)^-1 = (I - U diag(lam / (lam + c)) U^T) / c``, so
      the distance is ``(||z||^2 - sum_i lam_i / (lam_i + c) (z . u_i)^2) / c``:
      one d x k GEMM per shrinkage.  The scorer keeps U, lam, diag, v1 and
      v2 of such a class, and no d x d array.

    Built from the store alone, ``distances`` and ``predict`` score at the
    ``(gamma1, gamma2)`` pair they are given; ``scan`` predicts for a grid.
    Both score through ``_scored``, so a scanned prediction is ``predict``'s.
    """

    def __init__(self, store: C.PrototypeStore):
        if not store.class_ids():
            raise ContractError("prototype store is empty")
        self.ids = store.class_ids()
        entries = [store.entries[cid] for cid in self.ids]
        self._mu = [e.mu for e in entries]
        self._lowrank = {j: (e.svd[0], np.diagonal(e.svd[1]).copy())
                         for j, e in enumerate(entries) if e.svd is not None}
        self._full = [j for j in range(len(entries)) if j not in self._lowrank]
        covs, diag, v = [], [], []
        for e in entries:  # a rank-k class's recomposed d x d matrix lives only here
            cov, v1, v2 = C.shrinkage_terms(e.cov)
            diag.append(np.diagonal(cov).copy())
            v.append((v1, v2))
            if e.svd is None:
                covs.append(cov)
        self._diag, self._v = np.array(diag), np.array(v)
        d = self._diag.shape[1]
        self._lam, self._q = (np.linalg.eigh(np.stack(covs)) if covs
                              else (np.empty((0, d)), np.empty((0, d, d))))
        # per class, the ends of S's spectrum: a rank-k class's smallest is
        # taken as 0, also at k = d, where that only makes the test stricter
        self._low, self._high = np.zeros(len(entries)), np.empty(len(entries))
        self._low[self._full], self._high[self._full] = self._lam[:, 0], self._lam[:, -1]
        for j, (_, lam) in self._lowrank.items():
            self._high[j] = lam.max()
        # the weight columns of the two sums behind ||z||^2
        self._diag_min = self._diag.min(axis=1)
        self._sum_weights = np.stack(
            [self._diag - self._diag_min[:, None], np.ones(self._diag.shape)], axis=2)

    def _factors(self, gamma1: float, gamma2: float):
        """Per full class (in ``_full`` order) the ``D^1/2`` and
        ``(lam + c)^-1/2`` rows, and every class's ``c``, at one shrinkage.

        A shrunk spectrum whose smallest value is not above ``d eps`` times
        its largest, or a non-positive entry of ``diag + c``, is rejected as
        not positive definite, as a Cholesky factorization of it would be.
        """
        c = gamma1 * self._v[:, 0] + gamma2 * self._v[:, 1]  # per class
        scale = self._diag + c[:, None]
        floor = scale.shape[1] * np.finfo(np.float64).eps * (self._high + c)
        bad = (self._low + c <= floor) | (scale <= 0.0).any(axis=1)
        if bad.any():
            raise NumericError(
                f"class {self.ids[int(bad.argmax())]}: shrunk covariance is not positive definite")
        return np.sqrt(scale[self._full]), 1.0 / np.sqrt(self._lam + c[self._full, None]), c

    def _sq_norms(self, f: int, centered: np.ndarray, factors) -> np.ndarray:
        """Distances of ``centered`` rows to the ``f``-th full class."""
        root, inv_root, _ = factors
        y = centered @ (root[f][:, None] * self._q[f] * inv_root[f])
        return np.einsum("ij,ij->i", y, y)

    def _lowrank_sq_norms(self, j: int, centered: np.ndarray, sums: np.ndarray,
                          c: float) -> np.ndarray:
        """Distances of ``centered`` rows to rank-k class ``j`` at shrinkage
        ``c``, from ``sums = centered^2 @ _sum_weights[j]``."""
        u, lam = self._lowrank[j]
        proj = centered @ (u * np.sqrt(self._diag[j] + c)[:, None])
        dist = np.square(proj, out=proj) @ (lam / (lam + c))
        np.subtract(sums[:, 0] + (self._diag_min[j] + c) * sums[:, 1], dist, out=dist)
        return np.divide(dist, c, out=dist)

    def _scored(self, feats: np.ndarray, factors):
        """``(j, g, distances of feats to class j at factors[g])`` for every
        class j in id order and every g, each class's rows centered once."""
        slot = {j: f for f, j in enumerate(self._full)}
        for j in range(len(self.ids)):
            centered = feats - self._mu[j]
            if j in slot:
                for g, fac in enumerate(factors):
                    yield j, g, self._sq_norms(slot[j], centered, fac)
            else:
                sums = np.square(centered) @ self._sum_weights[j]
                for g, fac in enumerate(factors):
                    yield j, g, self._lowrank_sq_norms(j, centered, sums, fac[2][j])

    def distances(self, feats: np.ndarray, gamma) -> np.ndarray:
        """Distances of ``feats`` to every class at the pair ``gamma``."""
        out = np.empty((len(feats), len(self.ids)))
        for j, _, dist in self._scored(feats, [self._factors(*gamma)]):
            out[:, j] = dist
        return out

    def predict(self, feats: np.ndarray, gamma) -> np.ndarray:
        """Nearest class id per row; ties resolve to the smallest class id."""
        return np.asarray(self.ids)[self.distances(feats, gamma).argmin(axis=1)]

    def scan(self, feats: np.ndarray, gammas) -> np.ndarray:
        """``predict(feats, gamma)`` for each pair in ``gammas``, one row each.

        Every class is scored at every pair, in class order, with a running
        minimum per (gamma, row): a strictly smaller distance is needed to
        move a row to a later class, so ties resolve as in ``predict``.
        """
        factors = [self._factors(g1, g2) for g1, g2 in gammas]
        best = np.full((len(factors), len(feats)), np.inf)
        arg = np.zeros(best.shape, dtype=np.intp)
        closer = np.empty(len(feats), dtype=bool)
        for j, g, dist in self._scored(feats, factors):
            np.less(dist, best[g], out=closer)
            np.copyto(best[g], dist, where=closer)
            np.copyto(arg[g], j, where=closer)
        return np.asarray(self.ids)[arg]


def predict(kind: str, state: M.ModelState, store: C.PrototypeStore | None,
            feats: np.ndarray, gamma: tuple | None = None,
            scorer: MahalanobisScorer | None = None) -> np.ndarray:
    """``kind``'s predictions for the features ``feats`` of
    ``state.extractor``.  Mahalanobis scores at the ``(gamma1, gamma2)``
    pair ``gamma`` through ``scorer``, or through one built over ``store``
    when the caller holds none."""
    if kind == "linear":
        return predict_linear(state, feats)
    if kind == "ncm":
        return predict_ncm(store, feats)
    if kind == "mahalanobis":
        if gamma is None:
            raise ContractError("Mahalanobis prediction needs a (gamma1, gamma2) pair")
        return (scorer or MahalanobisScorer(store)).predict(feats, gamma)
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

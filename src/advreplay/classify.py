"""Evaluation heads (linear / NCM / Mahalanobis) and incremental metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import calib as C
from . import model as M
from .errors import ContractError, NumericError


def predict_linear(state: M.ModelState, x: np.ndarray) -> np.ndarray:
    """Argmax over all-class logits; ties resolve to the smallest class id."""
    out = M.head_logits(state.head, M.features(state.extractor, x))
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


# Relative slack on both distance bounds of ``MahalanobisScorer.scan``.  A
# computed distance is fl(sum(fl(e M)^2)) with M = D^1/2 Q (lam + c)^-1/2 and
# z = e D^1/2.  Each entry k of e M is off by at most d eps ||z|| times
# (lam_k + c)^-1/2 (Cauchy-Schwarz over column k of Q), so the distance is
# off by at most about 2 d sqrt(d kappa) eps of itself, with
# kappa = (lam_max + c) / (lam_min + c).  The sums behind ||z||^2 (all terms
# non-negative), the final sum of squares, the scaling and Q's departure
# from orthogonality add a few d eps more.  ``scan`` widens each bound by
# BOUND_MARGIN d sqrt(d kappa) of itself: at 1e-9, about 4.5e6 eps, that is
# over a million times the rounding, and still too small to cost pruning.
BOUND_MARGIN = 1e-9


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

    Q is orthogonal, so the distance lies between ``||z||^2 / (lam_max + c)``
    and ``||z||^2 / (lam_min + c)`` with ``z = (x - mu) D^1/2``.  ``scan``
    uses these bounds to skip the GEMM rows that cannot hold a row's
    nearest class (see ``BOUND_MARGIN`` for the rounding slack).
    """

    def __init__(self, store: C.PrototypeStore, gamma1: float, gamma2: float):
        if not store.class_ids():
            raise ContractError("prototype store is empty")
        self.ids = store.class_ids()
        terms = [C.shrinkage_terms(store.entries[cid].cov) for cid in self.ids]
        covs = np.stack([cov for cov, _, _ in terms])
        self._lam, self._q = np.linalg.eigh(covs)
        self._diag = np.diagonal(covs, axis1=1, axis2=2)
        # ||z||^2 = sum_i e_i^2 (diag_i + c) = a + (min diag + c) b with
        # a = e^2 . (diag - min diag) and b = e^2 . 1 (the two weight columns
        # below): sums of non-negative terms, which cannot cancel whatever
        # the sign of c
        self._diag_min = self._diag.min(axis=1)
        self._sum_weights = np.stack(
            [self._diag - self._diag_min[:, None], np.ones(self._diag.shape)], axis=2)
        self._v = np.array([(v1, v2) for _, v1, v2 in terms])
        self._mu = [store.entries[cid].mu for cid in self.ids]
        self._default = self._factors(gamma1, gamma2)

    def _shift(self, gamma1: float, gamma2: float) -> np.ndarray:
        """Per-class shrinkage ``c = gamma1 v1 + gamma2 v2``."""
        return gamma1 * self._v[:, 0] + gamma2 * self._v[:, 1]

    def _factors(self, gamma1: float, gamma2: float):
        """Per-class ``D^1/2`` and ``(lam + c)^-1/2`` rows at one shrinkage.

        A shrunk spectrum whose smallest value is not above ``d eps`` times
        its largest is rejected as not positive definite, as a Cholesky
        factorization of it would be.
        """
        c = self._shift(gamma1, gamma2)[:, None]
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

    def _sq_norms_rows(self, j: int, centered: np.ndarray, rows: np.ndarray,
                       factors) -> np.ndarray:
        """``_sq_norms(j, centered, factors)[rows]``, bit for bit, from a
        product over those rows only.

        A product of two or more gathered rows rounds each row as the whole
        block does (``tests/test_classify.py`` pins this for the BLAS in
        use).  One row would run as a matrix-vector product, which may
        round differently, so a lone row is computed twice over.
        """
        block = centered[rows] if len(rows) > 1 else centered[np.repeat(rows, 2)]
        return self._sq_norms(j, block, factors)[:len(rows)]

    def _bound_terms(self, gammas, d: int):
        """Per (gamma, class): ``base = min diag + c``, so that
        ``||z||^2 = a + base b``, and the factors ``lower`` and ``upper``
        with ``lower ||z||^2 <= distance <= upper ||z||^2``, each widened by
        the rounding slack (``BOUND_MARGIN``).  ``base`` is positive for
        every pair that ``_factors`` accepts."""
        shift = np.array([self._shift(g1, g2) for g1, g2 in gammas]).reshape(-1, len(self.ids))
        low, high = self._lam[:, 0] + shift, self._lam[:, -1] + shift
        slack = BOUND_MARGIN * d * np.sqrt(d * high / low)
        return self._diag_min + shift, (1.0 - slack) / high, (1.0 + slack) / low

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

        An exact branch-and-bound over the classes.  Per class and row, two
        sums ``a = (e * e) . (diag - min diag)`` and ``b = ||e||^2`` give
        ``||z||^2 = a + (min diag + c) b``, and so both distance bounds, at
        every shrinkage.  A first pass takes, per (gamma, row), the smallest
        upper bound over the classes.  A class whose lower bound exceeds it
        is farther than some other class and cannot be the row's nearest,
        nor tie with it.  The second pass runs the GEMM only on the rows
        each class can still win, and keeps a running minimum in class
        order: a strictly smaller distance is needed to move a row to a
        later class, so ties resolve as in ``predict``.  Those distances
        are ``distances``' own bits (``_sq_norms_rows``), so every
        prediction equals ``predict``'s.  Nothing per (class, row) is kept
        between the passes; the sums are recomputed.
        """
        factors = [self._factors(g1, g2) for g1, g2 in gammas]
        base, lower, upper = self._bound_terms(gammas, feats.shape[1])

        # buffers reused for every class: feats - mu, its square, and one
        # scaled ||z||^2 per (gamma, row)
        centered, sq = np.empty(feats.shape), np.empty(feats.shape)
        z = np.empty((len(factors), len(feats)))

        def scaled_norms(j, scale):
            np.subtract(feats, self._mu[j], out=centered)
            a, b = (np.square(centered, out=sq) @ self._sum_weights[j]).T
            np.multiply(base[:, j, None], b, out=z)
            np.add(z, a, out=z)
            return np.multiply(z, scale[:, j, None], out=z)

        bound = np.full(z.shape, np.inf)
        for j in range(len(self.ids)):
            np.minimum(bound, scaled_norms(j, upper), out=bound)

        best = np.full(z.shape, np.inf)
        arg = np.zeros(z.shape, dtype=np.intp)
        shut, closer = np.empty(z.shape, dtype=bool), np.empty(len(feats), dtype=bool)
        for j in range(len(self.ids)):
            np.greater(scaled_norms(j, lower), bound, out=shut)
            for g, fac in enumerate(factors):
                rows = np.flatnonzero(~shut[g])
                if len(rows) == len(feats):
                    dist = self._sq_norms(j, centered, fac)
                elif len(rows):
                    dist = np.full(len(feats), np.inf)  # a shut row cannot move
                    dist[rows] = self._sq_norms_rows(j, centered, rows, fac)
                else:
                    continue
                np.less(dist, best[g], out=closer)
                np.copyto(best[g], dist, where=closer)
                np.copyto(arg[g], j, where=closer)
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

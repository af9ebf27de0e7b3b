"""Prototype/covariance calibration under a known feature-space drift.

Constructs a ground-truth linear drift f_new = A f_old + b, fits the
per-class transfer map on paired features, and compares calibrated versus
stale statistics.  Also shows covariance shrinkage/normalization and the
rank-k storage trade-off.
"""

import numpy as np

from advreplay import calib as C

rng = np.random.default_rng(3)
d = 16
g = rng.normal(size=(d, d))
A = np.eye(d) + 0.6 * g / np.linalg.norm(g, 2)
b = 0.4 * rng.normal(size=d)

center = rng.normal(size=d) * 3
q, _ = np.linalg.qr(rng.normal(size=(d, d)))
spectrum = 2.0 * 0.55 ** np.arange(d) + 1e-3  # collapsed dims, like late-task features
cov_in = (q * spectrum) @ q.T
x = center + rng.standard_normal((400, d)) @ np.linalg.cholesky(cov_in).T

feats_old = x
feats_new = x @ A.T + b
mu_old, cov_old = feats_old.mean(axis=0), np.cov(feats_old.T)
mu_true, cov_true = A @ mu_old + b, A @ cov_old @ A.T


def rel(a, t):
    return np.linalg.norm(a - t) / np.linalg.norm(t)


lr = min(1e-3, C.stable_transfer_lr(feats_old))
w, delta = C.fit_transfer_matrix(feats_old, feats_new, lr=lr, epochs=4000)
print(f"transfer fit: lr={lr:.2e}, |W - A| / |A| = {rel(w, A):.4f}")

entry = C.StoreEntry(mu_old.copy(), cov_old.copy(), None, created_task=0,
                     calibrated_task=0)
entry = C.calibrate(entry, w, delta, task=1)
print(f"stale      mu err {rel(mu_old, mu_true):7.2%}   cov err {rel(cov_old, cov_true):7.2%}")
print(f"calibrated mu err {rel(entry.mu, mu_true):7.2%}   cov err {rel(entry.cov, cov_true):7.2%}")

# shrink + correlation-normalize before any Mahalanobis use
sigma_star = C.shrink_normalize(entry.cov, gamma1=8.0, gamma2=8.0)
print("\nshrunk/normalized covariance: unit diagonal =",
      bool(np.all(np.diag(sigma_star) == 1.0)),
      "| condition number:", round(float(np.linalg.cond(sigma_star)), 2))

# rank-k compression: 2kd + k^2 scalars instead of d^2
print(f"\n{'rank k':>7} {'scalars':>9} {'% of full':>10} {'frobenius err':>14}")
for k in (2, 4, 8, 16):
    u, s, v = C.decompose(entry.cov, k)
    err = rel(C.recompose(u, s, v), entry.cov)
    scalars = C.decomposed_scalars(d, k)
    print(f"{k:>7} {scalars:>9} {100 * scalars / d**2:>9.1f}% {err:>13.2%}")

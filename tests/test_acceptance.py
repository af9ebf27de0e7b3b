"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The directional criteria (3, 4, 7, 9) share the three canonical
seed pairs and the reference 20-class T=5 cold-start config, which equals
the package defaults and ``configs/reference_cold20.json``.
"""

import time

import numpy as np
import pytest

from test_tensor import RTOL, STEP, _op_cases, finite_diff

from advreplay import calib as C
from advreplay import classify as CL
from advreplay import config as CFG
from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
from advreplay import runner
from advreplay import tensor as T
from advreplay import train as TR
from advreplay.tensor import Tensor

SEED_PAIRS = ((1993, 0), (2993, 1000), (3993, 2000))


def _report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def reference_config(*extra, out=None):
    cfg = CFG.load_config()
    for item in extra:
        cfg = CFG.apply_override(cfg, item)
    if out is not None:
        cfg = CFG.apply_override(cfg, f'output.dir="{out}"')
    return cfg


def train_task0_model(cfg, seed):
    stream = runner.stream_from_config(cfg)
    d = cfg["model"]["feature_dim"]
    rngm = np.random.default_rng([seed, 0])
    widths = (stream.train[0].input_dim, *cfg["model"]["hidden"], d)
    ext = M.init_extractor(widths, ("relu", "relu", "identity"), rngm)
    head = M.init_head(stream.class_groups[0], d, rngm)
    state = M.ModelState(ext, head, None, 0)
    state = TR.train_initial(state, stream.train[0], CFG.build_loss_config(cfg),
                             CFG.build_optim_config(cfg, True),
                             np.random.default_rng([seed, 1, 0]))
    return state, stream


VARIANTS = {
    "full": (),
    "baseline": ("loss.lambda_kd=0", "replay.enabled=false", "attack.enabled=false",
                 "adc.enabled=false"),
    "calib_only": ("replay.enabled=false", "attack.enabled=false"),
    "no_calib": ("adc.enabled=false",),
}


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """The three-seed benchmark for every ablation variant (criteria 3, 4)."""
    out = tmp_path_factory.mktemp("bench")
    started = time.time()
    runs = {}
    for variant, flags in VARIANTS.items():
        per_seed = []
        for shuffle, seed in SEED_PAIRS:
            cfg = reference_config(
                *flags, f"seeds.class_shuffle={shuffle}", f"seeds.randomness={seed}",
                f'output.tag="{variant}_{seed}"', out=out)
            per_seed.append(runner.run_benchmark(cfg))
        runs[variant] = per_seed
    runs["wall_seconds"] = time.time() - started
    return runs


def test_criterion_1_gradient_correctness():
    started = time.time()
    checked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, shape, build, condition in _op_cases(rng):
            x = rng.normal(size=shape)
            if condition is not None:
                x = condition(x)
            leaf = Tensor(x)
            _, grads = T.value_and_grad(build(leaf), [leaf])
            fd = finite_diff(lambda arr: T.value_and_grad(build(Tensor(arr)), [])[0], x,
                             step=STEP)
            err = np.max(np.abs(grads[leaf].data - fd)) / max(np.max(np.abs(fd)), 1e-6)
            assert err <= RTOL, f"{name} seed {seed}: {err:.2e}"
            checked += 1

    # combined objective: CE on the new block plus weighted KD on the old block
    rng = np.random.default_rng(1234)
    ext = M.default_extractor(5, 4, rng, hidden=(12,))
    head = M.ClassifierHead("cosine", 16.0, (0, 2), (1, 3),
                            Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(2, 4))))
    state = M.ModelState(ext, head, None, 1)
    x_new = rng.normal(size=(6, 5))
    x_kd = rng.normal(size=(9, 5))
    y_rel = rng.integers(0, 2, size=6)
    prev = rng.normal(size=(9, 2))

    def loss_of(st):
        ce = TR.local_ce_loss(M.logits(st.head, M.extract(st.extractor, Tensor(x_new)),
                                       "new_only"), y_rel)
        kd = TR.local_kd_loss(M.logits(st.head, M.extract(st.extractor, Tensor(x_kd)),
                                       "old_only"), Tensor(prev), 2.0)
        return T.add(ce, T.mul(kd, 10.0))

    params = M.trainable_params(state)
    _, grads = T.value_and_grad(loss_of(state), params)
    for param in params:
        fd = np.zeros_like(param.data)
        for i in range(param.data.size):
            up, down = param.data.copy(), param.data.copy()
            up.ravel()[i] += STEP
            down.ravel()[i] -= STEP
            f_up = float(loss_of(M.replace_params(state, {param: Tensor(up)})).data)
            f_dn = float(loss_of(M.replace_params(state, {param: Tensor(down)})).data)
            fd.ravel()[i] = (f_up - f_dn) / (2 * STEP)
        err = np.max(np.abs(grads[param].data - fd)) / max(np.max(np.abs(fd)), 1e-6)
        assert err <= RTOL, f"combined loss param: {err:.2e}"

    elapsed = time.time() - started
    _report(1, "gradient correctness", elapsed < 30.0,
            f"{checked} op checks over 100 seeds + combined loss, {elapsed:.1f}s")


def test_criterion_2_attack_efficacy():
    started = time.time()
    cfg = reference_config()
    state, stream = train_task0_model(cfg, seed=0)
    family = CFG.build_family(cfg)
    stats = TR.compute_class_stats(state.extractor, stream.train[0])
    per_class = 64 // len(stats)
    rows, targets = [], []
    for cid, (mu, _) in stats.items():
        idx, pols = R.sample_candidates(state.extractor, stream.train[1], mu, per_class,
                                        np.random.default_rng([0, 2, 1]), family)
        rows += [D.apply_policy(stream.train[1].x.data[i], p) for i, p in zip(idx, pols)]
        targets += [mu] * per_class
    rows, targets = np.stack(rows), np.stack(targets)
    attack = R.AttackConfig(cfg["attack"]["alpha"], cfg["attack"]["n_attack"], noise=False)
    perturbed = R.adversarial_attack(state.extractor, rows, targets, attack)
    pre = np.median(np.linalg.norm(M.extract(state.extractor, Tensor(rows)).data - targets,
                                   axis=1))
    post = np.median(np.linalg.norm(M.extract(state.extractor, perturbed).data - targets,
                                    axis=1))
    elapsed = time.time() - started
    _report(2, "attack efficacy", post <= 0.5 * pre and elapsed < 60.0,
            f"median distance {pre:.2f} -> {post:.2f} "
            f"({post / pre:.2f}x, 64-sample batch, {elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_3_directional_gain(bench_runs):
    def mean_last(variant):
        return float(np.mean([r.summary["ncm"]["A_last"] for r in bench_runs[variant]]))

    full, base = mean_last("full"), mean_last("baseline")
    calib, nocal = mean_last("calib_only"), mean_last("no_calib")
    margin = full - base
    ok = (margin >= 0.10 and full > calib and calib >= nocal
          and bench_runs["wall_seconds"] < 1800.0)
    _report(3, "directional replay gain", ok,
            f"NCM A_last full={full:.3f} baseline={base:.3f} (margin {100 * margin:.1f} pts), "
            f"ablation full>{calib:.3f}>={nocal:.3f}, "
            f"{bench_runs['wall_seconds']:.0f}s for {4 * len(SEED_PAIRS)} runs")


@pytest.mark.slow
def test_criterion_4_classifier_ordering(bench_runs):
    wins = sum(r.summary["mahalanobis"]["A_inc"] >= r.summary["ncm"]["A_inc"]
               for r in bench_runs["full"])
    pairs = [(round(r.summary["mahalanobis"]["A_inc"], 3), round(r.summary["ncm"]["A_inc"], 3))
             for r in bench_runs["full"]]
    _report(4, "classifier ordering", wins >= 2,
            f"Mahalanobis >= NCM A_inc in {wins}/3 seeds {pairs}")


def test_criterion_5_calibration_oracle():
    started = time.time()
    rng = np.random.default_rng(42)
    d, m = 16, 300
    g = rng.normal(size=(d, d))
    drift = np.eye(d) + 0.8 * g / np.linalg.norm(g, 2)
    shift = 0.4 * rng.normal(size=d)

    worst_cal_mu = worst_cal_cov = 0.0
    worst_unc_mu = worst_unc_cov = np.inf
    for _ in range(4):
        center = rng.normal(size=d) * 3
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        cov_in = (q * rng.uniform(0.5, 1.5, d)) @ q.T
        x = center + rng.standard_normal((m, d)) @ np.linalg.cholesky(cov_in).T
        feats_old, feats_new = x, x @ drift.T + shift

        mu_old, cov_old = feats_old.mean(axis=0), np.cov(feats_old.T)
        mu_true, cov_true = drift @ mu_old + shift, drift @ cov_old @ drift.T
        worst_unc_mu = min(worst_unc_mu,
                           np.linalg.norm(mu_old - mu_true) / np.linalg.norm(mu_true))
        worst_unc_cov = min(worst_unc_cov,
                            np.linalg.norm(cov_old - cov_true) / np.linalg.norm(cov_true))

        lr = min(1e-3, C.stable_transfer_lr(feats_old))
        w, delta = C.fit_transfer_matrix(feats_old, feats_new, lr, 6000)
        entry = C.StoreEntry(mu_old.copy(), cov_old.copy(), None, 0, 0)
        C.calibrate(entry, w, delta, task=1)
        worst_cal_mu = max(worst_cal_mu,
                           np.linalg.norm(entry.mu - mu_true) / np.linalg.norm(mu_true))
        worst_cal_cov = max(worst_cal_cov, np.linalg.norm(entry.cov - cov_true, "fro")
                            / np.linalg.norm(cov_true, "fro"))
    elapsed = time.time() - started
    ok = (worst_cal_mu <= 0.05 and worst_cal_cov <= 0.05
          and worst_unc_mu >= 0.25 and worst_unc_cov >= 0.25 and elapsed < 60.0)
    _report(5, "calibration oracle", ok,
            f"calibrated err mu<={100 * worst_cal_mu:.2f}% cov<={100 * worst_cal_cov:.2f}% "
            f"vs uncalibrated >= {100 * worst_unc_mu:.0f}%/{100 * worst_unc_cov:.0f}%, "
            f"{elapsed:.1f}s")


def test_criterion_6_equation_level_oracles():
    checks = []

    out = C.shrink_normalize(np.array([[2.0, 1.0], [1.0, 2.0]]), 1.0, 1.0)
    checks.append(np.max(np.abs(out - [[1.0, 0.2], [0.2, 1.0]])) <= 1e-9)
    checks.append(np.array_equal(C.shrink_normalize(np.eye(4), 3.0, 8.0), np.eye(4)))

    checks.append(abs(R.noise_magnitude({c: np.eye(5) for c in range(4)}, 5) - 2.0) <= 1e-9)
    checks.append(R.noise_magnitude({0: np.zeros((3, 3))}, 3) == 0.0)
    checks.append(abs(R.noise_magnitude({0: np.diag([1.0, 3.0]), 1: np.diag([2.0, 2.0])}, 2)
                      - 2.0) <= 1e-9)

    entry = C.StoreEntry(np.array([1.0, -1.0]), np.array([[1.0, 0.2], [0.2, 2.0]]),
                         None, 0, 0)
    C.calibrate(entry, 2.0 * np.eye(2), np.array([0.5, 0.5]), task=1)
    checks.append(np.max(np.abs(entry.cov - 4.0 * np.array([[1.0, 0.2], [0.2, 2.0]]))) <= 1e-9)
    checks.append(np.array_equal(entry.mu, [1.5, -0.5]))

    u, s, v = C.decompose(np.diag([3.0, 2.0, 1.0]), 2)
    checks.append(np.max(np.abs(C.recompose(u, s, v) - np.diag([3.0, 2.0, 0.0]))) <= 1e-9)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(6, 6))
    spd = a @ a.T + np.eye(6)
    u, s, v = C.decompose(spd, 6)
    checks.append(np.linalg.norm(C.recompose(u, s, v) - spd) / np.linalg.norm(spd) <= 1e-9)

    res = CL.metrics([[0.8], [0.6, 0.4]], 2)
    checks.append(abs(res.per_task[1] - 0.5) <= 1e-15 and abs(res.incremental - 0.65) <= 1e-15
                  and res.final == res.per_task[-1])
    checks.append(CL.metrics([[1.0], [1.0, 1.0]], 2).incremental == 1.0)

    _report(6, "equation-level oracles", all(checks),
            f"{sum(checks)}/{len(checks)} example reproductions exact")


@pytest.mark.slow
def test_criterion_7_svd_compression_neutrality(tmp_path):
    # target noise is covariance-dependent, so it is disabled here to keep the
    # training trajectory identical across covariance representations
    started = time.time()
    inc_full, inc_svd = [], []
    k = CFG.DEFAULTS["model"]["feature_dim"] // 4
    for shuffle, seed in SEED_PAIRS:
        common = (f"seeds.class_shuffle={shuffle}", f"seeds.randomness={seed}",
                  "attack.noise=false")
        full = runner.run_benchmark(reference_config(
            *common, f'output.tag="full_{seed}"', out=tmp_path))
        svd = runner.run_benchmark(reference_config(
            *common, 'covariance.mode="svd"', f"covariance.svd_k={k}",
            f'output.tag="svd_{seed}"', out=tmp_path))
        inc_full.append(full.summary["mahalanobis"]["A_inc"])
        inc_svd.append(svd.summary["mahalanobis"]["A_inc"])
    diff = abs(float(np.mean(inc_full)) - float(np.mean(inc_svd)))
    elapsed = time.time() - started
    _report(7, "svd compression neutrality", diff <= 0.005,
            f"Mahalanobis A_inc full={np.mean(inc_full):.4f} vs rank-{k}="
            f"{np.mean(inc_svd):.4f} (diff {100 * diff:.2f} pts, {elapsed:.0f}s)")


def test_criterion_8_storage_accounting():
    report = runner.storage_report(90, 512, 200, 13000, svd_k=8,
                                   float_bytes=4, index_bytes=8)
    full_bytes, svd_bytes = report["covariances_full"], report["covariances_svd"]
    full_f64 = runner.storage_report(90, 512, 200, 13000, float_bytes=8)
    ok = (full_bytes == 94_371_840
          and svd_bytes == 2_972_160
          and round(svd_bytes / 1e6, 2) == 2.97
          and abs(full_bytes / 1e6 - 94.32) < 0.06
          and full_f64["covariances_full"] == 188_743_680)
    _report(8, "storage accounting", ok,
            f"full-f32 {full_bytes} B = {full_bytes / 1e6:.2f} MB (reference row 94.32), "
            f"svd-8 {svd_bytes} B = {svd_bytes / 1e6:.2f} MB, f64 = "
            f"{full_f64['covariances_full'] / 1e6:.1f} MB")


@pytest.mark.slow
def test_criterion_9_determinism(tmp_path):
    first = runner.run_benchmark(reference_config('output.tag="one"', out=tmp_path))
    second = runner.run_benchmark(reference_config('output.tag="two"', out=tmp_path))
    a = (first.run_dir / "metrics.csv").read_bytes()
    b = (second.run_dir / "metrics.csv").read_bytes()
    _report(9, "determinism", a == b,
            f"two identical-seed runs, metrics CSVs {len(a)} bytes, byte-identical={a == b}")

"""The tape-free extractor pass (``model.features`` / ``model.feature_vjp``).

It must equal the taped ``model.extract`` and its backward pass bit for bit,
keep the tape's finiteness and shape checks, and let training, evaluation,
the forward-only callers and the replay attack run without building a
single tape node.
"""

import numpy as np
import pytest
from test_harness import csv_config

from advreplay import calib as C
from advreplay import classify as CL
from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
from advreplay import runner
from advreplay import tensor as T
from advreplay import train as TR
from advreplay.errors import DimensionError, NumericError
from advreplay.tensor import Tensor

STACKS = {
    "relu": ("relu", "relu", "relu"),
    "tanh": ("tanh", "tanh", "tanh"),
    "identity": ("identity", "identity", "identity"),
    "default": ("relu", "relu", "identity"),
}


def stack(kind, seed=0, widths=(6, 12, 9, 5)):
    return M.init_extractor(widths, STACKS[kind], np.random.default_rng(seed))


def tape_input_grad(params, x, targets):
    """d/dx of sum ||extract(x) - target||^2, through the autodiff tape."""
    leaf = Tensor(x)
    diff = T.sub(M.extract(params, leaf), Tensor(targets))
    _, grads = T.value_and_grad(T.tsum(T.mul(diff, diff)), [leaf])
    return grads[leaf].data


@pytest.mark.parametrize("kind", sorted(STACKS))
def test_features_and_vjp_equal_tape_bytewise(kind):
    params = stack(kind)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(17, 6)) * 2.0
    targets = rng.normal(size=(17, 5))

    feats, vjp = M.feature_vjp(params, x)
    assert feats.tobytes() == M.extract(params, Tensor(x)).data.tobytes()
    assert M.features(params, x).tobytes() == feats.tobytes()

    diff = feats - targets
    grad = vjp(diff + diff)
    assert grad.shape == x.shape
    assert grad.tobytes() == tape_input_grad(params, x, targets).tobytes()


def tape_attack(f_old, x, targets, cfg, offsets=None):
    """The attack loop on the float64 tape, iteration i aiming at
    ``targets + offsets[i]``; the precision reference."""
    current = x.copy()
    for i in range(cfg.n_attack):
        tgt = targets if offsets is None else targets + offsets[i]
        leaf = Tensor(current)
        diff = T.sub(M.extract(f_old, leaf), Tensor(tgt))
        _, grads = T.value_and_grad(T.tsum(T.mul(diff, diff)), [leaf])
        g = grads[leaf].data
        norms = np.linalg.norm(g, axis=1)
        active = norms >= 1e-12
        step = np.zeros_like(g)
        step[active] = cfg.alpha * g[active] / norms[active, None] ** 2
        current = current - step
    return current


def float32_copy(f):
    return M.ExtractorParams(f.widths, f.activations,
                             [w.astype(np.float32) for w in f.weights],
                             [b.astype(np.float32) for b in f.biases])


def float32_tape_attack(f_old, x, targets, cfg, r=0.0, draws=None):
    """The tape's attack loop in plain float32 numpy, op for op: the
    forward pass, its backward pass and the step, iteration i aiming at
    ``targets + r * draws[i]``.  The bit reference."""
    f = float32_copy(f_old)
    targets = targets.astype(np.float32)
    current = x.astype(np.float32)
    for i in range(cfg.n_attack):
        tgt = targets if draws is None else targets + r * draws[i]
        h, masks = current, []
        for w, b, act in zip(f.weights, f.biases, f.activations):
            z = h @ w + b
            masks.append(z > 0.0 if act == "relu" else None)
            h = np.where(masks[-1], z, 0.0).astype(np.float32) if act == "relu" else z
        diff = h - tgt
        g = diff + diff
        for w, mask in zip(reversed(f.weights), reversed(masks)):
            g = (g if mask is None else g * mask) @ w.T
        norms = np.linalg.norm(g, axis=1)
        active = norms >= 1e-12
        step = np.zeros_like(g)
        step[active] = cfg.alpha * g[active] / norms[active, None] ** 2
        current = current - step
    assert current.dtype == np.float32
    return current.astype(np.float64)


def bulk_draws(seed, cfg, shape):
    """The float32 standard normals of every iteration in one draw."""
    return np.random.default_rng(seed).standard_normal((cfg.n_attack, *shape), dtype=np.float32)


def test_attack_equals_tape_reference_with_noise():
    rng = np.random.default_rng(2)
    f = M.default_extractor(16, 32, rng, hidden=(64, 48))
    x = rng.normal(size=(64, 16)) * 3.0
    targets = rng.normal(size=(64, 32))
    cfg = R.AttackConfig(alpha=8.0, n_attack=12)
    out = R.adversarial_attack(f, x, targets, cfg, noise=(np.random.default_rng(5), 0.7))
    expected = float32_tape_attack(f, x, targets, cfg, 0.7, bulk_draws(5, cfg, targets.shape))
    assert out.tobytes() == expected.tobytes()


def test_float32_attack_stays_near_the_float64_tape():
    """The float32 attack against the float64 tape fed the same noise
    values, cast up: each row within 1e-5 of its perturbation's norm."""
    rng = np.random.default_rng(2)
    f = M.default_extractor(16, 32, rng, hidden=(64, 48))
    x = (rng.normal(size=(64, 16)) * 3.0).astype(np.float32).astype(np.float64)
    targets = rng.normal(size=(64, 32)).astype(np.float32).astype(np.float64)
    cfg = R.AttackConfig(alpha=8.0, n_attack=12)
    out = R.adversarial_attack(f, x, targets, cfg, noise=(np.random.default_rng(5), 0.7))
    offsets = 0.7 * bulk_draws(5, cfg, targets.shape).astype(np.float64)
    expected = tape_attack(f, x, targets, cfg, offsets)
    moved = np.linalg.norm(expected - x, axis=1)
    assert (moved > 0.1).all()
    assert (np.linalg.norm(out - expected, axis=1) <= 1e-5 * moved).all()


@pytest.mark.parametrize("noise,r", [(True, 0.7), (False, 0.7), (True, 0.0)])
def test_attack_equals_tape_reference_on_flat_gradient_rows(noise, r):
    """Rows whose input gradient norm is under 1e-12 stay put, with target
    noise, without, and with noise at r = 0, which aims exactly where no
    noise does.  The per-iteration draws leave the generator where one
    bulk draw of every iteration's noise leaves it."""
    rng = np.random.default_rng(6)
    f = M.default_extractor(16, 32, rng, hidden=(64, 48))
    # every first-layer unit but unit 0 is dead on a row near zero, and
    # unit 0 too on an all-zero row: an exactly zero gradient there
    bias = np.full(64, -1.0)
    bias[0] = 0.0
    f.biases[0] = bias
    x = (rng.normal(size=(64, 16)) * 3.0).astype(np.float32)
    x[[3, 17, 40]] = 0.0
    # rows that only unit 0 sees, 1e-7 in: features of order 1e-7
    x[[5, 29]] = 1e-7 * np.sign(f.weights[0][:, 0]).astype(np.float32)
    targets = rng.normal(size=(64, 32)).astype(np.float32)
    # a target one float32 step from the row's feature: a gradient norm
    # under 1e-12
    f32 = float32_copy(f)
    feats = M.features(f32, x)
    targets[[5, 29]] = np.nextafter(feats[[5, 29]], np.float32(np.inf))
    g = M.feature_vjp(f32, x)[1](2.0 * (feats - targets))
    norms = np.linalg.norm(g, axis=1)
    assert (norms[[3, 17, 40]] == 0.0).all()
    assert (0.0 < norms[[5, 29]]).all() and (norms[[5, 29]] < 1e-12).all()

    cfg = R.AttackConfig(alpha=8.0, n_attack=5)
    got_rng = np.random.default_rng(7)
    out = R.adversarial_attack(f, x, targets, cfg, noise=(got_rng, r) if noise else None)
    draws = bulk_draws(7, cfg, targets.shape) if noise else None
    expected = float32_tape_attack(f, x, targets, cfg, r, draws)
    assert out.tobytes() == expected.tobytes()
    if noise:
        want_rng = np.random.default_rng(7)
        want_rng.standard_normal((cfg.n_attack, *targets.shape), dtype=np.float32)
        assert got_rng.standard_normal() == want_rng.standard_normal()
    np.testing.assert_array_equal(out[[3, 17, 40]], x[[3, 17, 40]])
    if not (noise and r > 0.0):
        np.testing.assert_array_equal(out[[5, 29]], x[[5, 29]])


@pytest.mark.parametrize("rows", [64, 256])
def test_an_attacked_row_does_not_depend_on_its_companions(rows):
    """At a fixed row count, without noise, a row attacked beside other
    rows gets the same bits: the basis for attacking a bank once."""
    rng = np.random.default_rng(17)
    f = M.default_extractor(16, 32, rng, hidden=(64, 48))
    cfg = R.AttackConfig(alpha=8.0, n_attack=12)
    x = rng.normal(size=(rows, 16)) * 2.0
    targets = rng.normal(size=(rows, 32))
    base = R.adversarial_attack(f, x, targets, cfg)
    for _ in range(4):
        others = rng.random(rows) < 0.5
        x2, targets2 = x.copy(), targets.copy()
        x2[others] = rng.normal(size=(others.sum(), 16)) * 2.0
        targets2[others] = rng.normal(size=(others.sum(), 32))
        out = R.adversarial_attack(f, x2, targets2, cfg)
        assert out[~others].tobytes() == base[~others].tobytes()


def test_features_overflow_raises_numeric_error():
    f = M.ExtractorParams(
        (2, 2, 2), ("identity", "identity"),
        [np.eye(2) * 1e200, np.eye(2) * 1e200],
        [np.zeros(2), np.zeros(2)],
    )
    x = np.ones((3, 2))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            M.extract(f, Tensor(x))
        with pytest.raises(NumericError):
            M.features(f, x)


def test_nonfinite_input_and_bad_shape_rejected():
    f = stack("relu")
    x = np.zeros((2, 6))
    x[1, 3] = np.inf
    with pytest.raises(NumericError):
        M.features(f, x)
    with pytest.raises(DimensionError):
        M.features(f, np.zeros((2, 5)))
    with pytest.raises(DimensionError):
        M.features(f, np.zeros(6))


def test_attack_nan_target_raises_numeric_error():
    f = stack("default")
    targets = np.zeros((4, 5))
    targets[2, 1] = np.nan
    cfg = R.AttackConfig(alpha=1.0, n_attack=2)
    with pytest.raises(NumericError):
        R.adversarial_attack(f, np.ones((4, 6)), targets, cfg)


NONFINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


def extractor_passes(params, x):
    """Every entry point that runs the extractor on ``x``: forward only,
    forward with VJP, and the attack (noise off, so no rng)."""
    targets = np.zeros((len(x), params.feature_dim))
    cfg = R.AttackConfig(alpha=1.0, n_attack=3)
    return [
        lambda: M.features(params, x),
        lambda: M.feature_vjp(params, x),
        lambda: R.adversarial_attack(params, x, targets, cfg),
    ]


@pytest.mark.parametrize("value", sorted(NONFINITE))
@pytest.mark.parametrize("layer", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(STACKS))
def test_nonfinite_pre_activation_names_its_layer(kind, layer, value):
    """A non-finite bias makes that layer's pre-activation non-finite in
    every row; the error names that layer and no later one.  Relu maps -inf
    to 0 and tanh maps +inf to 1, so these two cases fail a check made
    only on the output."""
    params = stack(kind)
    bias = params.biases[layer].copy()
    bias[1] = NONFINITE[value]
    params.biases[layer] = bias
    x = np.random.default_rng(8).normal(size=(7, 6))
    # later layers multiply the inf or NaN through; numpy warns while it does
    with np.errstate(invalid="ignore"):
        for run in extractor_passes(params, x):
            with pytest.raises(NumericError,
                               match=rf"^non-finite pre-activation in extractor layer {layer}$"):
                run()


@pytest.mark.parametrize("value", sorted(NONFINITE))
@pytest.mark.parametrize("kind", sorted(STACKS))
def test_nonfinite_input_named_as_input(kind, value):
    x = np.ones((4, 6))
    x[2, 5] = NONFINITE[value]
    for run in extractor_passes(stack(kind), x):
        with pytest.raises(NumericError, match=r"^non-finite values in extractor input$"):
            run()


class SpikedDraws(np.random.Generator):
    """Standard normals, except that draw number ``at`` holds one 1e38."""

    def __init__(self, seed, at):
        super().__init__(np.random.PCG64(seed))
        self.at, self.draws = at, 0

    def standard_normal(self, *args, **kwargs):
        out = super().standard_normal(*args, **kwargs)
        if self.draws == self.at:
            out.flat[0] = 1e38
        self.draws += 1
        return out


def test_attack_noisy_targets_checked_before_any_pass(monkeypatch):
    """Targets that overflow float32 once the noise is added fail before
    the first extractor pass."""
    f = stack("default")
    calls = []
    monkeypatch.setattr(M, "feature_vjp", lambda *args: calls.append(args))
    cfg = R.AttackConfig(alpha=1.0, n_attack=4)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="attack targets"):
        R.adversarial_attack(f, np.ones((4, 6)), np.zeros((4, 5)), cfg,
                             noise=(np.random.default_rng(0), float(np.finfo(np.float32).max)))
    assert not calls


@pytest.mark.parametrize("passes", [1, 3])
def test_attack_noisy_targets_checked_before_the_pass_that_uses_them(monkeypatch, passes):
    """Each iteration's targets are drawn and checked just before its pass:
    targets that overflow float32 at iteration ``passes`` fail after the
    passes of the iterations before it, and before their own."""
    f = stack("default")
    calls = []
    real = M.feature_vjp

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(M, "feature_vjp", spy)
    cfg = R.AttackConfig(alpha=1.0, n_attack=4)
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="attack targets"):
        R.adversarial_attack(f, np.ones((4, 6)), np.zeros((4, 5)), cfg,
                             noise=(SpikedDraws(0, passes), 10.0))
    assert len(calls) == passes


@pytest.mark.parametrize("n_attack", [1, 5, 12])
def test_attack_runs_the_shared_extractor_pass_once_per_iteration(monkeypatch, n_attack):
    """The attack gets its features and input gradients from
    ``model.feature_vjp`` on a float32 copy of the extractor, one call per
    iteration, and from nowhere else."""
    f = stack("default")
    calls = []
    real = M.feature_vjp

    def spy(params, x):
        calls.append(params)
        return real(params, x)

    monkeypatch.setattr(M, "feature_vjp", spy)
    monkeypatch.setattr(M, "features", lambda *args: pytest.fail("features called"))
    rng = np.random.default_rng(9)
    out = R.adversarial_attack(f, rng.normal(size=(8, 6)), rng.normal(size=(8, 5)),
                               R.AttackConfig(alpha=2.0, n_attack=n_attack),
                               noise=(np.random.default_rng(10), 0.3))
    assert out.shape == (8, 6)
    # one float32 copy of ``f``, made once per call
    assert len(calls) == n_attack and all(p is calls[0] for p in calls)
    copy = calls[0]
    assert copy is not f and (copy.widths, copy.activations) == (f.widths, f.activations)
    for got, want in zip(copy.weights + copy.biases, f.weights + f.biases):
        assert got.dtype == np.float32 and got.tobytes() == want.astype(np.float32).tobytes()


def forbid_tensors(monkeypatch):
    """Make building any ``Tensor``, leaf or op node, fail the test."""

    def no_tape(*args, **kwargs):
        raise AssertionError("a Tensor was built")

    monkeypatch.setattr(Tensor, "__init__", no_tape)
    monkeypatch.setattr(Tensor, "_from_op", classmethod(no_tape))


def test_forward_only_callers_build_no_tape(monkeypatch):
    """Training, linear evaluation and every forward-only caller run tape-free."""
    rng = np.random.default_rng(3)
    f = M.default_extractor(6, 4, rng, hidden=(12,))
    head = M.init_head([0, 1, 2], 4, rng)
    state = M.ModelState(f, head, None, 0)
    labels = tuple(int(c) for c in np.repeat([0, 1, 2], 20))
    x = rng.normal(size=(60, 6)) + 3.0 * np.repeat(np.eye(3, 6), 20, axis=0)
    train = D.LabeledSet(x, labels, "train")
    val = D.LabeledSet(x[::2], labels[::2], "val")
    task1 = D.LabeledSet(x[:40] - 3.0, tuple(c + 3 for c in labels[:40]), "train")

    forbid_tensors(monkeypatch)
    state = TR.train_initial(state, train, TR.LossConfig(),
                             TR.OptimConfig(lr=0.1, epochs=2, batch_new=16), rng)
    f = state.extractor
    store = C.PrototypeStore()
    for cid, (mu, cov) in TR.compute_class_stats(f, train).items():
        store.add(cid, mu, cov, task=0)
    gamma = C.tune_shrinkage(store, f, val, grid=(1, 8))
    feats = M.features(f, train.x)
    CL.predict("ncm", state, store, feats)
    CL.predict("mahalanobis", state, store, feats, *gamma)
    protos = store.prototypes()
    bank = R.build_candidate_set(f, task1, protos, k=4, rng=rng, family=D.AugFamily(input_dim=6))
    centers = np.array([protos[cid] for cid in sorted(protos)])
    drift = C.generate_drift_samples(f, train, {0: store.entries[0].mu},
                                     R.AttackConfig(alpha=1.0, n_attack=2), 10)[0]
    R.adversarial_attack(f, drift, np.tile(store.entries[1].mu, (10, 1)),
                         R.AttackConfig(alpha=1.0, n_attack=3), noise=(rng, 0.5))
    state = M.begin_task(state, [3, 4, 5], rng)
    state, _ = TR.run_task(state, task1, bank, centers, 0.5, TR.LossConfig(),
                           TR.OptimConfig(lr=0.05, epochs=2, batch_new=16, batch_replay=8),
                           R.AttackConfig(alpha=1.0, n_attack=2), rng)
    CL.predict("linear", state, store, M.features(state.extractor, task1.x))


def test_full_run_builds_no_tensor(tmp_path, monkeypatch):
    """A whole run (CSV ingestion, training with replay and attack,
    calibration, every classifier, checkpoint save and load) builds no
    ``Tensor``: the tape is only the test oracle."""
    forbid_tensors(monkeypatch)
    result = runner.run_benchmark(csv_config(tmp_path))
    loaded = M.load_checkpoint(result.run_dir / "model.json")
    assert loaded.task_index == 1

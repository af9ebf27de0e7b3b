"""The tape-free extractor pass (``model.features`` / ``model.feature_vjp``).

It must equal the taped ``model.extract`` and its backward pass bit for bit,
keep the tape's finiteness and shape checks, and let training, evaluation,
the forward-only callers and the replay attack run without building a
single tape node.
"""

import numpy as np
import pytest

from advreplay import calib as C
from advreplay import classify as CL
from advreplay import data as D
from advreplay import model as M
from advreplay import replay as R
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


def tape_attack(f_old, x, targets, cfg, r, rng):
    """The attack loop as it ran on the tape, kept as the reference."""
    current = x.copy()
    for _ in range(cfg.n_attack):
        tgt = targets + r * rng.standard_normal(targets.shape)
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


def test_attack_equals_tape_reference_with_noise():
    rng = np.random.default_rng(2)
    f = M.default_extractor(16, 32, rng, hidden=(64, 48))
    x = rng.normal(size=(64, 16)) * 3.0
    targets = rng.normal(size=(64, 32))
    cfg = R.AttackConfig(alpha=8.0, n_attack=12, noise=True)
    out = R.adversarial_attack(f, x, targets, cfg, r=0.7, rng=np.random.default_rng(5))
    expected = tape_attack(f, x, targets, cfg, 0.7, np.random.default_rng(5))
    assert out.data.tobytes() == expected.tobytes()


def test_features_overflow_raises_numeric_error():
    f = M.ExtractorParams(
        (2, 2, 2), ("identity", "identity"),
        [Tensor(np.eye(2) * 1e200), Tensor(np.eye(2) * 1e200)],
        [Tensor(np.zeros(2)), Tensor(np.zeros(2))],
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
    cfg = R.AttackConfig(alpha=1.0, n_attack=2, noise=False)
    with pytest.raises(NumericError):
        R.adversarial_attack(f, np.ones((4, 6)), targets, cfg)


def test_forward_only_callers_build_no_tape(monkeypatch):
    """Training, linear evaluation and every forward-only caller run tape-free."""
    rng = np.random.default_rng(3)
    f = M.default_extractor(6, 4, rng, hidden=(12,))
    head = M.init_head([0, 1, 2], 4, rng)
    state = M.ModelState(f, head, None, 0)
    labels = tuple(int(c) for c in np.repeat([0, 1, 2], 20))
    x = rng.normal(size=(60, 6)) + 3.0 * np.repeat(np.eye(3, 6), 20, axis=0)
    train = D.LabeledSet(Tensor(x), labels, "train")
    val = D.LabeledSet(Tensor(x[::2]), labels[::2], "val")
    task1 = D.LabeledSet(Tensor(x[:40] - 3.0), tuple(c + 3 for c in labels[:40]), "train")

    def no_tape(*args, **kwargs):
        raise AssertionError("a tape node was built")

    monkeypatch.setattr(Tensor, "_from_op", classmethod(no_tape))

    state = TR.train_initial(state, train, TR.LossConfig(),
                             TR.OptimConfig(lr=0.1, epochs=2, batch_new=16), rng)
    f = state.extractor
    store = C.PrototypeStore()
    for cid, (mu, cov) in TR.compute_class_stats(f, train).items():
        store.add(cid, mu, cov, task=0)
    gamma = C.tune_shrinkage(store, f, val, grid=(1, 8))
    CL.predict("ncm", state, store, train.x)
    CL.predict("mahalanobis", state, store, train.x, *gamma)
    cands = R.build_candidate_set(f, task1, store.prototypes(), k=4, rng=rng,
                                  family=D.AugFamily(input_dim=6))
    drift = C.generate_drift_samples(f, train, store.entries[0].mu,
                                     C.DriftConfig(magnitude=1.0, iterations=2,
                                                   candidates=10))
    R.adversarial_attack(f, drift, np.tile(store.entries[1].mu, (10, 1)),
                         R.AttackConfig(alpha=1.0, n_attack=3), r=0.5, rng=rng)
    state = M.begin_task(state, [3, 4, 5], rng)
    state, _ = TR.run_task(state, task1, cands, store.prototypes(), 0.5, TR.LossConfig(),
                           TR.OptimConfig(lr=0.05, epochs=2, batch_new=16, batch_replay=8),
                           R.AttackConfig(alpha=1.0, n_attack=2), rng)
    CL.predict("linear", state, store, task1.x)

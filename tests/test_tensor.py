"""Gradient and contract tests for the autodiff core.

Every differentiable op is checked against a central finite-difference
oracle (step 1e-5, relative tolerance 1e-4) on random small inputs.
"""

import numpy as np
import pytest

from advreplay import tensor as T
from advreplay.errors import ContractError, DimensionError, NumericError

STEP = 1e-5
RTOL = 1e-4


def finite_diff(fn, x, step=STEP):
    """Central differences of a scalar function of one array argument."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = g.ravel()
    for i in range(x.size):
        xp = x.copy().ravel()
        xm = x.copy().ravel()
        xp[i] += step
        xm[i] -= step
        flat[i] = (fn(xp.reshape(x.shape)) - fn(xm.reshape(x.shape))) / (2.0 * step)
    return g


def grad_of(fn, x):
    leaf = T.Tensor(x)
    _, grads = T.value_and_grad(fn(leaf), [leaf])
    return grads[leaf].data


def assert_matches_fd(fn_tensor, fn_np, x):
    ad = grad_of(fn_tensor, x)
    fd = finite_diff(fn_np, x)
    err = np.max(np.abs(ad - fd)) / max(np.max(np.abs(fd)), 1e-6)
    assert err <= RTOL, f"gradient mismatch: rel err {err:.3e}"


# -- trivial forward examples -------------------------------------------------


def test_matmul_identity():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = T.Tensor(np.eye(2))
    np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)


def test_relu_definition():
    np.testing.assert_array_equal(T.relu(T.Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])


def test_softmax_symmetry():
    np.testing.assert_allclose(T.softmax(T.Tensor([0.0, 0.0])).data, [0.5, 0.5], rtol=0, atol=0)


def test_square_gradient_analytic():
    x = T.Tensor(3.0)
    val, grads = T.value_and_grad(T.mul(x, x), [x])
    assert val == 9.0
    assert grads[x].data == pytest.approx(6.0, abs=0)


def test_squared_distance_gradient_analytic():
    x = T.Tensor([1.0, 0.0])
    mu = T.Tensor([0.0, 0.0])
    d = T.sub(x, mu)
    _, grads = T.value_and_grad(T.tsum(T.mul(d, d)), [x])
    np.testing.assert_array_equal(grads[x].data, [2.0, 0.0])


def test_softmax_cross_entropy_matches_fd():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=4)
    onehot = np.zeros(4)
    onehot[2] = 1.0

    def loss_t(x):
        return T.neg(T.tsum(T.mul(T.Tensor(onehot), T.log_softmax(x))))

    def loss_np(x):
        s = x - x.max()
        return float(-(onehot * (s - np.log(np.exp(s).sum()))).sum())

    assert_matches_fd(loss_t, loss_np, logits)


# -- finite-difference sweep over every differentiable op ---------------------


def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _away_from(x, kink, margin):
    """Shift samples off a non-differentiable point so central FD is valid."""
    return np.where(np.abs(x - kink) < margin, x + 2 * margin, x)


def _op_cases(rng):
    w23 = T.Tensor(rng.normal(size=(2, 3)))
    w24 = T.Tensor(rng.normal(size=(2, 4)))
    w34 = T.Tensor(rng.normal(size=(3, 4)))
    w43 = T.Tensor(rng.normal(size=(4, 3)))
    w32t = T.Tensor(rng.normal(size=(3, 2)))
    wv6 = T.Tensor(rng.normal(size=6))
    wv3 = T.Tensor(rng.normal(size=3))
    wv2 = T.Tensor(rng.normal(size=2))
    bias = T.Tensor(rng.normal(size=3))
    other = T.Tensor(rng.normal(size=(2, 3)))
    cases = [
        ("add_bias", (2, 3), lambda t: T.tsum(T.mul(w23, T.add(t, bias))), None),
        ("sub", (2, 3), lambda t: T.tsum(T.mul(w23, T.sub(t, 0.7))), None),
        ("scalar_mul", (2, 3), lambda t: T.tsum(T.mul(w23, T.mul(t, 1.7))), None),
        ("mul_elementwise", (2, 3), lambda t: T.tsum(T.mul(w23, T.mul(t, other))), None),
        ("neg", (6,), lambda t: T.tsum(T.mul(wv6, T.neg(t))), None),
        ("matmul", (2, 3), lambda t: T.tsum(T.mul(w24, T.matmul(t, w34))), None),
        ("transpose", (2, 3), lambda t: T.tsum(T.mul(w32t, T.transpose(t))), None),
        ("relu", (2, 3), lambda t: T.tsum(T.mul(w23, T.relu(t))),
         lambda x: _away_from(x, 0.0, 0.05)),
        ("tanh", (2, 3), lambda t: T.tsum(T.mul(w23, T.tanh(t))), None),
        ("softmax", (2, 3), lambda t: T.tsum(T.mul(w23, T.softmax(t))), None),
        ("log_softmax", (2, 3), lambda t: T.tsum(T.mul(w23, T.log_softmax(t))), None),
        ("sum_axis", (2, 3), lambda t: T.tsum(T.mul(wv3, T.tsum(t, axis=0))), None),
        ("mean_axis", (2, 3), lambda t: T.tsum(T.mul(wv2, T.tmean(t, axis=1))), None),
        ("mean_all", (2, 3), lambda t: T.tmean(t), None),
        ("normalize", (2, 3), lambda t: T.tsum(T.mul(w23, T.normalize(t, axis=1))),
         lambda x: x + np.sign(x) + 0.1),
        ("concat", (2, 3), lambda t: T.tsum(T.mul(w43, T.concat([t, T.mul(t, 2.0)], axis=0))),
         None),
        ("permute_columns", (2, 3), lambda t: T.tsum(T.mul(w23, T.permute_columns(t, [2, 0, 1]))),
         None),
    ]
    return cases


def test_all_ops_match_finite_differences():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        for name, shape, build, condition in _op_cases(rng):
            x = rng.normal(size=shape)
            if condition is not None:
                x = condition(x)

            def fn_np(arr, build=build):
                return T.value_and_grad(build(T.Tensor(arr)), [])[0]

            ad = grad_of(build, x)
            fd = finite_diff(fn_np, x)
            err = np.max(np.abs(ad - fd)) / max(np.max(np.abs(fd)), 1e-6)
            assert err <= RTOL, f"op {name}, seed {seed}: rel err {err:.3e}"


# -- structural invariants -----------------------------------------------------


def test_adjoint_linearity():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=5))
    g1 = T.tsum(T.tanh(x))
    g2 = T.tsum(T.mul(x, x))
    _, parts1 = T.value_and_grad(g1, [x])
    _, parts2 = T.value_and_grad(g2, [x])
    _, joint = T.value_and_grad(T.add(g1, g2), [x])
    np.testing.assert_allclose(joint[x].data, parts1[x].data + parts2[x].data,
                               rtol=1e-12, atol=1e-12)


def test_backward_is_deterministic():
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.normal(size=(4, 3)))
    w = T.Tensor(rng.normal(size=(3, 2)))
    out = T.tsum(T.softmax(T.matmul(T.relu(x), w)))
    _, first = T.value_and_grad(out, [x, w])
    _, second = T.value_and_grad(out, [x, w])
    assert np.array_equal(first[x].data, second[x].data)
    assert np.array_equal(first[w].data, second[w].data)


def test_unreached_leaf_gets_zero_gradient():
    x = T.Tensor([1.0, 2.0])
    other = T.Tensor([[3.0]])
    _, grads = T.value_and_grad(T.tsum(x), [x, other])
    np.testing.assert_array_equal(grads[other].data, np.zeros((1, 1)))


def test_normalize_zero_vector_guard():
    x = T.Tensor([0.0, 0.0, 0.0])
    y = T.normalize(x)
    np.testing.assert_array_equal(y.data, np.zeros(3))
    _, grads = T.value_and_grad(T.tsum(y), [x])
    np.testing.assert_array_equal(grads[x].data, np.zeros(3))


def where_normalize(a, axis):
    """``normalize_vjp`` with its zero-norm selects applied to every slice:
    the oracle of its unguarded path."""
    n = np.sqrt((a * a).sum(axis=axis, keepdims=True))
    small = n < 1e-12
    safe = np.where(small, 1.0, n)
    y = np.where(small, 0.0, a / safe)

    def vjp(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return np.where(small, 0.0, (g - y * inner) / safe)

    return y, vjp


def normalize_cases(axis):
    """(name, matrix) pairs whose slices along ``axis`` hold 5 to 11
    entries; in the near-1e-12 and zero cases the third slice has that
    norm."""
    rng = np.random.default_rng(21)
    cases = [(f"random{i}", rng.normal(size=(7, 7)) * scale)
             for i, scale in enumerate((1.0, 1e-3, 1e150))]
    cases += [("random-wide", rng.normal(size=(5, 11))), ("random-tall", rng.normal(size=(11, 5)))]
    unit = rng.normal(size=7)
    unit /= np.sqrt((unit * unit).sum())
    for name, norm in (("just-below", 1e-12 * (1 - 1e-6)), ("at", 1e-12),
                       ("just-above", 1e-12 * (1 + 1e-6)), ("zero", 0.0)):
        a = rng.normal(size=(7, 7))
        np.moveaxis(a, axis, -1)[2] = unit * norm
        cases.append((name, a))
    for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        a = rng.normal(size=(7, 7))
        a[1, 5] = value
        cases.append((name, a))
    return cases


@pytest.mark.parametrize("axis,name,a", [(axis, name, a) for axis in (0, 1)
                                         for name, a in normalize_cases(axis)],
                         ids=[f"{axis}-{name}" for axis in (0, 1)
                              for name, _ in normalize_cases(axis)])
def test_normalize_vjp_equals_the_guarded_oracle_bytewise(axis, name, a):
    """Without a slice under 1e-12, ``normalize_vjp`` skips its selects; the
    tape calls the same function, so only this oracle can catch a fast path
    whose forward or VJP bits drift."""
    g = np.random.default_rng(22).normal(size=a.shape)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        y, vjp = T.normalize_vjp(a, axis=axis)
        want_y, want_vjp = where_normalize(a, axis)
        got_g, want_g = vjp(g), want_vjp(g)
    assert y.shape == want_y.shape == a.shape and got_g.shape == a.shape
    assert y.tobytes() == want_y.tobytes()
    assert got_g.tobytes() == want_g.tobytes()
    if name in ("just-below", "zero"):  # the guarded slice maps to zero
        assert not np.moveaxis(y, axis, -1)[2].any()
        assert not np.moveaxis(got_g, axis, -1)[2].any()


def test_permute_columns_equals_permutation_matmul_bitwise():
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.normal(size=(6, 5)))
    order = rng.permutation(5)
    perm = np.zeros((5, 5))
    perm[order, np.arange(5)] = 1.0
    w = T.Tensor(rng.normal(size=(6, 5)))
    gathered = T.permute_columns(x, order)
    product = T.matmul(x, T.Tensor(perm))
    assert np.array_equal(gathered.data, product.data)
    _, g_gather = T.value_and_grad(T.tsum(T.mul(w, gathered)), [x])
    _, g_product = T.value_and_grad(T.tsum(T.mul(w, product)), [x])
    assert np.array_equal(g_gather[x].data, g_product[x].data)


def test_permute_columns_rejects_non_matrix():
    with pytest.raises(DimensionError):
        T.permute_columns(T.Tensor(np.zeros(3)), [2, 0, 1])


# -- error contracts -----------------------------------------------------------


def test_shape_mismatch_raises_dimension_error():
    with pytest.raises(DimensionError):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 1))))
    with pytest.raises(DimensionError):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_nonfinite_result_names_op():
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="op 'mul'"):
        T.mul(T.Tensor([1e308]), 10.0)


def test_nonfinite_constructor_rejected():
    with pytest.raises(NumericError):
        T.Tensor([np.inf, 1.0])


def test_nonscalar_output_rejected():
    x = T.Tensor([1.0, 2.0])
    with pytest.raises(ContractError):
        T.value_and_grad(x, [x])


def test_wanted_must_be_leaves():
    x = T.Tensor([1.0, 2.0])
    y = T.mul(x, 2.0)
    with pytest.raises(ContractError):
        T.value_and_grad(T.tsum(y), [y])


def test_suffix_broadcast_only_leading_batch_axis():
    batch = T.Tensor(np.ones((4, 3)))
    bias = T.Tensor(np.ones(3))
    assert T.add(batch, bias).shape == (4, 3)
    scalar = T.Tensor(2.0)
    assert T.mul(batch, scalar).shape == (4, 3)

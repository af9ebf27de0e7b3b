"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is built per forward pass (define-by-run): every operation returns
a new immutable ``Tensor`` that remembers its parents and one vector-Jacobian
product closure per parent.  ``value_and_grad`` walks the graph once in
reverse topological order, so each node's adjoint is accumulated exactly once
and two backward passes over the same graph are bit-identical.

Broadcasting is deliberately restricted to the leading batch axis: two
operands must have equal shapes, or one shape must be a trailing suffix of
the other (e.g. ``(batch, d) + (d,)``), or one operand must be a scalar.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .arrays import readonly
from .errors import ContractError, DimensionError, NumericError

ArrayLike = Union[float, int, Sequence, np.ndarray, "Tensor"]

_NORM_EPS = 1e-12


class Tensor:
    """Immutable dense array node on the autodiff tape.

    ``data`` is always a read-only float64 ``ndarray``; constructing a tensor
    with NaN or Inf entries raises ``NumericError`` so non-finite values can
    never enter a graph silently.
    """

    __slots__ = ("data", "op", "_parents", "_vjps")

    def __init__(self, data: ArrayLike):
        self.data = readonly(data, "tensor constructor")
        self.op = "leaf"
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] = ()

    @classmethod
    def _from_op(cls, data: np.ndarray, op: str, parents: tuple["Tensor", ...],
                 vjps: tuple[Callable[[np.ndarray], np.ndarray], ...]) -> "Tensor":
        if not np.isfinite(data).all():
            raise NumericError(f"non-finite result in op '{op}'")
        out = cls.__new__(cls)
        arr = np.asarray(data, dtype=np.float64)
        if arr.base is not None or arr.flags.writeable is False:
            arr = arr.copy()
        arr.flags.writeable = False
        out.data = arr
        out.op = op
        out._parents = parents
        out._vjps = vjps
        return out

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def is_leaf(self) -> bool:
        return not self._parents


def as_tensor(x: ArrayLike) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- broadcasting helpers -------------------------------------------------


def _check_suffix_broadcast(a: tuple[int, ...], b: tuple[int, ...], op: str) -> None:
    """Allow equal shapes, scalar operands, or a trailing-suffix match."""
    if a == b or a == () or b == ():
        return
    small, big = (a, b) if len(a) <= len(b) else (b, a)
    if big[len(big) - len(small):] != small:
        raise DimensionError(f"{op}: shapes {a} and {b} do not broadcast over the batch axis")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the leading axes a suffix-broadcast introduced."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(extra)))


# -- elementwise and linear ops -------------------------------------------


def add(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_suffix_broadcast(a.shape, b.shape, "add")
    out = a.data + b.data
    return Tensor._from_op(
        out, "add", (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(g, b.shape)),
    )


def sub(a: ArrayLike, b: ArrayLike) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_suffix_broadcast(a.shape, b.shape, "sub")
    out = a.data - b.data
    return Tensor._from_op(
        out, "sub", (a, b),
        (lambda g: _unbroadcast(g, a.shape), lambda g: _unbroadcast(-g, b.shape)),
    )


def neg(a: ArrayLike) -> Tensor:
    a = as_tensor(a)
    return Tensor._from_op(-a.data, "neg", (a,), (lambda g: -g,))


def mul(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise product; with a python scalar this is scalar-multiply."""
    a, b = as_tensor(a), as_tensor(b)
    _check_suffix_broadcast(a.shape, b.shape, "mul")
    out = a.data * b.data
    ad, bd = a.data, b.data
    return Tensor._from_op(
        out, "mul", (a, b),
        (lambda g: _unbroadcast(g * bd, a.shape), lambda g: _unbroadcast(g * ad, b.shape)),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul: expected 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = a.data @ b.data
    ad, bd = a.data, b.data
    return Tensor._from_op(
        out, "matmul", (a, b),
        (lambda g: g @ bd.T, lambda g: ad.T @ g),
    )


def transpose(a: Tensor) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose: expected a 2-D tensor, got {a.shape}")
    return Tensor._from_op(a.data.T, "transpose", (a,), (lambda g: g.T,))


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(as_tensor(p) for p in parts)
    if not parts:
        raise DimensionError("concat: empty input")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i: int) -> Callable[[np.ndarray], np.ndarray]:
        lo, hi = offsets[i], offsets[i + 1]
        return lambda g: np.take(g, np.arange(lo, hi), axis=axis)

    return Tensor._from_op(out, "concat", parts, tuple(make_vjp(i) for i in range(len(parts))))


def permute_columns(a: Tensor, order: Sequence[int]) -> Tensor:
    """Columns of a 2-D tensor reordered: output column j is input column
    ``order[j]``, where ``order`` is a permutation of the column indices."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"permute_columns: expected a 2-D tensor, got {a.shape}")
    order = np.asarray(order, dtype=np.intp)
    inverse = np.argsort(order)
    # np.take returns a fresh C-ordered array, as the matmul it replaces did;
    # ``a[:, order]`` returns a strided view that _from_op would copy
    return Tensor._from_op(np.take(a.data, order, axis=1), "permute_columns", (a,),
                           (lambda g: np.take(g, inverse, axis=1),))


# -- nonlinearities ---------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0.0
    return Tensor._from_op(np.where(mask, a.data, 0.0), "relu", (a,), (lambda g: g * mask,))


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)
    return Tensor._from_op(y, "tanh", (a,), (lambda g: g * (1.0 - y * y),))


def softmax_vjp(a: np.ndarray):
    """Plain row-wise softmax along the last axis (shift-stabilized) and its
    VJP; ``softmax`` puts exactly this on the tape."""
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: np.ndarray) -> np.ndarray:
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return y, vjp


def softmax(a: Tensor) -> Tensor:
    """Row-wise softmax along the last axis (shift-stabilized)."""
    a = as_tensor(a)
    y, vjp = softmax_vjp(a.data)
    return Tensor._from_op(y, "softmax", (a,), (vjp,))


def log_softmax_vjp(a: np.ndarray):
    """Plain row-wise log-softmax and its VJP; ``log_softmax`` puts exactly
    this on the tape."""
    shifted = a - a.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse
    p = np.exp(out)

    def vjp(g: np.ndarray) -> np.ndarray:
        return g - p * g.sum(axis=-1, keepdims=True)

    return out, vjp


def log_softmax(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out, vjp = log_softmax_vjp(a.data)
    return Tensor._from_op(out, "log_softmax", (a,), (vjp,))


# -- reductions and norms ---------------------------------------------------


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis)
    shape, nd = a.shape, a.data.ndim

    def vjp(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return np.broadcast_to(g, shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis % nd), shape).copy()

    return Tensor._from_op(out, "sum", (a,), (vjp,))


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis)
    shape, nd = a.shape, a.data.ndim
    count = a.data.size if axis is None else shape[axis % nd]

    def vjp(g: np.ndarray) -> np.ndarray:
        if axis is None:
            return np.broadcast_to(g / count, shape).copy()
        return np.broadcast_to(np.expand_dims(g, axis % nd) / count, shape).copy()

    return Tensor._from_op(out, "mean", (a,), (vjp,))


def normalize_vjp(a: np.ndarray, axis: int = -1):
    """Plain ``normalize`` forward and its VJP; ``normalize`` puts exactly
    this on the tape.

    When no slice's norm is below 1e-12 the selects of the guarded path
    would pick ``a / n`` and ``(g - y * inner) / n`` everywhere, so those
    are returned directly, with the same bits.
    """
    n = np.sqrt(np.add.reduce(a * a, axis=axis, keepdims=True))
    small = n < _NORM_EPS
    if not small.any():
        y = a / n

        def vjp(g: np.ndarray) -> np.ndarray:
            return (g - y * np.add.reduce(g * y, axis=axis, keepdims=True)) / n

        return y, vjp

    safe = np.where(small, 1.0, n)
    y = np.where(small, 0.0, a / safe)

    def vjp(g: np.ndarray) -> np.ndarray:
        inner = (g * y).sum(axis=axis, keepdims=True)
        out = (g - y * inner) / safe
        return np.where(small, 0.0, out)

    return y, vjp


def normalize(a: Tensor, axis: int = -1) -> Tensor:
    """``x / ||x||_2`` along ``axis``; slices with norm < 1e-12 map to zero
    with a zero gradient, avoiding the division singularity."""
    a = as_tensor(a)
    y, vjp = normalize_vjp(a.data, axis)
    return Tensor._from_op(y, "normalize", (a,), (vjp,))


# -- reverse-mode differentiation -------------------------------------------


def _topo_order(output: Tensor) -> list[Tensor]:
    """Iterative post-order DFS; parents before children in the result."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def value_and_grad(output: Tensor, wanted: Iterable[Tensor]) -> tuple[float, Mapping[Tensor, Tensor]]:
    """Evaluate a scalar graph output and its gradients w.r.t. leaf tensors.

    Gradients of leaves the output does not depend on are zero tensors.  The
    walk is a pure function of the graph, so repeated calls are bit-identical.
    """
    wanted = tuple(wanted)
    if output.data.shape != ():
        raise ContractError(f"value_and_grad: output must be scalar, got shape {output.shape}")
    for leaf in wanted:
        if not leaf.is_leaf:
            raise ContractError("value_and_grad: wanted tensors must be tape leaves")

    grads: dict[int, np.ndarray] = {id(output): np.ones((), dtype=np.float64)}
    for node in reversed(_topo_order(output)):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, vjp in zip(node._parents, node._vjps):
            contrib = vjp(g)
            acc = grads.get(id(parent))
            grads[id(parent)] = contrib if acc is None else acc + contrib
        if node._parents:
            continue
        grads[id(node)] = g  # keep leaf adjoints for collection below

    result = {
        leaf: Tensor(grads.get(id(leaf), np.zeros(leaf.shape, dtype=np.float64)))
        for leaf in wanted
    }
    return float(output.data), result

"""Dense float64 tensors with reverse-mode gradients.

Every forward operation records its parents together with a closed-form
adjoint, so ``backward()`` on a scalar walks the graph once in reverse
topological order. Broadcasting is deliberately restricted to leading-axis
expansion (a smaller operand whose shape is a suffix of the larger one),
which keeps every adjoint a plain sum over the expanded axes.

Conventions:
  * relu'(0) == 0
  * softmax is computed with max-subtraction, so huge logits stay finite
"""

from __future__ import annotations

import contextlib
import math

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible."""


class NumericError(ArithmeticError):
    """Raised when a computation produces or receives non-finite values."""


class GraphReleasedError(RuntimeError):
    """Raised when ``backward()`` would walk a graph an earlier one freed."""


class _Released(tuple):
    """The empty ``parents`` of a tensor whose graph ``backward()`` freed.

    It is still a tuple, so code that walks ``parents`` sees no parents;
    only ``backward()`` tells it from a leaf's ``()``.
    """

    __slots__ = ()


_RELEASED = _Released()
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context manager under which new tensors record no parents.

    Forward-only passes (validation loss, prediction) run under it, so each
    intermediate is freed as soon as nothing reads it. The arithmetic is the
    same, so the outputs are bit-identical to a taped pass. Blocks nest, and
    the previous mode comes back on exit, also after an exception.
    """
    global _grad_enabled
    outer, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = outer


class Tensor:
    """A float64 array plus an optional gradient accumulator.

    ``parents`` holds ``(tensor, adjoint_fn)`` pairs; ``adjoint_fn`` maps the
    upstream gradient to this parent's gradient contribution. A tensor made
    under ``no_grad()`` has no parents. ``backward()`` accumulates gradients
    into ``.grad`` of the leaves (tensors with no parents, such as every
    ``Parameter``) only, and releases the graph as it walks it: each
    intermediate drops its parents, so a second ``backward()`` through it
    raises ``GraphReleasedError``.
    """

    __slots__ = ("data", "grad", "parents")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = tuple(parents) if _grad_enabled else ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def backward(self):
        """Accumulate gradients of this scalar into every reachable leaf.

        Each node is popped from the walk and drops its parents once its
        adjoints have run, so the tape is freed while it is walked.
        """
        if self.data.size != 1:
            raise DimensionError(
                f"backward() needs a scalar, got shape {self.data.shape}"
            )
        topo = _toposort(self)
        pending = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = pending.pop(id(node), None)
            if g is None:
                continue
            if not node.parents:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, adjoint in node.parents:
                pg = adjoint(g)
                key = id(parent)
                if key in pending:
                    pending[key] = pending[key] + pg
                else:
                    pending[key] = pg
            node.parents = _RELEASED


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative DFS; returns nodes in topological order, root last. Raises
    # before any gradient moves if the graph reaches a released tensor.
    order: list[Tensor] = []
    state: dict[int, int] = {}  # 0 = entered, 1 = done
    stack = [root]
    while stack:
        node = stack[-1]
        key = id(node)
        if state.get(key) == 1:
            stack.pop()
            continue
        if node.parents is _RELEASED:
            raise GraphReleasedError(
                "backward() reached a tensor whose graph an earlier backward() "
                "released; rebuild the forward pass"
            )
        if key not in state:
            state[key] = 0
            for parent, _ in node.parents:
                if state.get(id(parent)) != 1:
                    stack.append(parent)
        else:
            state[key] = 1
            order.append(node)
            stack.pop()
    return order


class Parameter(Tensor):
    """A named leaf tensor that learns."""

    __slots__ = ("name",)

    def __init__(self, name: str, value) -> None:
        super().__init__(value)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum upstream gradient over axes added by leading-axis expansion."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _check_suffix(a_shape: tuple, b_shape: tuple, op: str):
    small, big = (a_shape, b_shape) if len(a_shape) <= len(b_shape) else (b_shape, a_shape)
    if big[len(big) - len(small):] != small:
        raise DimensionError(f"{op}: shapes {a_shape} and {b_shape} are incompatible")


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix(a.shape, b.shape, "add")
    out = a.data + b.data
    return Tensor(out, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix(a.shape, b.shape, "sub")
    return Tensor(a.data - b.data, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(-g, b.shape)),
    ])


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_suffix(a.shape, b.shape, "mul")
    return Tensor(a.data * b.data, [
        (a, lambda g: _unbroadcast(g * b.data, a.shape)),
        (b, lambda g: _unbroadcast(g * a.data, b.shape)),
    ])


def scale(a, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return Tensor(a.data * c, [(a, lambda g: g * c)])


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0  # relu'(0) == 0 by convention
    return Tensor(np.where(mask, a.data, 0.0), [(a, lambda g: g * mask)])


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    sign = np.sign(a.data)  # subgradient 0 at 0
    return Tensor(np.abs(a.data), [(a, lambda g: g * sign)])


# ---------------------------------------------------------------------------
# reductions


def sum_all(a) -> Tensor:
    a = _as_tensor(a)
    return Tensor(a.data.sum(), [(a, lambda g: np.broadcast_to(g, a.shape).copy())])


def mean_all(a) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size
    return Tensor(a.data.mean(), [
        (a, lambda g: np.broadcast_to(g / n, a.shape).copy())
    ])


# ---------------------------------------------------------------------------
# layout


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape
    return Tensor(a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def transpose(a, axes=None) -> Tensor:
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return Tensor(a.data.transpose(axes), [(a, lambda g: g.transpose(inv))])


def concat_last(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape[:-1] != b.shape[:-1]:
        raise DimensionError(
            f"concat_last: shapes {a.shape} and {b.shape} differ off the last axis"
        )
    split = a.shape[-1]
    return Tensor(np.concatenate([a.data, b.data], axis=-1), [
        (a, lambda g: g[..., :split]),
        (b, lambda g: g[..., split:]),
    ])


def expand_leading(a, n: int) -> Tensor:
    """Repeat a tensor along a new leading axis of extent ``n``."""
    a = _as_tensor(a)
    out = np.broadcast_to(a.data, (n,) + a.shape).copy()
    return Tensor(out, [(a, lambda g: g.sum(axis=0))])


# ---------------------------------------------------------------------------
# linear algebra


def _weight_parents(a: Tensor, W: Tensor) -> list:
    """The parents of ``a @ W`` for a 2-d weight ``W``: each adjoint is one GEMM
    over the leading axes of ``a`` and of the upstream gradient, flattened into
    rows, so the weight gradient needs no sum over the batch."""
    d_in, d_out = W.shape

    def grad_a(g):
        return (g.reshape(-1, d_out) @ W.data.T).reshape(a.shape)

    def grad_w(g):
        return a.data.reshape(-1, d_in).T @ g.reshape(-1, d_out)

    return [(a, grad_a), (W, grad_w)]


def matmul(a, b) -> Tensor:
    """Batched matrix product over the last two axes.

    Either operand may have extra leading batch axes. A 2-d weight matrix on
    the right is the common case, with the adjoints of ``_weight_parents``.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul: operands must be >=2-d, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner extents differ, {a.shape} x {b.shape}")
    out = a.data @ b.data

    if b.data.ndim == 2:
        return Tensor(out, _weight_parents(a, b))

    def grad_a(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        return _unbroadcast(ga, a.shape)

    def grad_b(g):
        return _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)

    return Tensor(out, [(a, grad_a), (b, grad_b)])


def qkv_projection(x, W_Q, W_K, W_V):
    """``(x @ W_Q, x @ W_K, x @ W_V)``, each product one GEMM over all rows of ``x``.

    The leading axes of ``x`` are flattened into rows in the order they lie
    in memory, so attention's transposed ``x`` is multiplied without a copy,
    and each weight takes one GEMM instead of one small GEMM per slice. Each
    output has the adjoints ``matmul`` gives a 2-d weight on the right, so
    backward makes the same products as three ``matmul`` calls. The forward
    products have other shapes than ``matmul``'s per-slice ones, so BLAS may
    round them differently: with OpenBLAS 0.3.31 on x86-64 the bits match at
    widths up to 16 and at multiples of 8 (the default 104 among them), and
    differ in the last place at some other widths, 28 and 84 among them.
    """
    x = _as_tensor(x)
    weights = [_as_tensor(W) for W in (W_Q, W_K, W_V)]
    if x.data.ndim < 2 or any(W.data.ndim != 2 or W.shape[0] != x.shape[-1]
                              for W in weights):
        raise DimensionError(f"qkv_projection: input {x.shape} does not match weights "
                             f"{[W.shape for W in weights]}")
    d_in = x.shape[-1]
    if x.shape[-2] == 1:
        # numpy multiplies one-row slices as vectors, which a GEMM over all
        # rows does not round alike, so these stay per-slice products
        outs = [x.data @ W.data for W in weights]
    else:
        lead = x.data.ndim - 1
        order = sorted(range(lead), key=lambda axis: -x.data.strides[axis]) + [lead]
        rows = x.data.transpose(order)  # C-contiguous when x is a transposed array
        flat, back = rows.reshape(-1, d_in), np.argsort(order)
        outs = [(flat @ W.data).reshape(rows.shape[:-1] + (-1,)).transpose(back)
                for W in weights]

    return tuple(Tensor(o, _weight_parents(x, W)) for o, W in zip(outs, weights))


def linear(x, W, b=None) -> Tensor:
    """x @ W + b with the weight applied to the last axis of x."""
    x, W = _as_tensor(x), _as_tensor(W)
    if x.shape[-1] != W.shape[0]:
        raise DimensionError(
            f"linear: input {x.shape} does not match weight {W.shape}"
        )
    out = matmul(x, W)
    return out if b is None else add(out, b)


def softmax_last(x) -> Tensor:
    """Row-wise softmax over the last axis, max-subtracted for stability."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def adjoint(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return s * (g - inner)

    return Tensor(s, [(x, adjoint)])


def scaled_dot_attention(Q, K, V):
    """Scaled dot-product attention over the last two axes.

    Q, K, V share a shape ``[..., T, d]``. Returns ``(O, A)`` where
    ``A = softmax(Q K^T / sqrt(d))`` and ``O = A V``; both stay on the
    gradient graph.
    """
    Q, K, V = _as_tensor(Q), _as_tensor(K), _as_tensor(V)
    if Q.shape != K.shape or Q.shape != V.shape:
        raise DimensionError(
            f"attention: Q {Q.shape}, K {K.shape}, V {V.shape} must match"
        )
    d = Q.shape[-1]
    scores = scale(matmul(Q, transpose(K, _swap_last2(K))), 1.0 / math.sqrt(d))
    A = softmax_last(scores)
    O = matmul(A, V)
    return O, A


def _swap_last2(t: Tensor):
    axes = list(range(t.data.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    return axes


# ---------------------------------------------------------------------------
# gradient verification


def finite_diff_check(loss_fn, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``loss_fn`` against central differences.

    ``loss_fn`` maps the parameter list to a scalar Tensor and must be
    deterministic. Returns the max over all parameter entries of
    ``|analytic - numeric| / max(1, |numeric|)``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    for p in params:
        p.zero_grad()
    out = loss_fn(params)
    if not np.isfinite(out.data).all():
        raise NumericError("loss is not finite")
    out.backward()
    analytic = {
        p.name: p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
        for p in params
    }

    max_err = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        aflat = analytic[p.name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(loss_fn(params).data)
            flat[i] = orig - eps
            f_minus = float(loss_fn(params).data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError("loss is not finite during perturbation")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            err = abs(aflat[i] - numeric) / max(1.0, abs(numeric))
            if err > max_err:
                max_err = err
    return max_err

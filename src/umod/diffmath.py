"""Dense float64 tensors with reverse-mode gradients.

Every forward operation records its parents together with a closed-form
adjoint, so ``backward()`` on a scalar walks the graph once in reverse
topological order. The graph is kept apart from the data: an operation's
output points at a small node that holds its parents, and each adjoint
captures only the arrays it reads, so an intermediate that no adjoint reads
is freed as soon as the caller drops it. Nothing broadcasts: elementwise
operands have equal shapes, and ``linear`` adds its bias over the leading
axes itself, so no adjoint has to undo an expansion.

Conventions:
  * relu'(0) == 0, and relu gives +0.0 for every input that is not above 0,
    -0.0 and NaN included
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
    """The empty ``parents`` of a node whose graph ``backward()`` freed.

    It is still a tuple, so code that walks ``parents`` sees no parents;
    only ``backward()`` tells it from a leaf's ``()``.
    """

    __slots__ = ()


_RELEASED = _Released()
_grad_enabled = True
LEAF = 2 ** 16  # the most values one pairwise_sum leaf sums; at least numpy's block of 128


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


class _Node:
    """A non-leaf tensor's place on the graph: its parents, and not its data."""

    __slots__ = ("parents",)

    def __init__(self, parents):
        self.parents = parents


def _on_graph(parents) -> tuple:
    # (tensor, adjoint) pairs as the graph keeps them: a non-leaf tensor by its
    # node, a leaf by itself
    return tuple((p._node or p if isinstance(p, Tensor) else p, adjoint)
                 for p, adjoint in parents)


class Tensor:
    """A float64 array plus an optional gradient accumulator.

    ``parents`` holds ``(parent, adjoint_fn)`` pairs; ``adjoint_fn`` maps the
    upstream gradient to this parent's gradient contribution. A tensor made
    under ``no_grad()`` has no parents. The pairs live on a node apart from
    ``data``, and a consumer points at that node, so the graph does not keep
    an intermediate's array alive; ``parents`` lists a non-leaf parent by its
    node, which has ``parents`` too, and a leaf by the tensor itself.
    ``backward()`` accumulates gradients into ``.grad`` of the leaves
    (tensors with no parents, such as every model parameter) only, and
    releases the graph as it walks it: each node drops its parents, so a
    second ``backward()`` through it raises ``GraphReleasedError``.
    """

    __slots__ = ("data", "grad", "_node")

    def __init__(self, data, parents=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._node = _Node(_on_graph(parents)) if parents and _grad_enabled else None

    @property
    def parents(self) -> tuple:
        return () if self._node is None else self._node.parents

    @parents.setter
    def parents(self, parents):
        self._node.parents = _on_graph(parents)

    @property
    def shape(self):
        return self.data.shape

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
        root = self._node or self
        topo = _toposort(root)
        pending = {id(root): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = pending.pop(id(node))  # every consumer ran before it
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


def _toposort(root) -> list:
    # Iterative DFS; returns nodes in topological order, root last. Raises
    # before any gradient moves if the graph reaches a released node.
    order = []
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


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# arithmetic


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {a.shape} and {b.shape} differ")
    return Tensor(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def relu(a) -> Tensor:
    a = _as_tensor(a)
    mask = a.data > 0.0  # relu'(0) == 0 by convention
    out = np.fmax(a.data, 0.0)  # 0.0 for NaN, without np.where's branch per entry
    out += 0.0  # -0.0 becomes +0.0
    return Tensor(out, [(a, lambda g: g * mask)])


# ---------------------------------------------------------------------------
# reductions


def pairwise_sum(n: int, leaf, lo: int = 0):
    """The sum of ``leaf(lo, m)`` over nodes ``[lo, lo + m)`` that tile ``[lo, lo + n)``.

    The range splits as numpy's pairwise sum splits an array: halve, round
    the first half down to a multiple of 8, and stop at nodes of at most
    ``LEAF`` values. A leaf that returns ``np.sum`` of its slice of a
    contiguous array therefore gives ``np.sum`` of the whole array, bit for
    bit, while no temporary is larger than a leaf. Whatever the leaves return
    is added with ``+``. This is a module function and not a closure that
    calls itself, since such a closure is a reference cycle that keeps the
    caller's arrays alive until the cycle collector runs.
    """
    if n <= LEAF:
        return leaf(lo, n)
    half = n // 2
    half -= half % 8
    return pairwise_sum(half, leaf, lo) + pairwise_sum(n - half, leaf, lo + half)


def mean_error(pred, target, squared: bool) -> Tensor:
    """``mean((pred - target)**2)`` if ``squared``, else ``mean(|pred - target|)``.

    ``target`` is a plain array of ``pred``'s shape and gets no gradient; the
    one adjoint goes to ``pred``, with subgradient 0 where the two are equal.
    """
    pred = _as_tensor(pred)
    if pred.shape != np.shape(target):
        raise DimensionError(f"mean_error: prediction {pred.shape} vs target "
                             f"{np.shape(target)}")
    d = pred.data - target
    n = d.size
    # each adjoint makes one C-ordered array whatever pred's strides, because
    # the rounding of the sums and products that consume it follows its layout
    if squared:
        def adjoint(g):
            out = np.multiply(g / n, d, order="C")
            out *= 2.0
            return out

        flat = d.ravel(order="K")  # a view in d's memory order, which (d * d).mean() sums in
        total = pairwise_sum(n, lambda lo, m: np.square(flat[lo:lo + m]).sum())
        return Tensor(total / n, [(pred, adjoint)])
    # sign(d) is exact in float32, NaN included, at half the size of d
    sign = np.sign(d, out=np.empty(d.shape, np.float32))
    np.abs(d, out=d)
    return Tensor(d.mean(), [(pred, lambda g: np.multiply(g / n, sign, order="C",
                                                          dtype=np.float64))])


# ---------------------------------------------------------------------------
# layout


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.data.size:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    old = a.shape
    return Tensor(a.data.reshape(shape), [(a, lambda g: g.reshape(old))])


def transpose(a, axes) -> Tensor:
    a = _as_tensor(a)
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise DimensionError(f"transpose: axes {axes} do not permute the axes of {a.shape}")
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
    x, w, shape = a.data, W.data, a.shape

    def grad_a(g):
        return (g.reshape(-1, d_out) @ w.T).reshape(shape)

    def grad_w(g):
        return x.reshape(-1, d_in).T @ g.reshape(-1, d_out)

    return [(a, grad_a), (W, grad_w)]


def matmul(a, b) -> Tensor:
    """Batched matrix product over the last two axes; the leading axes must match.

    A weight applied to the last axis goes through ``linear`` instead.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if (min(a.data.ndim, b.data.ndim) < 2 or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise DimensionError(f"matmul: cannot multiply {a.shape} x {b.shape}")
    ad, bd = a.data, b.data
    return Tensor(ad @ bd, [
        (a, lambda g: g @ np.swapaxes(bd, -1, -2)),
        (b, lambda g: np.swapaxes(ad, -1, -2) @ g),
    ])


def qkv_projection(x, W_Q, W_K, W_V):
    """``(x @ W_Q, x @ W_K, x @ W_V)``, each product one GEMM over all rows of ``x``.

    The leading axes of ``x`` are flattened into rows in the order they lie
    in memory, so attention's transposed ``x`` is multiplied without a copy,
    and each weight takes one GEMM instead of one small GEMM per slice. Each
    output has the adjoints of ``linear`` without a bias, so backward makes
    the same products as three ``linear`` calls. The forward products have
    other shapes than ``linear``'s per-slice ones, so BLAS may
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


def linear(x, W, b) -> Tensor:
    """``x @ W + b`` with a 2-d weight on the last axis of ``x``, as one tape node.

    The bias has shape ``W.shape[1:]``; its adjoint sums the upstream gradient
    over every leading axis.
    """
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    if x.data.ndim < 2 or W.data.ndim != 2 or x.shape[-1] != W.shape[0]:
        raise DimensionError(
            f"linear: input {x.shape} does not match weight {W.shape}"
        )
    if b.shape != W.shape[1:]:
        raise DimensionError(f"linear: bias {b.shape} does not match weight {W.shape}")
    out = x.data @ W.data
    out += b.data
    return Tensor(out, [*_weight_parents(x, W),
                        (b, lambda g: g.sum(axis=tuple(range(g.ndim - 1))))])


def softmax_last(x, c: float) -> Tensor:
    """Row-wise softmax of ``x * c`` over the last axis, max-subtracted for
    stability, as one tape node."""
    x = _as_tensor(x)
    z = x.data * c
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def adjoint(g):
        inner = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - inner)) * c

    return Tensor(s, [(x, adjoint)])


def scaled_dot_attention(Q, K, V):
    """Scaled dot-product attention over the last two axes.

    Q and K have shape ``[..., T, d]`` and V ``[..., T, d_v]``. Returns
    ``(O, A)`` where ``A = softmax(Q K^T / sqrt(d))`` and ``O = A V``; both
    stay on the gradient graph. Operands that do not fit raise
    ``DimensionError`` from ``matmul``.
    """
    last = K.data.ndim - 1
    k_t = transpose(K, (*range(last - 1), last, last - 1))
    A = softmax_last(matmul(Q, k_t), 1.0 / math.sqrt(Q.shape[-1]))
    return matmul(A, V), A


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
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data)
                for p in params]

    max_err = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = grad.reshape(-1)
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

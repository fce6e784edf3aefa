import math

import numpy as np
import pytest

from umod import diffmath as dm


def scalar_sum_loss(tensors):
    total = None
    for t in tensors:
        s = dm.sum_all(t)
        total = s if total is None else dm.add(total, s)
    return total


class TestLinear:
    def test_identity_weight(self):
        out = dm.linear(dm.Tensor([[1.0, 2.0]]), np.eye(2), np.zeros(2))
        assert np.allclose(out.data, [[1.0, 2.0]])

    def test_identity_plus_bias(self):
        out = dm.linear(dm.Tensor([[1.0, 2.0]]), np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(out.data, [[4.0, 6.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(dm.DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            dm.linear(dm.Tensor(np.zeros((2, 3))), np.zeros((4, 2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = dm.Parameter("x", rng.normal(size=(2, 3)))
        W = dm.Parameter("W", rng.normal(size=(3, 4)))
        b = dm.Parameter("b", rng.normal(size=4))

        def loss_fn(params):
            return dm.sum_all(dm.linear(params[0], params[1], params[2]))

        err = dm.finite_diff_check(loss_fn, [x, W, b], eps=1e-6)
        assert err < 1e-6


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = dm.softmax_last(dm.Tensor([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_closed_form_exponentials(self):
        out = dm.softmax_last(dm.Tensor([0.0, math.log(2.0)]))
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_no_overflow_on_huge_logits(self):
        out = dm.softmax_last(dm.Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5])
        assert np.isfinite(out.data).all()

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.normal(size=(4, 6)) * 10
            s = dm.softmax_last(dm.Tensor(x))
            assert np.abs(s.data.sum(-1) - 1.0).max() < 1e-12
            shifted = dm.softmax_last(dm.Tensor(x + 17.5))
            assert np.abs(s.data - shifted.data).max() < 1e-9


class TestAttention:
    def test_single_key_returns_value_exactly(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(2, 1, 3))
        v = rng.normal(size=(2, 1, 3))
        o, a = dm.scaled_dot_attention(dm.Tensor(q), dm.Tensor(q), dm.Tensor(v))
        assert np.array_equal(o.data, v)
        assert np.array_equal(a.data, np.ones((2, 1, 1)))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        q = dm.Tensor(rng.normal(size=(3, 5, 4)))
        k = dm.Tensor(rng.normal(size=(3, 5, 4)))
        _, a = dm.scaled_dot_attention(q, k, k)
        assert np.abs(a.data.sum(-1) - 1.0).max() < 1e-12

    def test_matches_scalar_loop_oracle(self):
        # brute-force reference with explicit loops
        rng = np.random.default_rng(2)
        q = rng.normal(size=(1, 2, 1))
        k = rng.normal(size=(1, 2, 1))
        v = rng.normal(size=(1, 2, 1))
        o, a = dm.scaled_dot_attention(dm.Tensor(q), dm.Tensor(k), dm.Tensor(v))
        for t in range(2):
            scores = [q[0, t, 0] * k[0, u, 0] / math.sqrt(1) for u in range(2)]
            mx = max(scores)
            es = [math.exp(s - mx) for s in scores]
            z = sum(es)
            weights = [e / z for e in es]
            expect = sum(weights[u] * v[0, u, 0] for u in range(2))
            assert abs(o.data[0, t, 0] - expect) < 1e-12
            for u in range(2):
                assert abs(a.data[0, t, u] - weights[u]) < 1e-12

    def test_shape_mismatch(self):
        q = dm.Tensor(np.zeros((1, 2, 3)))
        with pytest.raises(dm.DimensionError):
            dm.scaled_dot_attention(q, q, dm.Tensor(np.zeros((1, 2, 4))))


class TestElementwise:
    def test_relu_sign_cases(self):
        out = dm.relu(dm.Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_add(self):
        out = dm.add(dm.Tensor([1.0, 2.0]), dm.Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = dm.Tensor([-1.0, 2.0])
        dm.sum_all(dm.relu(x)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0])
        z = dm.Tensor([0.0])
        dm.sum_all(dm.relu(z)).backward()
        assert np.array_equal(z.grad, [0.0])

    def test_incompatible_shapes(self):
        with pytest.raises(dm.DimensionError):
            dm.add(dm.Tensor(np.zeros(3)), dm.Tensor(np.zeros(4)))


class TestReshapeOps:
    def test_concat_last_extents(self):
        a = dm.Tensor(np.zeros((2, 3, 4)))
        b = dm.Tensor(np.zeros((2, 3, 5)))
        assert dm.concat_last(a, b).shape == (2, 3, 9)

    def test_reshape_roundtrip(self):
        x = np.arange(12.0).reshape(2, 6)
        back = dm.reshape(dm.reshape(dm.Tensor(x), (3, 4)), (2, 6))
        assert np.array_equal(back.data, x)

    def test_transpose_involution(self):
        x = np.random.default_rng(4).normal(size=(3, 5))
        twice = dm.transpose(dm.transpose(dm.Tensor(x)))
        assert np.array_equal(twice.data, x)

    def test_layout_ops_preserve_elements(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 4))
        for out in (dm.reshape(dm.Tensor(x), (6, 4)),
                    dm.transpose(dm.Tensor(x), (2, 0, 1)),
                    dm.concat_last(dm.Tensor(x[..., :2]), dm.Tensor(x[..., 2:]))):
            assert abs(out.data.sum() - x.sum()) < 1e-12
            assert abs((out.data ** 2).sum() - (x ** 2).sum()) < 1e-12

    def test_reshape_bad_extent(self):
        with pytest.raises(dm.DimensionError):
            dm.reshape(dm.Tensor(np.zeros((2, 3))), (4, 2))


class TestFiniteDiffCheck:
    def test_quadratic_closed_form(self):
        p = dm.Parameter("p", np.array([3.0, 4.0]))

        def loss_fn(params):
            v = params[0]
            return dm.scale(dm.sum_all(dm.mul(v, v)), 0.5)

        err = dm.finite_diff_check(loss_fn, [p], eps=1e-5)
        assert err < 1e-8
        assert np.allclose(p.grad, [3.0, 4.0])

    def test_constant_loss_zero_error(self):
        p = dm.Parameter("p", np.array([1.0, -2.0]))

        def loss_fn(params):
            return dm.sum_all(dm.scale(params[0], 0.0))

        assert dm.finite_diff_check(loss_fn, [p], eps=1e-5) == 0.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            dm.finite_diff_check(lambda ps: dm.Tensor(0.0), [], eps=0.0)

    def test_nonfinite_loss(self):
        p = dm.Parameter("p", np.array([1.0]))
        with pytest.raises(dm.NumericError):
            dm.finite_diff_check(lambda ps: dm.Tensor(float("nan")), [p])


@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_gradient_check(seed):
    rng = np.random.default_rng(seed)
    a = dm.Parameter("a", rng.normal(size=(2, 3)))
    b = dm.Parameter("b", rng.normal(size=(2, 3)))
    w = dm.Parameter("w", rng.normal(size=(3, 3)))

    def loss_fn(params):
        a_, b_, w_ = params
        y = dm.linear(a_, w_)
        y = dm.add(y, b_)
        y = dm.relu(y)
        y = dm.softmax_last(y)
        y = dm.mul(y, b_)
        y = dm.sub(y, dm.scale(a_, 0.3))
        y = dm.concat_last(y, dm.transpose(dm.reshape(a_, (3, 2))))
        o, _ = dm.scaled_dot_attention(
            dm.reshape(y, (1, 2, 6)), dm.reshape(y, (1, 2, 6)),
            dm.reshape(y, (1, 2, 6)))
        return dm.mean_all(dm.absolute(dm.expand_leading(o, 2)))

    err = dm.finite_diff_check(loss_fn, [a, b, w], eps=1e-6)
    assert err < 1e-4


@pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 4)], ids=["3d", "4d"])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "transposed"])
def test_matmul_weight_adjoints(shape, strided):
    # a 2-d weight's adjoints are single GEMMs over the flattened batch axes
    rng = np.random.default_rng(11)
    swap = (1, 0) + tuple(range(2, len(shape)))  # leading-axis swap, self-inverse
    stored = tuple(shape[i] for i in swap) if strided else shape
    x = dm.Parameter("x", rng.normal(size=stored))
    w = dm.Parameter("w", rng.normal(size=(4, 5)))
    g = rng.normal(size=shape[:-1] + (5,))
    if strided:
        g = np.ascontiguousarray(g.transpose(swap)).transpose(swap)

    def left(t):
        return dm.transpose(t, swap) if strided else t

    def loss_fn(params):
        return dm.sum_all(dm.mul(dm.matmul(left(params[0]), params[1]), g))

    assert dm.finite_diff_check(loss_fn, [x, w], eps=1e-6) < 1e-6
    a = left(x)
    assert a.data.flags.c_contiguous != strided
    (_, grad_a), (_, grad_b) = dm.matmul(a, w).parents
    batch = tuple(range(len(shape) - 2))
    assert np.abs(grad_b(g) - (np.swapaxes(a.data, -1, -2) @ g).sum(axis=batch)).max() < 1e-12
    assert np.abs(grad_a(g) - g @ w.data.T).max() < 1e-12


def test_grad_accumulates_on_reuse():
    x = dm.Tensor(np.array([2.0]))
    y = dm.mul(x, x)  # x used twice
    dm.sum_all(y).backward()
    assert np.allclose(x.grad, [4.0])


def test_expand_leading_gradient_sums():
    x = dm.Tensor(np.array([1.0, 2.0]))
    dm.sum_all(dm.expand_leading(x, 3)).backward()
    assert np.array_equal(x.grad, [3.0, 3.0])


def test_backward_requires_scalar():
    with pytest.raises(dm.DimensionError):
        dm.Tensor(np.zeros(3)).backward()


def unreleased_leaf_grads(root):
    """Leaf gradients by the walk ``backward()`` made before it freed the graph.

    The same reverse topological order and the same summation order, but no
    tensor is changed, so it can run on a graph before ``backward()`` does.
    """
    order, state, stack = [], {}, [root]
    while stack:
        node = stack[-1]
        if state.get(id(node)) == 1:
            stack.pop()
        elif id(node) not in state:
            state[id(node)] = 0
            stack.extend(p for p, _ in node.parents if state.get(id(p)) != 1)
        else:
            state[id(node)] = 1
            order.append(node)
            stack.pop()
    pending = {id(root): np.ones_like(root.data)}
    grads = {}
    for node in reversed(order):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if not node.parents:
            grads[id(node)] = g
        for parent, adjoint in node.parents:
            pg = adjoint(g)
            pending[id(parent)] = pending[id(parent)] + pg if id(parent) in pending else pg
    return grads


def small_graph():
    x = dm.Parameter("x", np.array([[1.0, -2.0]]))
    w = dm.Parameter("w", np.array([[0.5], [-0.25]]))
    hidden = dm.relu(dm.linear(x, w))  # [[1.0]]
    return x, w, hidden, dm.sum_all(dm.mul(hidden, hidden))


class TestNoGrad:
    def test_tensors_made_inside_have_no_parents(self):
        x = dm.Parameter("x", np.array([1.0, 2.0]))
        t = dm.Parameter("t", np.ones((2, 3)))
        with dm.no_grad():
            y = dm.mul(x, x)
            o, a = dm.scaled_dot_attention(t, t, t)
        assert y.parents == () and o.parents == () and a.parents == ()
        assert np.array_equal(y.data, [1.0, 4.0])

    def test_mode_restored_after_exception_and_nested_blocks(self):
        x = dm.Parameter("x", np.array([1.0]))
        with pytest.raises(KeyError):
            with dm.no_grad():
                raise KeyError("inside")
        assert dm.mul(x, x).parents
        with dm.no_grad():
            with dm.no_grad():
                pass
            assert dm.mul(x, x).parents == ()
        assert dm.mul(x, x).parents

    def test_backward_works_after_the_block(self):
        x = dm.Parameter("x", np.array([3.0]))
        with dm.no_grad():
            dm.mul(x, x)
        dm.sum_all(dm.mul(x, x)).backward()
        assert np.array_equal(x.grad, [6.0])


class TestReleasedGraph:
    def test_backward_frees_intermediates_and_keeps_leaf_grads(self):
        x, w, hidden, loss = small_graph()
        loss.backward()
        for node in (hidden, loss):
            assert node.grad is None and node.parents == ()
        assert np.array_equal(x.grad, [[1.0, -0.5]])
        assert np.array_equal(w.grad, [[2.0], [-4.0]])
        # a parameter stays a leaf: the next graph can start from it
        x.zero_grad()
        dm.sum_all(dm.mul(x, x)).backward()
        assert np.array_equal(x.grad, [[2.0, -4.0]])

    def test_second_backward_raises(self):
        *_, loss = small_graph()
        loss.backward()
        with pytest.raises(dm.GraphReleasedError, match="released"):
            loss.backward()

    def test_backward_through_released_node_raises_before_any_grad_moves(self):
        x, w, hidden, loss = small_graph()
        loss.backward()
        grads = x.grad.copy(), w.grad.copy()
        with pytest.raises(dm.GraphReleasedError):
            dm.sum_all(dm.add(hidden, dm.sum_all(x))).backward()
        assert np.array_equal(x.grad, grads[0]) and np.array_equal(w.grad, grads[1])

    @pytest.mark.parametrize("mode", ["station_rows", "top_k_pairs"])
    def test_parameter_grads_match_the_unreleased_walk(self, mode):
        from umod import model as md
        pairs = mode == md.TOP_K_PAIRS
        cfg = md.ModelConfig(n_entities=5, history=3, horizon=2, d_input=3,
                             d_adaptive=2, entity_mode=mode,
                             top_k=5 if pairs else None, seed=3)
        params = md.init_params(cfg)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3, 5, cfg.feature_dim))
        y = rng.normal(size=(4, 2, 5, cfg.d_output))
        loss = dm.mean_all(dm.absolute(dm.sub(md.forward(x, params, cfg), dm.Tensor(y))))
        expected = unreleased_leaf_grads(loss)
        loss.backward()
        for p in params.all():
            assert p.grad.tobytes() == expected[id(p)].tobytes(), p.name

import gc
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umod import diffmath as dm


def weighted_sum(t, w):
    """``sum(t * w)`` for a constant array ``w`` as one tape node, so the
    gradient reaching ``t`` is ``w`` itself."""
    return dm.Tensor((t.data * w).sum(), [(t, lambda g: g * w)])


def sum_all(t):
    """``sum(t)`` as one tape node, so the gradient reaching ``t`` is all ones."""
    return weighted_sum(t, np.ones(t.shape))


def scalar_sum_loss(tensors):
    total = None
    for t in tensors:
        s = sum_all(t)
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
            dm.linear(dm.Tensor(np.zeros((2, 3))), np.zeros((4, 2)), np.zeros(2))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        x = dm.Tensor(rng.normal(size=(2, 3)))
        W = dm.Tensor(rng.normal(size=(3, 4)))
        b = dm.Tensor(rng.normal(size=4))

        def loss_fn(params):
            return sum_all(dm.linear(params[0], params[1], params[2]))

        err = dm.finite_diff_check(loss_fn, [x, W, b], eps=1e-6)
        assert err < 1e-6


class TestMeanError:
    @staticmethod
    def three_op_chain(pred, target, squared):
        # the reference: the loss as three tape nodes, pred - target, then d * d
        # or |d|, then the mean with its broadcast adjoint; the target is a tensor
        t = dm.Tensor(target)
        d = dm.Tensor(pred.data - t.data, [(pred, lambda g: g), (t, lambda g: -g)])
        if squared:
            inner = dm.Tensor(d.data * d.data,
                              [(d, lambda g: g * d.data), (d, lambda g: g * d.data)])
        else:
            sign = np.sign(d.data)
            inner = dm.Tensor(np.abs(d.data), [(d, lambda g: g * sign)])
        n = inner.data.size
        return dm.Tensor(inner.data.mean(),
                         [(inner, lambda g: np.broadcast_to(g / n, inner.shape).copy())])

    @pytest.mark.parametrize("squared", [False, True], ids=["absolute", "squared"])
    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 2, 4)], ids=["2d", "4d"])
    def test_gradients_match_finite_differences(self, shape, squared):
        rng = np.random.default_rng(21)
        pred = dm.Tensor(rng.normal(size=shape))
        target = rng.normal(size=shape)
        err = dm.finite_diff_check(lambda ps: dm.mean_error(ps[0], target, squared), [pred],
                                   eps=1e-6)
        assert err < 1e-8

    @pytest.mark.parametrize("squared", [False, True], ids=["absolute", "squared"])
    def test_only_pred_gets_a_gradient_and_it_is_zero_where_equal(self, squared):
        pred = dm.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        target = np.array([[1.0, 0.0], [3.0, 5.0]])
        out = dm.mean_error(pred, target, squared)
        assert [p for p, _ in out.parents] == [pred]
        out.backward()
        assert np.array_equal(pred.grad, [[0.0, 1.0], [0.0, -0.5]] if squared
                              else [[0.0, 0.25], [0.0, -0.25]])
        assert np.array_equal(target, [[1.0, 0.0], [3.0, 5.0]])

    @pytest.mark.parametrize("squared", [False, True], ids=["absolute", "squared"])
    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "transposed"])
    @pytest.mark.parametrize("shape", [(5,), (3, 7), (16, 2, 8, 8), (4, 2, 24, 1)])
    def test_bit_identical_to_the_three_op_chain(self, shape, strided, squared):
        # the pair view's predictions and targets are not C-ordered; the gradient
        # is, as the chain made it, since the rounding of what consumes it follows
        # its layout
        rng = np.random.default_rng(len(shape))
        target = rng.normal(size=shape)
        values = rng.normal(size=shape) * 3.0
        values.reshape(-1)[::3] = target.reshape(-1)[::3]  # some d == 0
        if strided:
            values, target = np.asfortranarray(values), np.asfortranarray(target)
        pred, ref = dm.Tensor(values), dm.Tensor(values.copy(order="K"))
        out, want = dm.mean_error(pred, target, squared), self.three_op_chain(ref, target, squared)
        assert out.data.tobytes() == want.data.tobytes()
        out.backward()
        want.backward()
        assert pred.grad.tobytes() == ref.grad.tobytes()
        assert pred.grad.strides == ref.grad.strides

    @pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "transposed"])
    @pytest.mark.parametrize("shape, leaf", [((16, 2, 288, 288), dm.LEAF), ((16, 2, 8, 8), 128)],
                             ids=["n288", "n8_small_leaves"])
    def test_squared_loss_over_many_leaves_is_the_mean(self, shape, leaf, strided):
        rng = np.random.default_rng(shape[-1])
        values, target = rng.normal(size=shape), rng.normal(size=shape)
        if strided:
            values = np.asfortranarray(values)
        d = values - target
        with mock.patch.object(dm, "LEAF", leaf):
            out = dm.mean_error(dm.Tensor(values), target, squared=True)
        assert d.size > 8 * leaf
        assert out.data.tobytes() == (d * d).mean().tobytes()

    def test_squared_loss_on_the_pair_view_is_the_mean(self):
        from umod import model as md
        cfg = md.ModelConfig(n_entities=40, history=3, horizon=2, d_input=3, d_adaptive=2,
                             entity_mode=md.TOP_K_PAIRS, seed=3)
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(4, 3, 40, 1)), rng.normal(size=(4, 2, 40, 1))
        pred = md.forward(x, md.init_params(cfg), cfg)
        d = pred.data - y
        with mock.patch.object(dm, "LEAF", 128):
            out = dm.mean_error(pred, y, squared=True)
        assert not pred.data.flags.c_contiguous and d.size > 2 * 128
        assert out.data.tobytes() == (d * d).mean().tobytes()

    def test_nan_difference_gives_a_nan_gradient_entry(self):
        # the absolute branch keeps sign(d) narrower than d, and NaN stays NaN,
        # as np.sign gives it
        pred = dm.Tensor(np.array([[np.nan, 2.0], [-1.0, 0.5]]))
        target = np.array([[0.0, 1.0], [0.0, 0.5]])
        out = dm.mean_error(pred, target, squared=False)
        assert np.isnan(out.data)
        out.backward()
        assert pred.grad.tobytes() == np.multiply(
            1.0 / 4, np.sign(pred.data - target), order="C").tobytes()
        assert np.isnan(pred.grad[0, 0]) and pred.grad[1, 1] == 0.0


class TestShapeRules:
    # nothing broadcasts: elementwise operands match, and linear owns its bias
    ELEMENTWISE = {"add": dm.add,
                   "mean_absolute": lambda a, b: dm.mean_error(a, b.data, squared=False),
                   "mean_squared": lambda a, b: dm.mean_error(a, b.data, squared=True)}

    @pytest.mark.parametrize("op", list(ELEMENTWISE))
    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3), (3,)), ((3,), (2, 3)),
                                                  ((2, 3), (1, 3)), ((2, 3), ())])
    def test_elementwise_ops_need_equal_shapes(self, op, a_shape, b_shape):
        with pytest.raises(dm.DimensionError, match="add:" if op == "add" else "mean_error:"):
            self.ELEMENTWISE[op](dm.Tensor(np.zeros(a_shape)), dm.Tensor(np.zeros(b_shape)))

    def test_bias_must_match_the_weight_output(self):
        x, w = dm.Tensor(np.zeros((5, 2, 3))), np.zeros((3, 4))
        with pytest.raises(dm.DimensionError, match=r"bias \(2, 4\)"):
            dm.linear(x, w, np.zeros((2, 4)))

    @pytest.mark.parametrize("a_shape, b_shape", [((5, 2, 3), (3, 4)), ((2, 3), (5, 3, 4)),
                                                  ((5, 2, 3), (4, 3, 4)), ((3,), (3, 4)),
                                                  ((2, 3), (3,))])
    def test_matmul_needs_equal_leading_axes(self, a_shape, b_shape):
        with pytest.raises(dm.DimensionError, match="matmul"):
            dm.matmul(dm.Tensor(np.zeros(a_shape)), dm.Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (2, 2, 3, 4)], ids=["2d", "3d", "4d"])
    def test_linear_bias_gradient_sums_the_leading_axes(self, shape):
        rng = np.random.default_rng(12)
        x = dm.Tensor(rng.normal(size=shape))
        w = dm.Tensor(rng.normal(size=(4, 5)))
        b = dm.Tensor(rng.normal(size=5))
        g = rng.normal(size=shape[:-1] + (5,))

        def loss_fn(params):
            return weighted_sum(dm.linear(*params), g)

        assert dm.finite_diff_check(loss_fn, [x, w, b], eps=1e-6) < 1e-6
        # the sum the earlier broadcasting add made over the expanded axes
        assert np.array_equal(b.grad, g.sum(axis=tuple(range(g.ndim - 1))))


class TestSoftmax:
    def test_uniform_on_equal_logits(self):
        out = dm.softmax_last(dm.Tensor([0.0, 0.0, 0.0]), 1.0)
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_closed_form_exponentials(self):
        # the factor scales the logits: exp(0.5 log 4) = 2
        out = dm.softmax_last(dm.Tensor([0.0, math.log(4.0)]), 0.5)
        assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)

    def test_no_overflow_on_huge_logits(self):
        out = dm.softmax_last(dm.Tensor([1000.0, 1000.0]), 2.0)
        assert np.allclose(out.data, [0.5, 0.5])
        assert np.isfinite(out.data).all()

    def test_rows_sum_to_one_and_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.normal(size=(4, 6)) * 10
            s = dm.softmax_last(dm.Tensor(x), 1.0)
            assert np.abs(s.data.sum(-1) - 1.0).max() < 1e-12
            shifted = dm.softmax_last(dm.Tensor(x + 17.5), 1.0)
            assert np.abs(s.data - shifted.data).max() < 1e-9

    @pytest.mark.parametrize("c", [1.0, 0.5, 1 / math.sqrt(104), 3.0])
    @pytest.mark.parametrize("transposed", [False, True], ids=["c_order", "transposed"])
    def test_bit_identical_to_scale_then_softmax(self, c, transposed):
        # the two-node chain attention ran before the softmax took the factor:
        # x * c with adjoint g * c, then an unscaled softmax
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 5, 5)) * 4
        if transposed:
            x = x.transpose(0, 1, 3, 2)
        g = rng.normal(size=x.shape)
        scaled = x * c
        shifted = scaled - scaled.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        s = e / e.sum(axis=-1, keepdims=True)
        inner = (g * s).sum(axis=-1, keepdims=True)
        grad = (s * (g - inner)) * c

        out = dm.softmax_last(dm.Tensor(x), c)
        (_, adjoint), = out.parents
        assert out.data.tobytes() == s.tobytes()
        assert adjoint(g).tobytes() == grad.tobytes()


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
        # matmul owns the check: a key of another width cannot meet the
        # queries, while a value of another width only widens the output
        q = dm.Tensor(np.zeros((1, 2, 3)))
        wide = dm.Tensor(np.zeros((1, 2, 4)))
        with pytest.raises(dm.DimensionError, match="matmul"):
            dm.scaled_dot_attention(q, wide, q)
        o, _ = dm.scaled_dot_attention(q, q, wide)
        assert o.shape == (1, 2, 4)

    def test_one_axis_operand(self):
        # transpose owns the check: a 1-d key has no last two axes to swap
        t = dm.Tensor(np.zeros(3))
        with pytest.raises(dm.DimensionError, match="transpose"):
            dm.scaled_dot_attention(t, t, t)


class TestPairwiseSum:
    @staticmethod
    def leaf_sums(values, calls=None):
        def leaf(lo, m):
            if calls is not None:
                calls.append((lo, m))
            return values[lo:lo + m].sum()
        return leaf

    @pytest.mark.parametrize("n", [0, 1, 7, 129, dm.LEAF - 1, dm.LEAF, dm.LEAF + 1,
                                   2 * dm.LEAF + 9, 3 * dm.LEAF + 8, 1_000_003])
    def test_matches_np_sum_and_mean(self, n):
        values = np.random.default_rng(n).normal(size=n) * 1e3
        calls = []
        total = dm.pairwise_sum(n, self.leaf_sums(values, calls))
        assert total.tobytes() == values.sum().tobytes()
        if n:
            assert (total / n).tobytes() == values.mean().tobytes()
        # the leaves tile the range in order, none longer than LEAF
        assert [lo for lo, _ in calls] == list(np.cumsum([0] + [m for _, m in calls[:-1]]))
        assert sum(m for _, m in calls) == n and max(m for _, m in calls) <= dm.LEAF

    def test_random_lengths(self):
        rng = np.random.default_rng(23)
        for n in rng.integers(1, 5 * dm.LEAF, size=12):
            values = rng.normal(size=n)
            assert dm.pairwise_sum(n, self.leaf_sums(values)).tobytes() == \
                values.sum().tobytes()

    def test_leaves_may_return_vectors(self):
        values = np.random.default_rng(4).normal(size=(2, 3 * dm.LEAF + 8))
        total = dm.pairwise_sum(values.shape[1], lambda lo, m: values[:, lo:lo + m].sum(axis=1))
        assert total.tobytes() == np.array([values[0].sum(), values[1].sum()]).tobytes()

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.integers(0, 6000), st.integers(0, 2 ** 32 - 1))
    def test_small_leaves_match_np_sum(self, n, seed):
        values = np.random.default_rng(seed).normal(size=n) * 1e6
        with mock.patch.object(dm, "LEAF", 128):
            total = dm.pairwise_sum(n, self.leaf_sums(values))
        assert total.tobytes() == values.sum().tobytes()


class TestElementwise:
    def test_relu_sign_cases(self):
        out = dm.relu(dm.Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_bytes_match_the_where_oracle(self):
        # +0.0 wherever the input is not above 0, -0.0, -nan and negative
        # subnormals included; positive subnormals and +inf pass through
        values = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                           2.5, -2.5])
        out = dm.relu(dm.Tensor(values))
        assert out.data.tobytes() == np.where(values > 0.0, values, 0.0).tobytes()

    def test_add(self):
        out = dm.add(dm.Tensor([1.0, 2.0]), dm.Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = dm.Tensor([-1.0, 2.0])
        sum_all(dm.relu(x)).backward()
        assert np.array_equal(x.grad, [0.0, 1.0])
        z = dm.Tensor([0.0])
        sum_all(dm.relu(z)).backward()
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
        twice = dm.transpose(dm.transpose(dm.Tensor(x), (1, 0)), (1, 0))
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

    @pytest.mark.parametrize("axes", [(0, 0), (1,), (0, 1, 2), (1, 2)],
                             ids=["repeated", "too_few", "too_many", "out_of_range"])
    def test_transpose_axes_not_a_permutation(self, axes):
        with pytest.raises(dm.DimensionError, match="transpose"):
            dm.transpose(dm.Tensor(np.zeros((2, 3))), axes)


class TestFiniteDiffCheck:
    def test_quadratic_closed_form(self):
        p = dm.Tensor(np.array([3.0, 4.0]))

        def loss_fn(params):
            v = params[0]
            return dm.mean_error(v, np.zeros(2), squared=True)  # gradient 2v / 2

        err = dm.finite_diff_check(loss_fn, [p], eps=1e-5)
        assert err < 1e-8
        assert np.allclose(p.grad, [3.0, 4.0])

    def test_constant_loss_zero_error(self):
        p = dm.Tensor(np.array([1.0, -2.0]))

        def loss_fn(params):
            return weighted_sum(params[0], np.zeros(2))

        assert dm.finite_diff_check(loss_fn, [p], eps=1e-5) == 0.0

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            dm.finite_diff_check(lambda ps: dm.Tensor(0.0), [], eps=0.0)

    def test_nonfinite_loss(self):
        p = dm.Tensor(np.array([1.0]))
        with pytest.raises(dm.NumericError):
            dm.finite_diff_check(lambda ps: dm.Tensor(float("nan")), [p])


@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_gradient_check(seed):
    rng = np.random.default_rng(seed)
    a = dm.Tensor(rng.normal(size=(2, 3)))
    b = dm.Tensor(rng.normal(size=(2, 3)))
    w = dm.Tensor(rng.normal(size=(3, 3)))
    target = rng.normal(size=(2, 1, 2, 6))

    def loss_fn(params):
        a_, b_, w_ = params
        y = dm.linear(a_, w_, np.zeros(3))
        y = dm.add(y, b_)
        y = dm.relu(y)
        y = dm.softmax_last(y, 0.7)
        y = dm.add(y, a_)
        y = dm.concat_last(y, dm.transpose(dm.reshape(a_, (3, 2)), (1, 0)))
        o, _ = dm.scaled_dot_attention(
            dm.reshape(y, (1, 2, 6)), dm.reshape(y, (1, 2, 6)),
            dm.reshape(y, (1, 2, 6)))
        return dm.mean_error(dm.expand_leading(o, 2), target, squared=seed % 2 == 1)

    err = dm.finite_diff_check(loss_fn, [a, b, w], eps=1e-6)
    assert err < 1e-4


@pytest.mark.parametrize("shape", [(2, 3, 4), (2, 2, 3, 4)], ids=["3d", "4d"])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "transposed"])
def test_matmul_weight_adjoints(shape, strided):
    # a 2-d weight's adjoints are single GEMMs over the flattened batch axes
    rng = np.random.default_rng(11)
    swap = (1, 0) + tuple(range(2, len(shape)))  # leading-axis swap, self-inverse
    stored = tuple(shape[i] for i in swap) if strided else shape
    x = dm.Tensor(rng.normal(size=stored))
    w = dm.Tensor(rng.normal(size=(4, 5)))
    g = rng.normal(size=shape[:-1] + (5,))
    if strided:
        g = np.ascontiguousarray(g.transpose(swap)).transpose(swap)

    def left(t):
        return dm.transpose(t, swap) if strided else t

    def loss_fn(params):
        return weighted_sum(dm.linear(left(params[0]), params[1], np.zeros(5)), g)

    assert dm.finite_diff_check(loss_fn, [x, w], eps=1e-6) < 1e-6
    a = left(x)
    assert a.data.flags.c_contiguous != strided
    (_, grad_a), (_, grad_b), _ = dm.linear(a, w, np.zeros(5)).parents
    batch = tuple(range(len(shape) - 2))
    assert np.abs(grad_b(g) - (np.swapaxes(a.data, -1, -2) @ g).sum(axis=batch)).max() < 1e-12
    assert np.abs(grad_a(g) - g @ w.data.T).max() < 1e-12


class TestQKVProjection:
    @staticmethod
    def attention_grads(project, B, H, E, d, seed):
        # the model's path: a transposed [B,E,H,d] view, three projections,
        # attention, and an MAE-style loss
        rng = np.random.default_rng(seed)
        e = dm.Tensor(rng.normal(size=(B, H, E, d)))
        ws = [dm.Tensor(rng.normal(size=(d, d)) / math.sqrt(d)) for _ in range(3)]
        target = rng.normal(size=(B, E, H, d))
        q, k, v = project(dm.transpose(e, (0, 2, 1, 3)), ws)
        o, _ = dm.scaled_dot_attention(q, k, v)
        dm.mean_error(o, target, squared=False).backward()
        return [t.data for t in (q, k, v)], [p.grad for p in (e, *ws)]

    @staticmethod
    def fused(x, ws):
        return dm.qkv_projection(x, *ws)

    @staticmethod
    def separate(x, ws):
        return tuple(dm.linear(x, w, np.zeros(w.shape[1])) for w in ws)

    @pytest.mark.parametrize("H", [1, 2, 6])
    def test_bit_identical_to_three_matmuls(self, H):
        # at a small width and at the model's default width 104
        for B, E, d in [(3, 4, 5), (16, 8, 104)]:
            outs, grads = self.attention_grads(self.fused, B, H, E, d, seed=H)
            ref_outs, ref_grads = self.attention_grads(self.separate, B, H, E, d, seed=H)
            for got, want in zip(outs + grads, ref_outs + ref_grads):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("d", [28, 84])
    def test_other_widths_agree_to_rounding(self, d):
        # widths the dimension sweep reaches, where BLAS rounds the flattened
        # products differently; one-row slices keep per-slice products and bits
        for H in (1, 2):
            outs, grads = self.attention_grads(self.fused, 16, H, 8, d, seed=d)
            ref_outs, ref_grads = self.attention_grads(self.separate, 16, H, 8, d, seed=d)
            for got, want in zip(outs + grads, ref_outs + ref_grads):
                if H == 1:
                    assert np.array_equal(got, want)
                assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4), (2, 2, 3, 4), (2, 3, 1, 4)],
                             ids=["2d", "3d", "4d", "4d_one_row"])
    def test_gradients_match_finite_differences(self, shape):
        rng = np.random.default_rng(5)
        x = dm.Tensor(rng.normal(size=shape))
        ws = [dm.Tensor(rng.normal(size=(4, 3 + i))) for i in range(3)]
        gs = [rng.normal(size=shape[:-1] + (3 + i,)) for i in range(3)]

        def loss_fn(params):
            outs = dm.qkv_projection(*params)
            return scalar_sum_loss([weighted_sum(o, g) for o, g in zip(outs, gs)])

        assert dm.finite_diff_check(loss_fn, [x, *ws], eps=1e-6) < 1e-6

    def test_each_weight_gets_its_own_gradient(self):
        # the adjoints are built in a loop; each must close over its own weight
        x = dm.Tensor(np.ones((2, 2, 3)))
        ws = [dm.Tensor(np.full((3, 2), float(i))) for i in range(3)]
        q, k, v = dm.qkv_projection(x, *ws)
        assert [t.data[0, 0, 0] for t in (q, k, v)] == [0.0, 3.0, 6.0]
        scalar_sum_loss([weighted_sum(t, np.full(t.shape, c))
                         for t, c in zip((q, k, v), (1.0, 10.0, 100.0))]).backward()
        assert [w.grad[0, 0] for w in ws] == [4.0, 40.0, 400.0]
        assert np.array_equal(x.grad, np.full((2, 2, 3), 420.0))  # 1·0·2 + 10·1·2 + 100·2·2

    @pytest.mark.parametrize("x_shape, w_shape", [((2, 3), (4, 4)), ((3,), (3, 3)),
                                                  ((2, 3), (3, 3, 1))])
    def test_shape_mismatch(self, x_shape, w_shape):
        w = np.zeros(w_shape)
        with pytest.raises(dm.DimensionError, match="qkv_projection"):
            dm.qkv_projection(dm.Tensor(np.zeros(x_shape)), w, w, w)


def test_grad_accumulates_on_reuse():
    x = dm.Tensor(np.array([2.0]))
    y = dm.add(x, x)  # x used twice
    sum_all(y).backward()
    assert np.array_equal(x.grad, [2.0])


def test_expand_leading_gradient_sums():
    x = dm.Tensor(np.array([1.0, 2.0]))
    sum_all(dm.expand_leading(x, 3)).backward()
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
    x = dm.Tensor(np.array([[1.0, -2.0]]))
    w = dm.Tensor(np.array([[0.5], [-0.25]]))
    hidden = dm.relu(dm.linear(x, w, np.zeros(1)))  # [[1.0]]
    return x, w, hidden, dm.mean_error(hidden, np.zeros((1, 1)), squared=True)


def leaf_grads_hold(loss, leaves):
    """``backward()`` gives each leaf the bytes of the unreleased walk."""
    expected = unreleased_leaf_grads(loss)
    loss.backward()
    return all(p.grad.tobytes() == expected[id(p)].tobytes() for p in leaves)


def model_case(mode):
    from umod import model as md
    cfg = md.ModelConfig(n_entities=5, history=3, horizon=2, d_input=3, d_adaptive=2,
                         entity_mode=mode, seed=3)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(4, 3, 5, cfg.feature_dim))
    y = rng.normal(size=(4, 2, 5, cfg.feature_dim))
    return cfg, md.init_params(cfg), x, y


class TestGraphKeepsNoUnreadData:
    # the graph points at nodes, not at tensors, so an array no adjoint reads
    # goes as soon as its tensor does, with no help from the cycle collector

    @pytest.fixture(autouse=True)
    def no_cycle_collector(self):
        gc.disable()
        yield
        gc.enable()

    def test_linear_output_fed_to_relu_is_freed(self):
        rng = np.random.default_rng(4)
        x, w, b = (dm.Tensor(rng.normal(size=shape)) for shape in [(3, 4), (4, 5), (5,)])
        h = dm.linear(x, w, b)
        hidden = dm.relu(h)
        freed = [weakref.ref(h.data), weakref.ref(hidden.data)]
        loss = dm.mean_error(hidden, rng.normal(size=(3, 5)), squared=False)
        del h, hidden
        assert [r() for r in freed] == [None, None]
        assert leaf_grads_hold(loss, [x, w, b])

    @pytest.mark.parametrize("mode", ["station_rows", "top_k_pairs"])
    def test_model_output_is_freed_once_the_caller_drops_it(self, mode):
        from umod import model as md
        cfg, params, x, y = model_case(mode)
        out = md.forward(x, params, cfg)
        freed = [weakref.ref(out.data), weakref.ref(out.data.base)]
        loss = dm.mean_error(out, y, squared=False)
        del out
        assert [r() for r in freed] == [None, None]
        assert leaf_grads_hold(loss, params.values())


def pure_cases():
    """Each op the model and the loss use: ``leaf -> (outputs, other arrays)``,
    with ``leaf(*shape)`` a new random leaf tensor."""
    def linear(leaf):
        return [dm.linear(leaf(2, 3, 4), leaf(4, 5), leaf(5))], []

    def relu(leaf):
        x = leaf(3, 4)
        x.data[0] = 0.0
        return [dm.relu(x)], []

    def loss(squared):
        def case(leaf):
            pred = dm.transpose(leaf(4, 3), (1, 0))  # not C-ordered
            target = leaf(3, 4).data
            target[0] = pred.data[0]
            return [dm.mean_error(pred, target, squared)], [pred.data, target]
        return case

    return {
        "add": lambda leaf: ([dm.add(leaf(2, 3), leaf(2, 3))], []),
        "relu": relu,
        "reshape": lambda leaf: ([dm.reshape(leaf(2, 3, 4), (6, 4))], []),
        "transpose": lambda leaf: ([dm.transpose(leaf(2, 3, 4), (2, 0, 1))], []),
        "concat_last": lambda leaf: ([dm.concat_last(leaf(2, 3), leaf(2, 4))], []),
        "expand_leading": lambda leaf: ([dm.expand_leading(leaf(2, 3), 4)], []),
        "linear": linear,
        "matmul": lambda leaf: ([dm.matmul(leaf(2, 3, 4), leaf(2, 4, 3))], []),
        "qkv_projection": lambda leaf: (list(dm.qkv_projection(
            dm.transpose(leaf(2, 3, 4, 5), (0, 2, 1, 3)), leaf(5, 5), leaf(5, 5),
            leaf(5, 5))), []),
        "softmax_last": lambda leaf: ([dm.softmax_last(leaf(2, 3, 4), 0.25)], []),
        "mean_absolute": loss(squared=False),
        "mean_squared": loss(squared=True),
    }


def captured(fn) -> list:
    """What ``fn`` closes over or defaults to, and so on through the functions among them."""
    found = [c.cell_contents for c in fn.__closure__ or ()] + list(fn.__defaults__ or ())
    return found + [v for f in found if hasattr(f, "__code__") for v in captured(f)]


@pytest.mark.parametrize("op", list(pure_cases()))
def test_adjoints_capture_arrays_not_tensors(op):
    # a captured tensor would keep its node and its data, read or not
    outs, _ = pure_cases()[op](lambda *shape: dm.Tensor(np.ones(shape)))
    for out in outs:
        for _, adjoint in out.parents:
            assert not [v for v in captured(adjoint) if isinstance(v, dm.Tensor)]


@pytest.mark.parametrize("op", list(pure_cases()))
def test_adjoints_are_pure(op):
    # unreleased_leaf_grads and any second walk rely on it: an adjoint called
    # twice on one upstream gradient gives the same bytes, and writes neither
    # to the gradient nor to any forward array
    rng = np.random.default_rng(9)
    leaves = []

    def leaf(*shape):
        leaves.append(dm.Tensor(rng.normal(size=shape)))
        return leaves[-1]

    outs, others = pure_cases()[op](leaf)
    watched = [t.data for t in leaves + outs] + others
    before = [a.tobytes() for a in watched]
    for out in outs:
        g = np.asarray(rng.normal(size=out.shape))
        g_before = g.tobytes()
        for _, adjoint in out.parents:
            first = adjoint(g).tobytes()
            assert adjoint(g).tobytes() == first
            assert g.tobytes() == g_before
    assert [a.tobytes() for a in watched] == before


class TestNoGrad:
    def test_tensors_made_inside_have_no_parents(self):
        x = dm.Tensor(np.array([1.0, 2.0]))
        t = dm.Tensor(np.ones((2, 3)))
        with dm.no_grad():
            y = dm.add(x, x)
            o, a = dm.scaled_dot_attention(t, t, t)
        assert y.parents == () and o.parents == () and a.parents == ()
        assert np.array_equal(y.data, [2.0, 4.0])

    def test_mode_restored_after_exception_and_nested_blocks(self):
        x = dm.Tensor(np.array([1.0]))
        with pytest.raises(KeyError):
            with dm.no_grad():
                raise KeyError("inside")
        assert dm.add(x, x).parents
        with dm.no_grad():
            with dm.no_grad():
                pass
            assert dm.add(x, x).parents == ()
        assert dm.add(x, x).parents

    def test_backward_works_after_the_block(self):
        x = dm.Tensor(np.array([3.0]))
        with dm.no_grad():
            dm.add(x, x)
        dm.mean_error(x, np.zeros(1), squared=True).backward()
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
        dm.mean_error(x, np.zeros((1, 2)), squared=True).backward()
        assert np.array_equal(x.grad, [[1.0, -2.0]])  # 2x / 2

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
            dm.add(sum_all(hidden), sum_all(x)).backward()
        assert np.array_equal(x.grad, grads[0]) and np.array_equal(w.grad, grads[1])

    @pytest.mark.parametrize("mode", ["station_rows", "top_k_pairs"])
    def test_parameter_grads_match_the_unreleased_walk(self, mode):
        from umod import model as md
        cfg, params, x, y = model_case(mode)
        loss = dm.mean_error(md.forward(x, params, cfg), y, squared=False)
        expected = unreleased_leaf_grads(loss)
        loss.backward()
        for name, p in params.items():
            assert p.grad.tobytes() == expected[id(p)].tobytes(), name

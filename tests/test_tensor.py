import numpy as np
import pytest

from scaseg import (ConvBN, RandomSource, ShapeError, Tensor, UsageError,
                    bilinear_resize, concat, conv2d, gradient_check,
                    log_softmax, matmul, softmax)
from scaseg.layers import map_from_tokens, tokens_from_map
from scaseg.tensor import (_resize_matrix, attention, conv_norm,
                           depthwise_tokens, linear, normalize, resize_concat)


class TestMatmul:
    def test_identity(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        assert np.array_equal(matmul(eye, x).data, x.data)

    def test_hand_computed(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(matmul(a, b).data, [[17.0], [39.0]])

    def test_zero_annihilates(self):
        a = Tensor(np.zeros((3, 4)))
        b = Tensor(np.arange(8.0).reshape(4, 2))
        assert np.array_equal(matmul(a, b).data, np.zeros((3, 2)))

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    @pytest.mark.parametrize("seed", range(5))
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 5)))
        c = Tensor(rng.normal(size=(5, 2)))
        lhs = matmul(matmul(a, b), c).data
        rhs = matmul(a, matmul(b, c)).data
        assert np.allclose(lhs, rhs, atol=1e-10, rtol=0)

    def test_batched_broadcast_matches_loop(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3, 4, 5)))
        b = Tensor(rng.normal(size=(2, 3, 5, 6)))
        out = matmul(a, b).data
        for i in range(2):
            for j in range(3):
                ref = a.data[i, j] @ b.data[i, j]
                assert np.allclose(out[i, j], ref, atol=1e-12)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(Tensor([0.0, 0.0]), axis=0)
        assert np.allclose(out.data, [0.5, 0.5])

    def test_shift_invariance(self):
        x = np.array([1.0, -2.0, 0.3])
        base = softmax(Tensor(x), axis=0).data
        shifted = softmax(Tensor(x + 123.456), axis=0).data
        assert np.allclose(base, shifted, atol=1e-12)

    def test_closed_form(self):
        # e^0 / (e^0 + 3) = 1/4
        out = softmax(Tensor([0.0, np.log(3.0)]), axis=0)
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_sum_to_one(self, seed):
        x = Tensor(np.random.default_rng(seed).normal(size=(4, 7)) * 10)
        out = softmax(x, axis=-1)
        assert np.all(out.data >= 0)
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            softmax(Tensor([1.0, 2.0]), axis=3)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_2x(self):
        x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_softmax_sum_grad_is_zero(self):
        x = Tensor(np.random.default_rng(0).normal(size=5), requires_grad=True)
        softmax(x, axis=0).sum().backward()
        assert np.allclose(x.grad, 0.0, atol=1e-12)

    def test_accumulation_doubles(self):
        x = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        once = x.grad.copy()
        loss.backward()
        assert np.array_equal(x.grad, 2 * once)

    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0
        (y + y).sum().backward()
        assert np.allclose(x.grad, [6.0])

    def test_no_graph_is_usage_error(self):
        with pytest.raises(UsageError, match="eval-mode SegModel"):
            Tensor(1.0).backward()

    def test_non_scalar_is_usage_error(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            (x * 2.0).backward()


class TestReshape:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(2, 3, 4)))
        back = x.reshape(4, 6).reshape(2, 3, 4)
        assert np.array_equal(back.data, x.data)

    def test_permute_round_trip(self):
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)))
        back = x.permute(2, 0, 1).permute(1, 2, 0)
        assert np.array_equal(back.data, x.data)


class TestGradientCheck:
    def test_sum_of_squares_is_exact(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        err = gradient_check(lambda t: (t * t).sum(), x, eps=1e-4)
        assert err < 1e-6

    def test_layer_norm_then_sum(self):
        from scaseg import LayerNorm
        ln = LayerNorm(6)
        x = Tensor(np.random.default_rng(3).normal(size=(4, 6)))
        err = gradient_check(lambda t: (ln(t) * ln(t)).sum(), x, eps=1e-4)
        assert err < 1e-5

    def test_non_scalar_function_rejected(self):
        x = Tensor(np.ones(3))
        with pytest.raises(UsageError):
            gradient_check(lambda t: t * 2.0, x)

    def test_bad_eps_rejected(self):
        with pytest.raises(UsageError):
            gradient_check(lambda t: t.sum(), Tensor(np.ones(2)), eps=0.0)


def _op_cases(rng):
    """(name, fn, input) triples covering every graph-recorded primitive."""
    w = Tensor(rng.normal(size=(4, 3)))
    other = Tensor(rng.normal(size=(3, 4)) + 3.0)
    conv_w = Tensor(rng.normal(size=(2, 3, 3, 3)))
    dw_w = Tensor(rng.normal(size=(3, 1, 3, 3)))
    # batch-2 inputs for the weight gradients, which sum over the batch
    conv_x = Tensor(rng.normal(size=(2, 3, 4, 4)))
    conv_x5 = Tensor(rng.normal(size=(2, 3, 5, 5)))
    # normalization: per-channel affine, an output weighting (the plain sum
    # of a batch-statistics output has zero gradient) and fixed statistics
    gamma = Tensor(rng.normal(size=3))
    beta = Tensor(rng.normal(size=3))
    gamma4 = Tensor(rng.normal(size=4))
    beta4 = Tensor(rng.normal(size=4))
    norm_w = Tensor(rng.normal(size=(2, 3, 2, 2)))
    stats = (rng.normal(size=(1, 3, 1, 1)), rng.random(size=(1, 3, 1, 1)) + 0.5)
    # 1×1 convolutions: stride 1 and no padding take the direct GEMM path
    pw_w = Tensor(rng.normal(size=(2, 3, 1, 1)))
    pw_b = Tensor(rng.normal(size=2))
    # one-node linear, attention and depthwise-on-tokens: 3-d token inputs,
    # 2 heads over 3 queries and 5 keys, 1x1 and 3x2 grids
    lin_x = Tensor(rng.normal(size=(2, 3, 4)))
    lin_w = Tensor(rng.normal(size=(4, 5)))
    lin_wc = Tensor(rng.normal(size=(5, 4, 1, 1)))
    lin_b = Tensor(rng.normal(size=5))
    att_q = Tensor(rng.normal(size=(2, 3, 4)))
    att_k = Tensor(rng.normal(size=(2, 5, 4)))
    att_v = Tensor(rng.normal(size=(2, 5, 4)))
    att_g = Tensor(rng.normal(size=(2, 3, 4)))
    tok_x1 = Tensor(rng.normal(size=(2, 1, 3)))
    tok_x6 = Tensor(rng.normal(size=(2, 6, 3)))
    tok_b = Tensor(rng.normal(size=3))
    # fused conv → batch norm (→ ReLU) over 2 output channels, with an
    # output weighting; the ReLU case shifts one channel far above zero and
    # one far below, so no probe crosses the kink
    gamma2 = Tensor(rng.normal(size=2))
    beta2 = Tensor(rng.normal(size=2))
    cn_w = Tensor(rng.normal(size=(2, 2, 4, 4)))
    cn_w3 = Tensor(rng.normal(size=(2, 2, 3, 3)))
    stats2 = (rng.normal(size=(1, 2, 1, 1)), rng.random(size=(1, 2, 1, 1)) + 0.5)
    relu_gamma, relu_beta = Tensor(np.full(2, 0.3)), Tensor(np.array([2.0, -2.0]))
    # resize-into-concat: a same-size part and an upsampled one
    rc_w = Tensor(rng.normal(size=(1, 4, 3, 4)))
    return [
        ("add", lambda x: (x + other).sum(), (3, 4), None),
        ("mul", lambda x: (x * other).sum(), (3, 4), None),
        ("div", lambda x: (x / other).sum(), (3, 4), None),
        ("matmul", lambda x: matmul(x, w).sum(), (3, 4), None),
        ("pow", lambda x: ((x * x + 1.0) ** 1.5).sum(), (3, 4), None),
        ("exp", lambda x: x.exp().sum(), (3, 4), None),
        ("log", lambda x: (x * x + 1.0).log().sum(), (3, 4), None),
        ("sqrt", lambda x: (x * x + 1.0).sqrt().sum(), (3, 4), None),
        ("sigmoid", lambda x: (x.sigmoid() * other).sum(), (3, 4), None),
        ("gelu", lambda x: (x.gelu() * other).sum(), (3, 4), None),
        ("relu", lambda x: (x.relu() * other).sum(), (3, 4), "away_from_zero"),
        ("softmax", lambda x: (softmax(x, -1) * other).sum(), (3, 4), None),
        ("log_softmax", lambda x: (log_softmax(x, -1) * other).sum(), (3, 4), None),
        ("reshape_permute", lambda x: (x.reshape(4, 3).permute(1, 0) * other).sum(),
         (3, 4), None),
        ("slice", lambda x: (x[1:, :2] * x[:2, 2:]).sum(), (3, 4), None),
        ("concat", lambda x: (concat([x, x * 2.0], axis=1) ** 2.0).sum(), (3, 4), None),
        ("conv2d", lambda x: (conv2d(x, conv_w, pw_b) * 0.5).sum(),
         (1, 3, 4, 4), None),
        ("conv2d_strided", lambda x: conv2d(x, conv_w, pw_b, stride=2).sum(),
         (1, 3, 5, 5), None),
        ("bilinear_up", lambda x: (bilinear_resize(x, (5, 7)) * 1.5).sum(),
         (1, 2, 3, 4), None),
        ("bilinear_down", lambda x: (bilinear_resize(x, (2, 2)) ** 2.0).sum(),
         (1, 2, 5, 6), None),
        ("conv2d_weight", lambda w: (conv2d(conv_x, w, pw_b) ** 2.0).sum(),
         (2, 3, 3, 3), None),
        ("conv2d_strided_weight",
         lambda w: (conv2d(conv_x5, w, pw_b, stride=2) ** 2.0).sum(),
         (2, 3, 3, 3), None),
        ("normalize_tokens",
         lambda x: (normalize(x, gamma4, beta4, (-1,), -1, 1e-6)[0] * other).sum(),
         (3, 4), None),
        ("normalize_batch",
         lambda x: (normalize(x, gamma, beta, (0, 2, 3), 1, 1e-5)[0] * norm_w).sum(),
         (2, 3, 2, 2), None),
        ("normalize_fixed_stats",
         lambda x: (normalize(x, gamma, beta, (0, 2, 3), 1, 1e-5, stats)[0]
                    * norm_w).sum(),
         (2, 3, 2, 2), None),
        ("pointwise", lambda x: (conv2d(x, pw_w, pw_b) ** 2.0).sum(),
         (2, 3, 4, 4), None),
        ("pointwise_weight", lambda w: (conv2d(conv_x, w, pw_b) ** 2.0).sum(),
         (2, 3, 1, 1), None),
        ("pointwise_channels_last",
         lambda x: (conv2d(x.permute(0, 3, 1, 2), pw_w, pw_b) ** 2.0).sum(),
         (2, 4, 4, 3), None),
        ("pointwise_strided", lambda x: (conv2d(x, pw_w, pw_b, stride=2) ** 2.0).sum(),
         (2, 3, 5, 5), None),
        ("linear", lambda x: (linear(x, lin_w, lin_b) ** 2.0).sum(), (2, 3, 4), None),
        ("linear_conv_form", lambda x: (linear(x, lin_wc, lin_b) ** 2.0).sum(),
         (2, 3, 4), None),
        ("linear_weight", lambda w: (linear(lin_x, w, lin_b) ** 2.0).sum(),
         (4, 5), None),
        ("linear_conv_form_weight", lambda w: (linear(lin_x, w, lin_b) ** 2.0).sum(),
         (5, 4, 1, 1), None),
        ("linear_bias", lambda b: (linear(lin_x, lin_w, b) ** 2.0).sum(), (5,), None),
        ("attention_q", lambda q: (attention(q, att_k, att_v, 2)[0] * att_g).sum(),
         (2, 3, 4), None),
        ("attention_k", lambda k: (attention(att_q, k, att_v, 2)[0] * att_g).sum(),
         (2, 5, 4), None),
        ("attention_v", lambda v: (attention(att_q, att_k, v, 2)[0] * att_g).sum(),
         (2, 5, 4), None),
        ("depthwise_tokens_1x1",
         lambda x: (depthwise_tokens(x, (1, 1), dw_w, tok_b) ** 2.0).sum(),
         (2, 1, 3), None),
        ("depthwise_tokens_3x2",
         lambda x: (depthwise_tokens(x, (3, 2), dw_w, tok_b) ** 2.0).sum(),
         (2, 6, 3), None),
        ("depthwise_tokens_1x1_weight",
         lambda w: (depthwise_tokens(tok_x1, (1, 1), w, tok_b) ** 2.0).sum(),
         (3, 1, 3, 3), None),
        ("depthwise_tokens_3x2_weight",
         lambda w: (depthwise_tokens(tok_x6, (3, 2), w, tok_b) ** 2.0).sum(),
         (3, 1, 3, 3), None),
        ("depthwise_tokens_bias",
         lambda b: (depthwise_tokens(tok_x6, (3, 2), dw_w, b) ** 2.0).sum(),
         (3,), None),
        ("conv_norm",
         lambda x: (conv_norm(x, conv_w, pw_b, gamma2, beta2, 1, 1e-5)[0]
                    * cn_w).sum(),
         (2, 3, 4, 4), None),
        ("conv_norm_strided_relu",
         lambda x: (conv_norm(x, conv_w, pw_b, relu_gamma, relu_beta, 2, 1e-5,
                              relu=True)[0] * cn_w3).sum(),
         (2, 3, 5, 5), None),
        ("conv_norm_fixed_stats",
         lambda x: (conv_norm(x, conv_w, pw_b, gamma2, beta2, 1, 1e-5, stats2)[0]
                    * cn_w).sum(),
         (2, 3, 4, 4), None),
        ("conv_norm_weight",
         lambda w: (conv_norm(conv_x, w, pw_b, gamma2, beta2, 1, 1e-5)[0]
                    * cn_w).sum(),
         (2, 3, 3, 3), None),
        ("conv_norm_gamma",
         lambda gm: (conv_norm(conv_x, conv_w, pw_b, gm, beta2, 1, 1e-5)[0]
                     * cn_w).sum(),
         (2,), None),
        ("resize_concat",
         lambda x: (resize_concat([x, x[:, :, 1:, 1:]], (3, 4)) * rc_w).sum(),
         (1, 2, 3, 4), None),
    ]


@pytest.mark.parametrize("seed", range(20))
def test_every_op_passes_gradient_check(seed):
    rng = np.random.default_rng(seed)
    for name, fn, shape, note in _op_cases(rng):
        data = rng.normal(size=shape)
        if note == "away_from_zero":
            data = np.where(np.abs(data) < 0.05, data + 0.2, data)
        err = gradient_check(fn, Tensor(data), eps=1e-4)
        assert err < 1e-4, f"{name} failed gradient check: {err}"


def _value_and_grads(fn, arrays, g):
    """Output of ``fn`` on fresh leaves and their gradients under the output
    weighting ``g``."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*leaves)
    (out * Tensor(g)).sum().backward()
    return out.data, [t.grad for t in leaves]


class TestOneNodePrimitives:
    """Each fused node against the composed graph it replaces: the same
    values and gradients to 1e-12, or bit for bit where the fused node runs
    the same numpy operations."""

    def test_linear_is_matmul_plus_bias(self):
        rng = np.random.default_rng(0)
        arrays = (rng.normal(size=(2, 5, 4)), rng.normal(size=(4, 3)),
                  rng.normal(size=3))
        g = rng.normal(size=(2, 5, 3))
        out, grads = _value_and_grads(linear, arrays, g)
        ref, ref_grads = _value_and_grads(lambda x, w, b: matmul(x, w) + b,
                                          arrays, g)
        assert np.array_equal(out, ref)  # the same numpy operations
        for a, r in zip(grads, ref_grads):
            np.testing.assert_allclose(a, r, rtol=0, atol=1e-12)

    def test_linear_conv_weight_is_pointwise_conv(self):
        rng = np.random.default_rng(1)
        arrays = (rng.normal(size=(2, 6, 4)), rng.normal(size=(3, 4, 1, 1)),
                  rng.normal(size=3))
        g = rng.normal(size=(2, 6, 3))
        out, grads = _value_and_grads(linear, arrays, g)
        ref, ref_grads = _value_and_grads(
            lambda x, w, b: tokens_from_map(conv2d(map_from_tokens(x, (3, 2)), w, b)),
            arrays, g)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        for a, r in zip(grads, ref_grads):
            assert a.shape == r.shape
            np.testing.assert_allclose(a, r, rtol=0, atol=1e-12)

    def test_attention_matches_composed_graph(self):
        rng = np.random.default_rng(2)
        heads, dk = 2, 3
        arrays = (rng.normal(size=(2, 4, 6)), rng.normal(size=(2, 5, 6)),
                  rng.normal(size=(2, 5, 6)))
        g = rng.normal(size=(2, 4, 6))

        weights = {}

        def composed(q, k, v):
            def split(t):
                B, n, _ = t.shape
                return t.reshape(B, n, heads, dk).permute(0, 2, 1, 3)
            att = softmax(matmul(split(q), split(k).permute(0, 1, 3, 2))
                          * (1.0 / np.sqrt(dk)), axis=-1)
            weights["composed"] = att.data
            return matmul(att, split(v)).permute(0, 2, 1, 3).reshape(2, 4, 6)

        def one_node(q, k, v):
            out, weights["fused"] = attention(q, k, v, heads)
            assert out._parents == (q, k, v)
            return out

        out, grads = _value_and_grads(one_node, arrays, g)
        ref, ref_grads = _value_and_grads(composed, arrays, g)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(weights["fused"], weights["composed"],
                                   rtol=0, atol=1e-12)
        for a, r in zip(grads, ref_grads):
            np.testing.assert_allclose(a, r, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("hw", [(1, 1), (3, 2), (4, 5)])
    def test_depthwise_tokens_is_grouped_conv(self, hw):
        h, w = hw
        rng = np.random.default_rng(h * 10 + w)
        arrays = (rng.normal(size=(2, h * w, 4)), rng.normal(size=(4, 1, 3, 3)),
                  rng.normal(size=4))
        g = rng.normal(size=(2, h * w, 4))
        out, grads = _value_and_grads(
            lambda x, wt, b: depthwise_tokens(x, (h, w), wt, b), arrays, g)

        def per_channel_conv(x, wt, b):  # one ungrouped im2col conv a channel
            m = map_from_tokens(x, (h, w))
            return tokens_from_map(concat(
                [conv2d(m[:, c:c + 1], wt[c:c + 1], b[c:c + 1])
                 for c in range(4)], axis=1))
        ref, ref_grads = _value_and_grads(per_channel_conv, arrays, g)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12)
        for a, r in zip(grads, ref_grads):
            np.testing.assert_allclose(a, r, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("k,stride", [(1, 1), (1, 2), (3, 1), (3, 2), (3, 4)])
    @pytest.mark.parametrize("relu", [True, False])
    def test_conv_norm_is_conv_then_batch_norm(self, training, k, stride, relu):
        rng = np.random.default_rng(10 * k + stride)
        x = rng.normal(size=(2, 3, 7, 6))
        gamma, beta = rng.normal(size=4), rng.normal(size=4)
        running = rng.normal(size=4), rng.random(size=4) + 0.5
        g = None
        results = []
        for fused in (True, False):
            cb = ConvBN(3, 4, RandomSource(0), k=k, stride=stride, relu=relu)
            cb.train() if training else cb.eval()
            bn = cb.bn
            for t, a in zip((bn.gamma, bn.beta, bn.running_mean, bn.running_var),
                            (gamma, beta, *running)):
                t.data[...] = a
            xt = Tensor(x.copy(), requires_grad=True)
            if fused:
                out = cb(xt)
            else:  # conv2d → normalize → relu, three nodes
                out = bn(cb.conv(xt))
                out = out.relu() if relu else out
            if g is None:
                g = rng.normal(size=out.shape)
            (out * Tensor(g)).sum().backward()
            params = (cb.conv.weight, cb.conv.bias, bn.gamma, bn.beta)
            results.append([out.data, xt.grad, *(p.grad for p in params),
                            bn.running_mean.data, bn.running_var.data])
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("target", [(4, 6), (8, 12)])
    def test_resize_concat_is_concat_of_resizes(self, target):
        rng = np.random.default_rng(target[0])
        arrays = (rng.normal(size=(2, 3, 4, 6)), rng.normal(size=(2, 2, 2, 3)),
                  rng.normal(size=(2, 1, 1, 2)))
        g = rng.normal(size=(2, 6, *target))
        out, grads = _value_and_grads(
            lambda *parts: resize_concat(parts, target), arrays, g)
        ref, ref_grads = _value_and_grads(
            lambda *parts: concat([bilinear_resize(p, target) for p in parts],
                                  axis=1), arrays, g)
        assert np.array_equal(out, ref)
        for a, r in zip(grads, ref_grads):
            assert np.array_equal(a, r)

    def test_shape_errors(self):
        x = Tensor(np.zeros((2, 6, 4)))
        with pytest.raises(ShapeError):
            linear(x, Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))
        with pytest.raises(ShapeError):
            attention(x, Tensor(np.zeros((2, 5, 4))), Tensor(np.zeros((2, 4, 4))), 2)
        with pytest.raises(ShapeError):
            depthwise_tokens(x, (2, 2), Tensor(np.zeros((4, 1, 3, 3))),
                             Tensor(np.zeros(4)))
        image, b = Tensor(np.zeros((1, 4, 5, 5))), Tensor(np.zeros(2))
        for w_shape in ((2, 4, 3, 1), (2, 2, 3, 3)):  # not square; 2 != 4 channels
            with pytest.raises(ShapeError):
                conv2d(image, Tensor(np.zeros(w_shape)), b)


class TestKernelsMatchOldFormulation:
    """The kernels after their per-call trimming against the numpy
    formulation they replaced, bit for bit."""

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_padded_conv2d_is_np_pad_im2col(self, stride):
        rng = np.random.default_rng(stride)
        x = rng.normal(size=(2, 3, 9, 8))
        w, b = rng.normal(size=(4, 3, 3, 3)), rng.normal(size=4)
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        out = conv2d(xt, wt, bt, stride=stride)
        g = rng.normal(size=out.shape)
        (out * Tensor(g)).sum().backward()

        B, _, Ho, Wo = out.shape
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        cols = np.empty((B, 3, 3, 3, Ho, Wo))
        for i in range(3):
            for j in range(3):
                cols[:, :, i, j] = xp[:, :, i:i + stride * Ho:stride,
                                      j:j + stride * Wo:stride]
        cols = cols.reshape(B, 27, Ho * Wo)
        ref = np.matmul(w.reshape(4, 27), cols).reshape(out.shape)
        ref += b.reshape(1, 4, 1, 1)
        g3 = g.reshape(B, 4, Ho * Wo)
        ref_gw = np.matmul(g3, np.swapaxes(cols, -1, -2)).sum(axis=0)
        assert np.array_equal(out.data, ref)
        assert np.array_equal(wt.grad, ref_gw.reshape(w.shape))
        assert np.array_equal(bt.grad, g.sum(axis=(0, 2, 3)))

    def test_resize_matrix_is_cached_and_read_only(self):
        m = _resize_matrix(5, 3)
        assert _resize_matrix(5, 3) is m
        assert np.array_equal(m, _resize_matrix.__wrapped__(5, 3))
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    @pytest.mark.parametrize("shape,axes,channel_axis", [
        ((4, 3, 5, 6), (0, 2, 3), 1), ((2, 7, 5), (-1,), -1)],
        ids=["batch-norm", "layer-norm"])
    def test_normalize_backward_is_ndarray_mean_form(self, shape, axes,
                                                     channel_axis):
        rng = np.random.default_rng(len(shape))
        x = rng.normal(size=shape)
        C = shape[channel_axis]
        gamma, beta = rng.normal(size=C), rng.normal(size=C)
        gout = rng.normal(size=shape)
        leaves = [Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = normalize(*leaves, axes, channel_axis, 1e-5)[0]
        (out * Tensor(gout)).sum().backward()

        pshape = [1] * len(shape)
        pshape[channel_axis] = C
        n = int(np.prod([shape[a] for a in axes]))
        d = x - x.sum(axis=axes, keepdims=True) * (1.0 / n)
        inv = ((d * d).sum(axis=axes, keepdims=True) * (1.0 / n) + 1e-5) ** -0.5
        xhat = d * inv
        param_axes = tuple(i for i in range(len(shape)) if pshape[i] == 1)
        gxhat = gout * gamma.reshape(pshape)
        gx = (gxhat - gxhat.mean(axis=axes, keepdims=True)
              - xhat * (gxhat * xhat).mean(axis=axes, keepdims=True)) * inv
        assert np.array_equal(out.data,
                              xhat * gamma.reshape(pshape) + beta.reshape(pshape))
        assert np.array_equal(leaves[0].grad, gx)
        assert np.array_equal(leaves[1].grad, (gout * xhat).sum(axis=param_axes))
        assert np.array_equal(leaves[2].grad, gout.sum(axis=param_axes))


class TestFiniteness:
    @pytest.mark.parametrize("seed", range(3))
    def test_forward_results_stay_finite(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)) * 50)
        for out in (softmax(x, -1), log_softmax(x, -1), x.gelu(), x.sigmoid(),
                    x.relu(), (x * x).sqrt()):
            assert np.isfinite(out.data).all()

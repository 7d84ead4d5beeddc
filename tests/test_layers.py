import numpy as np
import pytest
from scipy.special import erf

from scaseg import (BatchNorm2d, ConfigError, Conv2d, ConvBN, DecoderConfig,
                    EncoderConfig, LayerNorm, MixFFN, MultiHeadAttention,
                    NumericalError, RandomSource, SegModel, ShapeError, Tensor,
                    TrainConfig, bilinear_resize, cross_entropy,
                    gen_synthetic_dataset, gradient_check)
from scaseg.layers import BN_EPS, BN_MOMENTUM
from scaseg.tensor import normalize


def rng(seed=0):
    return RandomSource(seed)


class TestLayerNorm:
    def test_constant_token_maps_to_zero(self):
        ln = LayerNorm(4)
        out = ln(Tensor([[5.0, 5.0, 5.0, 5.0]]))
        assert np.array_equal(out.data, [[0.0, 0.0, 0.0, 0.0]])

    def test_normalizes_random_tokens(self):
        ln = LayerNorm(16)
        x = Tensor(np.random.default_rng(0).normal(size=(10, 16)) * 3 + 2)
        out = ln(x).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_zero_gamma_gives_beta(self):
        ln = LayerNorm(3)
        ln.gamma.data[...] = 0.0
        ln.beta.data[...] = 7.0
        out = ln(Tensor(np.random.default_rng(1).normal(size=(5, 3))))
        assert np.allclose(out.data, 7.0)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            LayerNorm(4)(Tensor(np.zeros((2, 5))))


class TestMultiHeadAttention:
    def test_single_kv_token_dominates(self):
        # softmax over one key is 1, so every query gets v @ w_o
        mha = MultiHeadAttention(3, 4, rng(0), heads=2)
        kv = Tensor(np.random.default_rng(0).normal(size=(1, 3)))
        q = Tensor(np.random.default_rng(1).normal(size=(5, 4)))
        out = mha(kv, q).data
        for row in out[1:]:
            assert np.allclose(row, out[0], atol=1e-12)

    def test_identical_kv_rows_make_queries_irrelevant(self):
        mha = MultiHeadAttention(4, 4, rng(1))
        row = np.random.default_rng(2).normal(size=4)
        kv = Tensor(np.tile(row, (6, 1)))
        g = np.random.default_rng(3)
        out_a = mha(kv, Tensor(g.normal(size=(3, 4)))).data
        out_b = mha(kv, Tensor(g.normal(size=(3, 4)) * 5)).data
        assert np.allclose(out_a, out_b, atol=1e-10)

    def test_matches_explicit_loop_oracle(self):
        d = 2
        mha = MultiHeadAttention(d, d, rng(2), heads=1)
        gen = np.random.default_rng(4)
        for layer in (mha.w_q, mha.w_k, mha.w_v, mha.w_o):
            layer.weight.data[...] = gen.normal(size=(d, d))
            layer.bias.data[...] = gen.normal(size=d)
        kv = gen.normal(size=(2, d))
        qs = gen.normal(size=(2, d))

        # straight-line scalar evaluation of softmax(QK^T/sqrt(dk)) V
        Q = qs @ mha.w_q.weight.data + mha.w_q.bias.data
        K = kv @ mha.w_k.weight.data + mha.w_k.bias.data
        V = kv @ mha.w_v.weight.data + mha.w_v.bias.data
        expected = np.zeros((2, d))
        for i in range(2):
            scores = np.array([Q[i] @ K[j] / np.sqrt(d) for j in range(2)])
            e = np.exp(scores - scores.max())
            att = e / e.sum()
            ctx = sum(att[j] * V[j] for j in range(2))
            expected[i] = ctx @ mha.w_o.weight.data + mha.w_o.bias.data

        out = mha(Tensor(kv), Tensor(qs)).data
        assert np.allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_attention_rows_sum_to_one(self, seed):
        mha = MultiHeadAttention(6, 8, rng(seed), heads=2)
        g = np.random.default_rng(seed)
        mha(Tensor(g.normal(size=(5, 6))), Tensor(g.normal(size=(7, 8))))
        att = mha.last_attention
        assert np.all(att >= 0)
        assert np.allclose(att.sum(axis=-1), 1.0, atol=1e-6)

    def test_permutation_equivariance(self):
        mha = MultiHeadAttention(4, 4, rng(5), heads=2)
        g = np.random.default_rng(6)
        kv = g.normal(size=(6, 4))
        q = g.normal(size=(5, 4))
        base = mha(Tensor(kv), Tensor(q)).data
        perm_q = np.random.default_rng(7).permutation(5)
        assert np.allclose(mha(Tensor(kv), Tensor(q[perm_q])).data,
                           base[perm_q], atol=1e-12)
        perm_kv = np.random.default_rng(8).permutation(6)
        assert np.allclose(mha(Tensor(kv[perm_kv]), Tensor(q)).data,
                           base, atol=1e-10)

    def test_output_dim_follows_query(self):
        mha = MultiHeadAttention(3, 8, rng(6), heads=4)
        g = np.random.default_rng(9)
        out = mha(Tensor(g.normal(size=(4, 3))), Tensor(g.normal(size=(5, 8))))
        assert out.shape == (5, 8)

    @pytest.mark.parametrize("kv_width,q_width,expected", [(4, 8, 3), (3, 6, 8)])
    def test_wrong_input_width_is_shape_error(self, kv_width, q_width,
                                              expected):
        mha = MultiHeadAttention(3, 8, rng(6), heads=4)
        g = np.random.default_rng(9)
        with pytest.raises(ShapeError, match=f"last dim {expected}"):
            mha(Tensor(g.normal(size=(4, kv_width))),
                Tensor(g.normal(size=(5, q_width))))

    def test_indivisible_heads_is_config_error(self):
        with pytest.raises(ConfigError):
            MultiHeadAttention(4, 6, rng(7), heads=4)


def _mix_ffn_oracle(ffn: MixFFN, x: np.ndarray, h: int, w: int) -> np.ndarray:
    """Scalar-loop evaluation of conv1x1 -> depthwise3x3 -> GELU -> conv1x1."""
    hidden, C = ffn.fc1.weight.shape[:2]
    grid = x.reshape(h, w, C)
    w1 = ffn.fc1.weight.data.reshape(hidden, C)
    b1 = ffn.fc1.bias.data
    mid = np.zeros((h, w, hidden))
    for y in range(h):
        for z in range(w):
            mid[y, z] = w1 @ grid[y, z] + b1
    dw = ffn.dw.weight.data  # (hidden, 1, 3, 3)
    bdw = ffn.dw.bias.data
    conv = np.zeros_like(mid)
    for y in range(h):
        for z in range(w):
            for c in range(hidden):
                acc = 0.0
                for dy in (-1, 0, 1):
                    for dz in (-1, 0, 1):
                        yy, zz = y + dy, z + dz
                        if 0 <= yy < h and 0 <= zz < w:
                            acc += dw[c, 0, dy + 1, dz + 1] * mid[yy, zz, c]
                conv[y, z, c] = acc + bdw[c]
    act = 0.5 * conv * (1 + erf(conv / np.sqrt(2)))
    w2 = ffn.fc2.weight.data.reshape(C, hidden)
    b2 = ffn.fc2.bias.data
    out = np.zeros((h, w, C))
    for y in range(h):
        for z in range(w):
            out[y, z] = w2 @ act[y, z] + b2
    return out.reshape(h * w, C)


class TestMixFFN:
    @pytest.mark.parametrize("hw", [(1, 1), (2, 3), (4, 4)])
    def test_preserves_shape(self, hw):
        h, w = hw
        ffn = MixFFN(5, rng(0))
        x = Tensor(np.random.default_rng(0).normal(size=(h * w, 5)))
        assert ffn(x, (h, w)).shape == (h * w, 5)

    def test_zero_weights_give_zero(self):
        ffn = MixFFN(3, rng(1))
        for _, p in ffn.named_parameters():
            p.data[...] = 0.0
        out = ffn(Tensor(np.random.default_rng(1).normal(size=(4, 3))), (2, 2))
        assert np.array_equal(out.data, np.zeros((4, 3)))

    def test_single_pixel_equals_center_tap_mlp(self):
        # on a 1x1 grid the padded depthwise conv sees only its center tap
        ffn = MixFFN(3, rng(2))
        x = np.random.default_rng(2).normal(size=(1, 3))
        hidden = (ffn.fc1.weight.data.reshape(12, 3) @ x[0]
                  + ffn.fc1.bias.data)
        hidden = hidden * ffn.dw.weight.data[:, 0, 1, 1] + ffn.dw.bias.data
        hidden = 0.5 * hidden * (1 + erf(hidden / np.sqrt(2)))
        expected = ffn.fc2.weight.data.reshape(3, 12) @ hidden + ffn.fc2.bias.data
        out = ffn(Tensor(x), (1, 1)).data
        assert np.allclose(out, expected[None], atol=1e-12)

    @pytest.mark.parametrize("hw", [(1, 1), (2, 2), (3, 2), (4, 4)])
    def test_matches_loop_oracle(self, hw):
        h, w = hw
        ffn = MixFFN(3, rng(3))
        x = np.random.default_rng(h * 10 + w).normal(size=(h * w, 3))
        out = ffn(Tensor(x), (h, w)).data
        assert np.allclose(out, _mix_ffn_oracle(ffn, x, h, w), atol=1e-10)

    def test_token_grid_mismatch(self):
        with pytest.raises(ShapeError):
            MixFFN(3, rng(4))(Tensor(np.zeros((5, 3))), (2, 2))


class TestConvBN:
    def test_eval_mode_inverse_affine_is_identity(self):
        cb = ConvBN(3, 3, rng(0))
        cb.eval()
        cb.conv.weight.data[...] = np.eye(3).reshape(3, 3, 1, 1)
        cb.conv.bias.data[...] = 0.0
        mu = np.array([0.3, -1.0, 2.0])
        var = np.array([0.5, 2.0, 1.3])
        cb.bn.running_mean.data[...] = mu
        cb.bn.running_var.data[...] = var
        cb.bn.gamma.data[...] = np.sqrt(var + BN_EPS)
        cb.bn.beta.data[...] = mu
        x = Tensor(np.random.default_rng(3).normal(size=(2, 3, 4, 4)))
        assert np.allclose(cb(x).data, x.data, atol=1e-12)

    def test_all_ones_weights_sum_channels(self):
        conv = Conv2d(4, 1, 1, rng(1))
        conv.weight.data[...] = 1.0
        conv.bias.data[...] = 0.0
        x = np.random.default_rng(4).normal(size=(1, 4, 3, 3))
        assert np.allclose(conv(Tensor(x)).data[0, 0], x.sum(axis=1)[0],
                           atol=1e-12)

    def test_matches_per_pixel_loop_oracle(self):
        cb = ConvBN(3, 5, rng(2))
        cb.eval()
        x = np.random.default_rng(5).normal(size=(2, 3, 4, 4))
        w = cb.conv.weight.data.reshape(5, 3)
        b = cb.conv.bias.data
        conv = np.zeros((2, 5, 4, 4))
        for n in range(2):
            for y in range(4):
                for z in range(4):
                    conv[n, :, y, z] = w @ x[n, :, y, z] + b
        inv = 1.0 / np.sqrt(cb.bn.running_var.data + BN_EPS)
        expected = ((conv - cb.bn.running_mean.data[:, None, None])
                    * inv[:, None, None] * cb.bn.gamma.data[:, None, None]
                    + cb.bn.beta.data[:, None, None])
        assert np.allclose(cb(Tensor(x)).data, expected, atol=1e-10)

    def test_degenerate_variance_in_training_mode(self):
        cb = ConvBN(2, 2, rng(3))
        cb.train()
        with pytest.raises(NumericalError):
            cb(Tensor(np.ones((1, 2, 1, 1))))

    @pytest.mark.parametrize("layer", ["BatchNorm2d", "ConvBN"])
    def test_one_value_per_channel_leaves_running_stats(self, layer):
        module = BatchNorm2d(2) if layer == "BatchNorm2d" else ConvBN(2, 2, rng(3))
        bn = module if layer == "BatchNorm2d" else module.bn
        bn.running_mean.data[...] = [0.5, -0.25]
        bn.running_var.data[...] = [2.0, 3.0]
        module.train()
        with pytest.raises(NumericalError, match="more than one value"):
            module(Tensor(np.full((1, 2, 1, 1), 0.7)))
        assert bn.running_mean.data.tolist() == [0.5, -0.25]
        assert bn.running_var.data.tolist() == [2.0, 3.0]

    def test_running_stats_update_is_the_momentum_formula(self):
        g = np.random.default_rng(8)
        bn = BatchNorm2d(16)
        rm, rv = g.normal(size=16), g.random(size=16) + 0.5
        bn.running_mean.data[...] = rm
        bn.running_var.data[...] = rv
        x = Tensor(g.normal(size=(2, 16, 3, 5)))
        _, mu, var = normalize(x, bn.gamma, bn.beta, (0, 2, 3), 1, BN_EPS)
        bn.train()
        bn(x)
        m, n = BN_MOMENTUM, 2 * 3 * 5
        assert np.array_equal(bn.running_mean.data,
                              (1 - m) * rm + m * mu.reshape(16))
        assert np.array_equal(bn.running_var.data,
                              (1 - m) * rv + m * var.reshape(16) * n / (n - 1))

    def test_training_mode_uses_batch_statistics(self):
        cb = ConvBN(2, 2, rng(4))
        cb.train()
        out = cb(Tensor(np.random.default_rng(6).normal(size=(4, 2, 3, 3))))
        assert np.abs(out.data.mean(axis=(0, 2, 3))).max() < 1e-10
        assert np.abs(out.data.var(axis=(0, 2, 3)) - 1.0).max() < 1e-3


class TestBilinearResize:
    def test_identity_when_same_size(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 2, 3, 4)))
        assert np.array_equal(bilinear_resize(x, (3, 4)).data, x.data)

    def test_constant_stays_constant(self):
        x = Tensor(np.full((1, 1, 3, 5), 2.5))
        for target in ((1, 1), (7, 2), (9, 9)):
            assert np.allclose(bilinear_resize(x, target).data, 2.5, atol=1e-12)

    # every resize the default model performs at 64x64 and 256x256 (token
    # grid down 4x to 32x, SCM and head upsamples, same-size head inputs),
    # plus one non-square pair and the original 2x2 -> 4x4 case
    @pytest.mark.parametrize("src,dst", [
        ((2, 2), (1, 1)), ((4, 4), (1, 1)), ((8, 8), (1, 1)),
        ((16, 16), (1, 1)), ((8, 8), (4, 4)), ((16, 16), (4, 4)),
        ((32, 32), (4, 4)), ((64, 64), (4, 4)), ((1, 1), (2, 2)),
        ((1, 1), (4, 4)), ((1, 1), (8, 8)), ((2, 2), (16, 16)),
        ((4, 4), (8, 8)), ((4, 4), (16, 16)), ((4, 4), (32, 32)),
        ((8, 8), (16, 16)), ((8, 8), (64, 64)), ((16, 16), (64, 64)),
        ((32, 32), (64, 64)), ((64, 64), (256, 256)), ((16, 16), (16, 16)),
        ((3, 5), (7, 2)), ((2, 2), (4, 4)),
    ], ids=lambda hw: f"{hw[0]}x{hw[1]}")
    def test_matches_scalar_coordinate_formula(self, src, dst):
        # reference: the four-tap formula per output pixel; its adjoint
        # (scattering the output gradient back onto the taps) is the
        # reference backward
        (H, W), (Ht, Wt) = src, dst
        data = np.random.default_rng(H * 100 + Wt).normal(size=(2, 3, H, W))
        g = np.random.default_rng(Ht * 100 + W).normal(size=(2, 3, Ht, Wt))
        expected = np.zeros_like(g)
        expected_grad = np.zeros_like(data)

        def taps(d, n_src, n_dst):
            s = min(max((d + 0.5) * n_src / n_dst - 0.5, 0.0), n_src - 1.0)
            lo = int(np.floor(s))
            return lo, min(lo + 1, n_src - 1), s - lo

        for oy in range(Ht):
            y0, y1, wy = taps(oy, H, Ht)
            for ox in range(Wt):
                x0, x1, wx = taps(ox, W, Wt)
                for yy, xx, w in ((y0, x0, (1 - wy) * (1 - wx)),
                                  (y0, x1, (1 - wy) * wx),
                                  (y1, x0, wy * (1 - wx)),
                                  (y1, x1, wy * wx)):
                    expected[:, :, oy, ox] += w * data[:, :, yy, xx]
                    expected_grad[:, :, yy, xx] += w * g[:, :, oy, ox]
        x = Tensor(data, requires_grad=True)
        out = bilinear_resize(x, dst)
        (out * Tensor(g)).sum().backward()
        assert np.allclose(out.data, expected, rtol=0, atol=1e-12)
        assert np.allclose(x.grad, expected_grad, rtol=0, atol=1e-12)

    def test_down_then_up_constant_is_exact(self):
        x = Tensor(np.full((1, 3, 8, 8), -1.25))
        down = bilinear_resize(x, (2, 2))
        up = bilinear_resize(down, (8, 8))
        assert np.array_equal(up.data, x.data)


class TestLayerGradients:
    """Every layer's backward pass agrees with finite differences."""

    def test_layer_norm(self):
        ln = LayerNorm(5)
        g = np.random.default_rng(0)
        x = Tensor(g.normal(size=(2, 3, 5)))
        ln.gamma.data[...] = g.normal(size=5)
        ln.beta.data[...] = g.normal(size=5)
        # every element of the input, gamma and beta
        for t in (x, ln.gamma, ln.beta):
            err = gradient_check(lambda _: (ln(x) ** 2.0).sum(), t)
            assert err < 1e-4

    def test_attention_wrt_input_and_weights(self):
        mha = MultiHeadAttention(3, 4, rng(0), heads=2)
        g = np.random.default_rng(1)
        kv = Tensor(g.normal(size=(4, 3)))
        q = g.normal(size=(5, 4))
        err = gradient_check(lambda t: (mha(kv, t) ** 2.0).sum(), Tensor(q))
        assert err < 1e-4
        err = gradient_check(
            lambda wt: (mha(kv, Tensor(q)) ** 2.0).sum(), mha.w_k.weight)
        assert err < 1e-4

    def test_mix_ffn(self):
        ffn = MixFFN(3, rng(1))
        x = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        err = gradient_check(lambda t: (ffn(t, (2, 2)) ** 2.0).sum(), x)
        assert err < 1e-4

    def test_conv_bn_eval_mode(self):
        cb = ConvBN(3, 4, rng(2))
        cb.eval()
        g = np.random.default_rng(3)
        x = Tensor(g.normal(size=(2, 3, 3, 3)))
        cb.bn.running_mean.data[...] = g.normal(size=4)
        cb.bn.running_var.data[...] = g.random(size=4) + 0.5
        cb.bn.gamma.data[...] = g.normal(size=4)
        cb.bn.beta.data[...] = g.normal(size=4)
        for t in (x, cb.bn.gamma, cb.bn.beta):
            err = gradient_check(lambda _: (cb(x) ** 2.0).sum(), t)
            assert err < 1e-4

    def test_conv_bn_training_mode_batch_stats_in_graph(self):
        cb = ConvBN(3, 4, rng(3))
        cb.train()
        g = np.random.default_rng(4)
        x = Tensor(g.normal(size=(2, 3, 3, 3)))
        cb.bn.gamma.data[...] = g.normal(size=4)
        cb.bn.beta.data[...] = g.normal(size=4)
        for t in (x, cb.bn.gamma, cb.bn.beta):
            err = gradient_check(lambda _: (cb(x) ** 2.0).sum(), t)
            assert err < 1e-4

    def test_norms_are_one_node(self):
        ln = LayerNorm(3)
        x = Tensor(np.random.default_rng(6).normal(size=(2, 4, 3)),
                   requires_grad=True)
        assert ln(x)._parents == (x, ln.gamma, ln.beta)
        bn = BatchNorm2d(4)
        x = Tensor(np.random.default_rng(7).normal(size=(2, 4, 3, 3)),
                   requires_grad=True)
        for mode in (bn.train, bn.eval):
            mode()
            assert bn(x)._parents == (x, bn.gamma, bn.beta)

    def test_conv_bn_is_one_node(self):
        x = Tensor(np.random.default_rng(8).normal(size=(2, 3, 4, 4)),
                   requires_grad=True)
        for relu in (False, True):
            cb = ConvBN(3, 4, rng(5), k=3, relu=relu)
            for mode in (cb.train, cb.eval):
                mode()
                assert cb(x)._parents == (x, cb.conv.weight, cb.conv.bias,
                                          cb.bn.gamma, cb.bn.beta)

    def test_bilinear_resize(self):
        x = Tensor(np.random.default_rng(5).normal(size=(1, 2, 3, 3)))
        err = gradient_check(
            lambda t: (bilinear_resize(t, (5, 4)) ** 2.0).sum(), x)
        assert err < 1e-4


def _graph_nodes(t: Tensor) -> int:
    """Recorded (non-leaf) nodes reachable from ``t``."""
    seen, stack, count = set(), [t], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += node._backward is not None
        stack.extend(p for p in node._parents if p.requires_grad)
    return count


class TestNodeBudget:
    """Graph nodes per call: Linear, the attention core, the depthwise conv,
    each ConvBN and the head's resize-and-concat are one node each, and
    tokens need no layout nodes."""

    def test_default_train_step(self):
        cfg = TrainConfig()
        enc, dec = EncoderConfig(), DecoderConfig()
        model = SegModel(enc, dec, seed=0)
        model.train()
        batch = gen_synthetic_dataset(cfg.batch_size, enc.height, enc.width,
                                      dec.num_classes, seed=0)
        loss = cross_entropy(model(Tensor(np.stack([s.image for s in batch]))),
                             np.stack([s.mask for s in batch]))
        assert _graph_nodes(loss) == 218

    def test_attention_call(self):
        mha = MultiHeadAttention(3, 4, rng(0), heads=2)
        g = np.random.default_rng(0)
        kv = Tensor(g.normal(size=(2, 5, 3)), requires_grad=True)
        q = Tensor(g.normal(size=(2, 4, 4)), requires_grad=True)
        assert _graph_nodes(mha(kv, q)) <= 5

    def test_mix_ffn_call(self):
        ffn = MixFFN(3, rng(1))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 6, 3)),
                   requires_grad=True)
        assert _graph_nodes(ffn(x, (3, 2))) <= 4

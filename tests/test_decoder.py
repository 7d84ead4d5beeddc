import numpy as np
import pytest

from scaseg import (ConfigError, DataError, Decoder, DecoderConfig, Encoder,
                    EncoderConfig, RandomSource, ScaStage, SegModel, Tensor,
                    UsageError, cross_entropy, gen_synthetic_dataset,
                    resize_pyramid)


def make_pyramid(seed=0, H=64, W=64, channels=(8, 16, 32, 64), batch=1):
    g = np.random.default_rng(seed)
    feats = tuple(
        Tensor(g.normal(size=(batch, c, H // 2 ** (i + 2), W // 2 ** (i + 2))))
        for i, c in enumerate(channels))
    return feats


def zero_ase_weights(decoder: Decoder):
    for name, p in decoder.ase.named_parameters():
        if "gamma" not in name:
            p.data[...] = 0.0


def make_decoder(seed=0, channels=(8, 16, 32, 64), **kwargs):
    cfg = DecoderConfig(**kwargs)
    return Decoder(channels, cfg, RandomSource(seed)), cfg


def reached_ids(out: Tensor) -> set:
    """ids of every tensor that backward reaches from ``out``."""
    reached, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in reached:
            reached.add(id(node))
            stack.extend(p for p in node._parents if p.requires_grad)
    return reached


class TestResizePyramid:
    def test_desk_scale_all_single_pixel(self):
        r = resize_pyramid(make_pyramid(), (64, 64))
        for t, c in zip(r, (8, 16, 32, 64)):
            assert t.shape == (1, 1, 1, c)
        # R_4 comes from a 2x2 map: bilinear average of the four pixels
        f4 = make_pyramid()[3].data
        assert np.allclose(r[3].data[0, 0, 0, :], f4.mean(axis=(2, 3))[0],
                           atol=1e-12)

    def test_identity_when_source_equals_target(self):
        p = make_pyramid(H=128, W=128)
        r = resize_pyramid(p, (128, 128))
        # F_4 at 128/32 = 4 > 2 = 128/64, so no level is identity here;
        # check the constant-preservation contract instead
        const = tuple(Tensor(np.full(f.shape, 1.5)) for f in p)
        for t in resize_pyramid(const, (128, 128)):
            assert np.allclose(t.data, 1.5, atol=1e-12)

    def test_grid_shapes_scale_with_input(self):
        r = resize_pyramid(make_pyramid(H=128, W=192), (128, 192))
        for t in r:
            assert t.shape[1:3] == (2, 3)


class TestScaStage:
    def test_zero_weights_pass_through(self):
        stage = ScaStage(3, 5, RandomSource(0))
        for name, p in stage.named_parameters():
            if "gamma" not in name:
                p.data[...] = 0.0
        g = np.random.default_rng(0)
        kv = Tensor(g.normal(size=(1, 2, 2, 3)))
        q = Tensor(g.normal(size=(1, 2, 2, 5)))
        s = stage(kv, q)
        assert np.array_equal(s.data, q.data)

    def test_output_channels_follow_query(self):
        stage = ScaStage(8, 16, RandomSource(1), heads=2)
        g = np.random.default_rng(1)
        s = stage(Tensor(g.normal(size=(1, 2, 2, 8))),
                  Tensor(g.normal(size=(1, 2, 2, 16))))
        assert s.shape == (1, 2, 2, 16)

    def test_token_count_mismatch(self):
        from scaseg import ShapeError
        stage = ScaStage(3, 3, RandomSource(2))
        with pytest.raises(ShapeError):
            stage(Tensor(np.zeros((1, 3, 1, 3))),
                  Tensor(np.zeros((1, 2, 2, 3))))

    def test_matches_straight_line_evaluation(self):
        # A = MHA(LN(kv), LN(q)) + q ; S = FFN(LN(A)) + A, evaluated step
        # by step with the stage's own sublayers
        stage = ScaStage(3, 4, RandomSource(3))
        g = np.random.default_rng(2)
        kv = Tensor(g.normal(size=(1, 1, 2, 3)))
        q = Tensor(g.normal(size=(1, 1, 2, 4)))
        s = stage(kv, q)
        a_ref = stage.attn(stage.ln_kv(kv), stage.ln_q(q)).data + q.data
        s_ref = stage.ffn(stage.ln_ffn(Tensor(a_ref))).data + a_ref
        assert np.allclose(s.data, s_ref, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_one_key_is_bit_identical_to_the_full_path(self, heads):
        # over one key the stage skips ln_q, w_q, w_k and the scores; the
        # output and every gradient must equal the full path built from the
        # stage's own sublayers, where the skipped tensors get exactly 0
        stage = ScaStage(6, 4, RandomSource(4), heads=heads)
        g = np.random.default_rng(heads)
        kv = Tensor(g.normal(size=(2, 1, 1, 6)), requires_grad=True)
        q = Tensor(g.normal(size=(2, 1, 1, 4)), requires_grad=True)
        weight = Tensor(g.normal(size=(2, 1, 1, 4)))
        inputs = {"kv": kv, "q": q, **dict(stage.named_parameters())}

        def full(kv, q):
            a = stage.attn(stage.ln_kv(kv), stage.ln_q(q)) + q
            return stage.ffn(stage.ln_ffn(a)) + a

        results = []
        for forward in (stage, full):
            for t in inputs.values():
                t.grad = None
            out = forward(kv, q)
            (out * weight).sum().backward()
            grads = {n: t.grad for n, t in inputs.items()}
            results.append((out.data, grads, stage.attn.last_attention))
        (out, grads, att), (out_ref, grads_ref, att_ref) = results
        assert np.array_equal(out, out_ref)
        skipped = {n for n, gr in grads.items() if gr is None}
        assert skipped == {"ln_q.gamma", "ln_q.beta", "attn.w_q.weight",
                           "attn.w_q.bias", "attn.w_k.weight", "attn.w_k.bias"}
        for n, gr in grads.items():
            ref = grads_ref[n]
            assert np.array_equal(np.zeros_like(ref) if gr is None else gr, ref), n
        assert np.array_equal(att, att_ref)
        assert np.array_equal(att, np.ones((2, heads, 1, 1)))

    def test_more_than_one_key_reaches_the_queries(self):
        stage = ScaStage(6, 4, RandomSource(5), heads=2)
        g = np.random.default_rng(5)
        out = stage(Tensor(g.normal(size=(1, 2, 2, 6))),
                    Tensor(g.normal(size=(1, 2, 2, 4))))
        reached = reached_ids(out)
        assert id(stage.attn.w_q.weight) in reached
        assert id(stage.ln_q.gamma) in reached
        assert stage.attn.last_attention.shape == (1, 2, 4, 4)


class TestAseSuccessive:
    @pytest.mark.parametrize("num_blocks", [1, 4])
    def test_residual_pass_through_is_exact(self, num_blocks):
        dec, _ = make_decoder(num_blocks=num_blocks)
        zero_ase_weights(dec)
        r = resize_pyramid(make_pyramid(H=128, W=128), (128, 128))
        out = dec.ase(r)
        for s, expected in zip(out, r[1:]):
            assert np.array_equal(s.data, expected.data)

    def test_output_shapes(self):
        dec, _ = make_decoder()
        r = resize_pyramid(make_pyramid(H=128, W=192), (128, 192))
        out = dec.ase(r)
        for s, c in zip(out, (16, 32, 64)):
            assert s.shape == (1, 2, 3, c)

    def test_two_blocks_match_unrolled_oracle(self):
        dec, _ = make_decoder(seed=5, num_blocks=2)
        r = resize_pyramid(make_pyramid(seed=5, H=128, W=128),
                           (128, 128))
        # independently unrolled: six stage calls in the successive order
        b1, b2 = dec.ase.blocks
        s2 = b1[0](r[0], r[1])
        s3 = b1[1](s2, r[2])
        s4 = b1[2](s3, r[3])
        t2 = b2[0](r[0], s2)
        t3 = b2[1](t2, s3)
        t4 = b2[2](t3, s4)
        out = dec.ase(r)
        for got, want in zip(out, (t2, t3, t4)):
            assert np.allclose(got.data, want.data, atol=1e-10)


class TestAseVariants:
    def test_self_on_concat_zero_weights_returns_resized(self):
        dec, _ = make_decoder(attention_variant="self-on-concat")
        zero_ase_weights(dec)
        r = resize_pyramid(make_pyramid(H=128, W=128), (128, 128))
        out = dec.ase(r)
        for s, expected in zip(out, r[1:]):
            assert np.array_equal(s.data, expected.data)

    def test_plain_cross_zero_weights_returns_resized(self):
        dec, _ = make_decoder(attention_variant="plain-cross", num_blocks=4)
        zero_ase_weights(dec)
        r = resize_pyramid(make_pyramid(H=128, W=128), (128, 128))
        out = dec.ase(r)
        for s, expected in zip(out, r[1:]):
            assert np.array_equal(s.data, expected.data)

    def test_plain_cross_first_level_coincides_with_successive(self):
        # with one block, the level-2 stage has identical wiring (kv=R_1,
        # q=R_2) in both variants; later levels differ
        succ, _ = make_decoder(seed=9, num_blocks=1)
        plain, _ = make_decoder(seed=9, num_blocks=1,
                                attention_variant="plain-cross")
        r = resize_pyramid(make_pyramid(seed=9, H=128, W=128),
                           (128, 128))
        out_s = succ.ase(r)
        out_p = plain.ase(r)
        assert np.allclose(out_s[0].data, out_p[0].data, atol=1e-12)
        assert not np.allclose(out_s[1].data, out_p[1].data, atol=1e-6)

    def test_unknown_variant_rejected(self):
        from scaseg import ConfigError
        with pytest.raises(ConfigError):
            make_decoder(attention_variant="windowed")


class TestScm:
    def test_eq6_zero_semantics_leaves_projected_feature(self):
        dec, _ = make_decoder(scm_variant="eq6")
        scm = dec.scm[0]
        scm.eval()
        scm.proj_s.conv.weight.data[...] = 0.0
        scm.proj_s.bn.beta.data[...] = 0.0
        scm.proj_s.bn.running_mean.data[...] = 0.0
        f = Tensor(np.random.default_rng(0).normal(size=(1, 16, 8, 8)))
        s = Tensor(np.random.default_rng(1).normal(size=(1, 1, 1, 16)))
        out = scm(f, s)
        expected = scm.proj_f(f)
        assert np.array_equal(out.data, expected.data)

    def test_eq7_zero_semantics_gives_zero(self):
        dec, _ = make_decoder(scm_variant="eq7")
        scm = dec.scm[0]
        scm.eval()
        scm.proj_s.conv.weight.data[...] = 0.0
        scm.proj_s.bn.beta.data[...] = 0.0
        scm.proj_s.bn.running_mean.data[...] = 0.0
        f = Tensor(np.random.default_rng(2).normal(size=(1, 16, 8, 8)))
        s = Tensor(np.random.default_rng(3).normal(size=(1, 1, 1, 16)))
        assert np.array_equal(scm(f, s).data, np.zeros((1, 16, 8, 8)))

    def test_variants_differ_only_in_combination(self):
        g = np.random.default_rng(4)
        f = g.normal(size=(2, 16, 8, 8))
        s = g.normal(size=(2, 1, 1, 16))
        outs = {}
        for variant in ("eq6", "eq7", "eq8"):
            dec, _ = make_decoder(seed=11, scm_variant=variant)
            scm = dec.scm[0]
            scm.eval()
            outs[variant] = scm(Tensor(f), Tensor(s)).data
            fp = scm.proj_f(Tensor(f)).data
            sp = scm.proj_s(
                Tensor(np.broadcast_to(s.reshape(2, 16, 1, 1),
                                       (2, 16, 8, 8)).copy())).data
        assert np.allclose(outs["eq6"], fp * sp + fp, atol=1e-10)
        assert np.allclose(outs["eq7"], fp * sp, atol=1e-10)
        assert np.allclose(outs["eq8"], fp * sp + sp, atol=1e-10)


class TestHeadAndForward:
    def test_end_to_end_logit_shape(self):
        dec, _ = make_decoder(num_classes=5)
        dec.eval()
        out = dec(make_pyramid(batch=2), (64, 64))
        assert out.shape == (2, 5, 64, 64)

    def test_zero_classifier_gives_constant_bias_logits(self):
        dec, _ = make_decoder()
        dec.eval()
        dec.head.classifier.weight.data[...] = 0.0
        dec.head.classifier.bias.data[...] = np.array([1.0, -2.0, 0.5, 3.0])
        out = dec(make_pyramid(), (64, 64)).data
        for k, b in enumerate([1.0, -2.0, 0.5, 3.0]):
            assert np.allclose(out[:, k], b, atol=1e-12)

    def test_forward_is_deterministic(self):
        x = np.random.default_rng(7).uniform(size=(1, 3, 64, 64))
        a = SegModel(EncoderConfig(), DecoderConfig(), seed=3)
        b = SegModel(EncoderConfig(), DecoderConfig(), seed=3)
        a.eval(), b.eval()
        assert np.array_equal(a(Tensor(x)).data, b(Tensor(x)).data)

    def test_f1_bypasses_scm(self):
        # changing the SCM projections must not affect how F_1 reaches the head
        dec, _ = make_decoder()
        dec.eval()
        p = make_pyramid()
        base = dec(p, (64, 64)).data
        for scm in dec.scm:
            scm.proj_f.conv.weight.data[...] = 0.0
            scm.proj_s.conv.weight.data[...] = 0.0
        changed = dec(p, (64, 64)).data
        assert not np.array_equal(base, changed)  # SCM does matter overall

    def test_gradients_flow_to_every_parameter(self):
        # at 128 x 128 every softmax spans four keys; at 64 x 64 the query
        # and key paths are skipped (TestZeroGradientAudit)
        model = SegModel(EncoderConfig(), DecoderConfig(), seed=1)
        model.train()
        x = Tensor(np.random.default_rng(8).uniform(size=(2, 3, 128, 128)))
        mask = np.random.default_rng(9).integers(0, 4, size=(2, 128, 128))
        loss = cross_entropy(model(x), mask)
        # packed gradients are never None, so walk the graph instead: every
        # parameter must be a leaf that backward reaches from the loss
        reached = reached_ids(loss)
        missing = [n for n, p in model.named_parameters() if id(p) not in reached]
        assert missing == []


class TestZeroGradientAudit:
    """The parameters the loss cannot move: the default model on the seed-1
    batch, one backward. A change that kills or revives a parameter fails
    here until the lists are updated. This checks the network's structure,
    not a bound on any value."""

    @staticmethod
    def _backward(size):
        model = SegModel(EncoderConfig(), DecoderConfig(), seed=0).train()
        batch = gen_synthetic_dataset(4, size, size, 4, seed=1)
        loss = cross_entropy(model(Tensor(np.stack([s.image for s in batch]))),
                             np.stack([s.mask for s in batch]))
        reached = reached_ids(loss)
        loss.backward()
        params = dict(model.named_parameters())
        unreached = {n for n, p in params.items() if id(p) not in reached}
        return params, unreached

    def test_64_skips_every_query_and_key_path(self):
        # every stage attends over one key, so queries and keys cannot
        # change the output
        params, unreached = self._backward(64)
        stages = [f"decoder.ase.blocks.{l}.{t}" for l in range(4) for t in range(3)]
        skipped = {f"{s}.{leaf}" for s in stages
                   for leaf in ("ln_q.gamma", "ln_q.beta",
                                "attn.w_q.weight", "attn.w_q.bias",
                                "attn.w_k.weight", "attn.w_k.bias")}
        assert len(skipped) == 72
        assert unreached == skipped
        assert {n for n, p in params.items() if not p.grad.any()} == skipped

    def test_128_reaches_everything_and_names_the_dead(self):
        params, unreached = self._backward(128)
        assert unreached == set()
        top = max(np.abs(p.grad).max() for p in params.values())
        dead = {n for n, p in params.items()
                if np.abs(p.grad).max() < 1e-12 * top}
        # a key bias shifts every score of a query alike, which the softmax
        # cancels; the last stage's level-4 output feeds only a conv whose
        # train-mode batch norm cancels a per-channel constant
        assert dead == ({f"decoder.ase.blocks.{l}.{t}.attn.w_k.bias"
                         for l in range(4) for t in range(3)}
                        | {"decoder.ase.blocks.3.2.ffn.fc2.bias"})


class TestEvalRecordsNoGraph:
    @pytest.mark.parametrize("size", [64, 256])
    def test_eval_forward_has_no_graph_and_same_logits(self, size):
        model = SegModel(EncoderConfig(), DecoderConfig(), seed=4).eval()
        x = Tensor(np.random.default_rng(size).uniform(size=(1, 3, size, size)))
        out = model(x)
        assert out.requires_grad is False and out._parents == ()
        graphed = model.decoder(model.encoder(x), (size, size))
        assert graphed.requires_grad and graphed._parents
        assert np.array_equal(out.data, graphed.data)
        with pytest.raises(UsageError, match="eval-mode SegModel"):
            out.sum().backward()

    def test_failed_eval_forward_leaves_training_graphed(self):
        model = SegModel(EncoderConfig(), DecoderConfig(), seed=5).eval()
        with pytest.raises(DataError):
            model(Tensor(np.zeros((1, 3, 96, 96))))
        model.train()
        g = np.random.default_rng(11)
        x = Tensor(g.uniform(size=(2, 3, 64, 64)))
        loss = cross_entropy(model(x), g.integers(0, 4, size=(2, 64, 64)))
        assert loss._parents
        loss.backward()
        assert np.any(model.flat_grad != 0.0)


class TestDecoderGradcheck:
    def test_sampled_parameters_match_finite_differences(self):
        from scaseg import gradient_check
        model = SegModel(EncoderConfig(), DecoderConfig(), seed=2)
        model.train()
        g = np.random.default_rng(10)
        x = Tensor(g.uniform(size=(1, 3, 64, 64)))
        mask = g.integers(0, 4, size=(1, 64, 64))

        def loss_fn(_p):
            return cross_entropy(model(x), mask)

        # one parameter tensor from each major component
        names = dict(model.named_parameters())
        picks = [
            "encoder.stages.0.0.conv.weight",
            "decoder.ase.blocks.0.0.attn.w_q.weight",
            "decoder.ase.blocks.3.2.ffn.dw.weight",
            "decoder.scm.1.proj_s.conv.weight",
            "decoder.head.classifier.weight",
        ]
        for name in picks:
            err = gradient_check(loss_fn, names[name], eps=1e-4, max_samples=3)
            assert err < 1e-4, f"{name}: {err}"

import math
import weakref

import numpy as np
import pytest

from scaseg import (AdamW, ConfigError, DataError, DecoderConfig,
                    EncoderConfig, SegModel, SyntheticSample, Tensor,
                    TrainConfig, UsageError, cross_entropy, evaluate,
                    gen_synthetic_dataset, log_softmax, miou, poly_lr,
                    train_loop)
from scaseg.data import PALETTE
from scaseg.module import Module


class TestSyntheticData:
    def test_shapes_and_ranges(self):
        samples = gen_synthetic_dataset(5, 64, 64, 4, seed=0)
        assert len(samples) == 5
        for s in samples:
            assert s.image.shape == (3, 64, 64)
            assert s.mask.shape == (64, 64)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.mask.min() >= 0 and s.mask.max() < 4

    def test_deterministic(self):
        a = gen_synthetic_dataset(3, 64, 64, 4, seed=7)
        b = gen_synthetic_dataset(3, 64, 64, 4, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.image, y.image)
            assert np.array_equal(x.mask, y.mask)

    def test_different_seeds_differ(self):
        a = gen_synthetic_dataset(1, 64, 64, 4, seed=0)[0]
        b = gen_synthetic_dataset(1, 64, 64, 4, seed=1)[0]
        assert not np.array_equal(a.mask, b.mask)

    def test_every_class_gets_pixels(self):
        samples = gen_synthetic_dataset(100, 64, 64, 4, seed=3)
        ok = sum(1 for s in samples
                 if (np.bincount(s.mask.ravel(), minlength=4) >= 16).all())
        assert ok >= 99

    def test_image_follows_palette(self):
        s = gen_synthetic_dataset(1, 64, 64, 4, seed=5)[0]
        clean = PALETTE[s.mask].transpose(2, 0, 1)
        # noise is clipped, so deviations stay within a few sigma
        assert np.abs(s.image - clean).max() < 0.3

    def test_class_count_limits(self):
        with pytest.raises(ConfigError):
            gen_synthetic_dataset(1, 64, 64, 1, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic_dataset(1, 64, 64, 13, seed=0)
        with pytest.raises(ConfigError):
            gen_synthetic_dataset(1, 60, 64, 4, seed=0)
        # at 12 classes the third 64x64 mask of seed 0 leaves a class under
        # 16 pixels in all 100 draws
        with pytest.raises(ConfigError, match="12 classes .* 64x64"):
            gen_synthetic_dataset(3, 64, 64, 12, seed=0)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for K in (2, 4, 7):
            logits = Tensor(np.zeros((2, K, 4, 4)))
            mask = np.random.default_rng(0).integers(0, K, size=(2, 4, 4))
            assert abs(cross_entropy(logits, mask).item() - math.log(K)) < 1e-12

    def test_confident_correct_prediction_is_near_zero(self):
        mask = np.random.default_rng(1).integers(0, 3, size=(1, 4, 4))
        logits = np.zeros((1, 3, 4, 4))
        np.put_along_axis(logits, mask[:, None], 50.0, axis=1)
        assert cross_entropy(Tensor(logits), mask).item() < 1e-20

    def test_matches_per_pixel_loop_oracle(self):
        g = np.random.default_rng(2)
        logits = g.normal(size=(2, 5, 3, 3))
        mask = g.integers(0, 5, size=(2, 3, 3))
        total = 0.0
        for b in range(2):
            for y in range(3):
                for x in range(3):
                    z = logits[b, :, y, x]
                    p = np.exp(z - z.max())
                    p /= p.sum()
                    total -= math.log(p[mask[b, y, x]])
        expected = total / (2 * 3 * 3)
        assert abs(cross_entropy(Tensor(logits), mask).item() - expected) < 1e-10

    def test_bad_labels_rejected(self):
        logits = Tensor(np.zeros((1, 3, 2, 2)))
        with pytest.raises(DataError):
            cross_entropy(logits, np.full((1, 2, 2), 3))
        with pytest.raises(DataError):
            cross_entropy(logits, np.full((1, 2, 2), -1))
        with pytest.raises(DataError):
            cross_entropy(logits, np.zeros((1, 4, 4), dtype=int))

    def test_gradient_matches_softmax_minus_onehot(self):
        g = np.random.default_rng(3)
        for (B, K, H, W), scale in (((1, 3, 2, 2), 1.0), ((2, 4, 3, 5), 3.0)):
            logits = Tensor(g.normal(size=(B, K, H, W)), requires_grad=True)
            mask = g.integers(0, K, size=(B, H, W))
            cross_entropy(logits, mask).backward()
            z = logits.data
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            onehot = np.zeros_like(z)
            np.put_along_axis(onehot, mask[:, None], 1.0, axis=1)
            assert np.allclose(logits.grad, (p - onehot) / (B * H * W), atol=1e-12)
            # an upstream factor scales the gradient
            unscaled = logits.grad.copy()  # zero_grad zeroes in place
            logits.zero_grad()
            (cross_entropy(logits, mask) * scale).backward()
            np.testing.assert_allclose(logits.grad, scale * unscaled, rtol=1e-14)

    def test_one_node_equals_composite_bit_for_bit(self):
        # log_softmax, a one-hot product, a sum and a 1/n scale, as separate
        # nodes: the one-node loss must give the same bits and one parent
        g = np.random.default_rng(4)
        B, K, H, W = 2, 4, 3, 5
        z = g.normal(size=(B, K, H, W))
        mask = g.integers(0, K, size=(B, H, W))
        onehot = np.zeros_like(z)
        np.put_along_axis(onehot, mask[:, None], 1.0, axis=1)
        ref_logits = Tensor(z, requires_grad=True)
        ref = (-(log_softmax(ref_logits, axis=1) * Tensor(onehot)).sum()
               * (1.0 / (B * H * W)))
        ref.backward()
        logits = Tensor(z, requires_grad=True)
        loss = cross_entropy(logits, mask)
        loss.backward()
        assert np.array_equal(loss.data, ref.data)
        assert np.array_equal(logits.grad, ref_logits.grad)
        assert len(loss._parents) == 1 and loss._parents[0] is logits


class TestPolyLr:
    def test_endpoints_and_midpoint(self):
        cfg = TrainConfig(iterations=100, base_lr=0.1)
        assert poly_lr(0, cfg) == 0.1
        assert abs(poly_lr(50, cfg) - 0.05) < 1e-15
        assert abs(poly_lr(99, cfg) - 0.001) < 1e-15

    def test_out_of_range_iteration(self):
        cfg = TrainConfig(iterations=10)
        with pytest.raises(UsageError):
            poly_lr(10, cfg)
        with pytest.raises(UsageError):
            poly_lr(-1, cfg)


def packed(**arrays):
    """Named parameters holding ``arrays``, packed as a model packs its own;
    their gradients start at zero."""
    module = Module()
    for name, a in arrays.items():
        setattr(module, name, Tensor(np.asarray(a, dtype=float), requires_grad=True))
    module.pack_parameters()
    return list(module.named_parameters())


class TestAdamW:
    def test_zero_gradient_without_decay_leaves_param(self):
        [(_, p)] = packed(p=[1.0, -2.0])
        p.grad[...] = 0.0
        opt = AdamW([("p", p)], weight_decay=0.0)
        opt.step(0.1)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_size_is_about_lr_times_sign(self):
        [(_, p)] = packed(p=[0.0, 0.0])
        p.grad[...] = [3.0, -0.5]
        AdamW([("p", p)], weight_decay=0.0).step(0.01)
        # after bias correction the first update is lr * g/(|g| + eps)
        assert np.allclose(p.data, [-0.01, 0.01], atol=1e-6)

    def test_decay_alone_is_geometric(self):
        [(_, p)] = packed(p=[4.0])
        opt = AdamW([("p", p)], weight_decay=0.5)
        for _ in range(3):
            p.grad[...] = 0.0
            opt.step(0.1)
        assert abs(p.data[0] - 4.0 * (1 - 0.1 * 0.5) ** 3) < 1e-12

    def test_constant_gradient_two_steps_match_hand_rollout(self):
        g = np.array([2.0])
        [(_, p)] = packed(p=[1.0])
        opt = AdamW([("p", p)], weight_decay=0.0)
        x = 1.0
        m = v = 0.0
        for t in (1, 2):
            p.grad[...] = g
            opt.step(0.01)
            m = 0.9 * m + 0.1 * g[0]
            v = 0.999 * v + 0.001 * g[0] ** 2
            x -= 0.01 * (m / (1 - 0.9 ** t)) / (
                math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert abs(p.data[0] - x) < 1e-12

    def test_non_finite_gradient_raises(self):
        from scaseg import NumericalError
        [(_, p)] = packed(p=[1.0])
        p.grad[...] = np.nan
        with pytest.raises(NumericalError, match="p"):
            AdamW([("p", p)]).step(0.1)

    @staticmethod
    def _three_params():
        g = np.random.default_rng(7)
        return packed(**{name: g.normal(size=shape) for name, shape in
                         (("a", (3, 4)), ("b", (5,)), ("c", (2, 1, 3, 3)))})

    @staticmethod
    def _block_params():
        # more than one block: "b" straddles the first block edge and the
        # final block is short
        from scaseg.train import ADAM_BLOCK
        g = np.random.default_rng(9)
        return packed(a=g.normal(size=ADAM_BLOCK - 5), b=g.normal(size=(3, 7)),
                      c=g.normal(size=ADAM_BLOCK // 2 + 3))

    @staticmethod
    def _assert_matches_per_tensor_reference(params):
        from scaseg.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS
        ref = [p.data.copy() for _, p in params]
        m = [np.zeros_like(r) for r in ref]
        v = [np.zeros_like(r) for r in ref]
        opt = AdamW(params, weight_decay=0.05)
        g = np.random.default_rng(8)
        for t in (1, 2, 3):
            lr = 0.01 / t
            grads = [g.normal(size=r.shape) for r in ref]
            grads[1] = None  # "b" got no gradient this step
            for (_, p), grad in zip(params, grads):
                p.grad[...] = 0.0 if grad is None else grad
            opt.step(lr)
            bc1 = 1.0 - ADAM_BETA1 ** t
            bc2 = 1.0 - ADAM_BETA2 ** t
            for i, grad in enumerate(grads):
                grad = np.zeros_like(ref[i]) if grad is None else grad
                ref[i] -= lr * 0.05 * ref[i]
                m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * grad
                v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * grad * grad
                ref[i] -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + ADAM_EPS)
            for r, (_, p) in zip(ref, params):
                assert np.array_equal(p.data, r)

    def test_matches_per_tensor_reference_bit_for_bit(self):
        self._assert_matches_per_tensor_reference(self._three_params())

    def test_matches_per_tensor_reference_across_blocks(self):
        self._assert_matches_per_tensor_reference(self._block_params())

    @staticmethod
    def _assert_nan_leaves_every_parameter_unchanged(params, bad, index):
        from scaseg import NumericalError
        opt = AdamW(params)
        for _, p in params:
            p.grad[...] = 1.0
        dict(params)[bad].grad.reshape(-1)[index] = np.nan
        before = [p.data.copy() for _, p in params]
        with pytest.raises(NumericalError, match=f"'{bad}'"):
            opt.step(0.1)
        for b, (_, p) in zip(before, params):
            assert np.array_equal(p.data, b)

    def test_non_finite_gradient_leaves_every_parameter_unchanged(self):
        self._assert_nan_leaves_every_parameter_unchanged(
            self._three_params(), "b", 2)

    def test_non_finite_gradient_in_last_block(self):
        self._assert_nan_leaves_every_parameter_unchanged(
            self._block_params(), "c", -1)

    def test_step_keeps_the_gradient(self):
        params = self._block_params()
        for i, (_, p) in enumerate(params):
            p.grad[...] = i + 0.5
        AdamW(params).step(0.1)
        for i, (_, p) in enumerate(params):
            assert np.all(p.grad == i + 0.5)

    def test_unpacked_or_reordered_parameters_are_refused(self):
        loose = [("p", Tensor(np.zeros(2), requires_grad=True))]
        with pytest.raises(UsageError, match="pack_parameters"):
            AdamW(loose)
        with pytest.raises(UsageError, match="pack_parameters"):
            AdamW(self._three_params()[::-1])
        with pytest.raises(UsageError, match="pack_parameters"):
            AdamW(self._three_params()[:2])

    def test_step_after_load_state_starts_from_loaded_values(self):
        model, _, _, _ = tiny_setup(seed=0)
        opt = AdamW(model.named_parameters())
        loaded, _, _, _ = tiny_setup(seed=99)
        model.load_state(loaded.state())
        ref_opt = AdamW(loaded.named_parameters())
        for (_, p), (_, q) in zip(model.named_parameters(),
                                  loaded.named_parameters()):
            p.grad[...] = 0.5
            q.grad[...] = 0.5
        opt.step(0.1)
        ref_opt.step(0.1)
        for (_, p), (_, q) in zip(model.named_parameters(),
                                  loaded.named_parameters()):
            assert np.array_equal(p.data, q.data)

    def test_gradient_check_keeps_parameter_packed(self):
        # a finite-difference probe must not detach the probed parameter
        # from the model's buffers, so AdamW still updates it
        from scaseg import gradient_check
        probed, train_set, _, _ = tiny_setup()
        fresh, _, _, _ = tiny_setup()
        image, mask = Tensor(train_set[0].image[None]), train_set[0].mask[None]
        name, param = list(probed.named_parameters())[5]
        optimizers = [AdamW(m.named_parameters()) for m in (probed, fresh)]
        gradient_check(lambda _p: cross_entropy(probed(image), mask), param,
                       max_samples=2)
        assert np.shares_memory(param.grad, probed.flat_grad)
        for model, opt in zip((probed, fresh), optimizers):
            model.zero_grad()
            cross_entropy(model(image), mask).backward()
            opt.step(0.1)
        assert np.array_equal(param.data, dict(fresh.named_parameters())[name].data)
        assert np.array_equal(probed.flat_data, fresh.flat_data)


class TestMiou:
    def test_perfect_prediction(self):
        mask = np.random.default_rng(0).integers(0, 4, size=(8, 8))
        ious, mean = miou(mask, mask, 4)
        assert mean == 1.0
        assert all(v == 1.0 for v in ious if v is not None)

    def test_counting_oracle_on_thirds(self):
        # class 1: intersection {cell 1}, union {cells 0,1,2} -> 1/3
        # class 0: pred {cell 2}, true {cell 0} -> no overlap -> 0
        pred = np.array([[1, 1, 0]])
        true = np.array([[0, 1, 1]])
        ious, mean = miou(pred, true, 2)
        assert ious == [0.0, pytest.approx(1 / 3)]
        assert mean == pytest.approx(1 / 6)

    def test_absent_class_is_excluded(self):
        pred = np.zeros((4, 4), dtype=int)
        true = np.zeros((4, 4), dtype=int)
        ious, mean = miou(pred, true, 3)
        assert ious == [1.0, None, None]
        assert mean == 1.0

    def test_symmetric_in_arguments(self):
        g = np.random.default_rng(4)
        a = g.integers(0, 3, size=(16, 16))
        b = g.integers(0, 3, size=(16, 16))
        assert miou(a, b, 3)[1] == miou(b, a, 3)[1]

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            miou(np.zeros((2, 2), int), np.zeros((3, 3), int), 2)

    def test_matches_per_class_loop_reference(self):
        # batched maps; class 4 only predicted, class 5 absent from both
        g = np.random.default_rng(6)
        pred = g.integers(0, 5, size=(2, 7, 9))
        true = g.integers(0, 4, size=(2, 7, 9))
        ref = []
        for c in range(6):
            p, t = pred == c, true == c
            union = np.logical_or(p, t).sum()
            ref.append(None if union == 0
                       else float(np.logical_and(p, t).sum() / union))
        ious, mean = miou(pred, true, 6)
        assert ious == ref
        assert mean == float(np.mean([v for v in ref if v is not None]))


class FixedLogits(Module):
    """Stand-in model returning the given logits, one array per call."""

    def __init__(self, logits):
        super().__init__()
        self.queue = list(logits)

    def __call__(self, x):
        return Tensor(self.queue.pop(0))


class TestEvaluate:
    def test_pools_counts_over_samples_as_miou_does(self):
        # class 3 is never true and never predicted, so it is excluded
        g = np.random.default_rng(5)
        K, H, W = 4, 5, 6
        logits = [g.normal(size=(1, K, H, W)) for _ in range(3)]
        for z in logits:
            z[:, 3] = -10.0
        masks = [g.integers(0, 3, size=(H, W)) for _ in range(3)]
        samples = [SyntheticSample(np.zeros((3, H, W)), m) for m in masks]
        preds = [z.argmax(axis=1)[0] for z in logits]
        expected = miou(np.concatenate(preds), np.concatenate(masks), K)[1]
        assert evaluate(FixedLogits(logits), samples, K) == expected
        # pooled counts, not a mean of per-sample scores
        per_sample = np.mean([miou(p, m, K)[1] for p, m in zip(preds, masks)])
        assert expected != per_sample


def tiny_setup(seed=0, iterations=4):
    enc = EncoderConfig(channels=(4, 8, 12, 16))
    dec = DecoderConfig(num_blocks=1, head_channels=8)
    cfg = TrainConfig(iterations=iterations, batch_size=2, seed=seed,
                      train_samples=6, val_samples=2, eval_interval=2)
    model = SegModel(enc, dec, seed=seed)
    train_set = gen_synthetic_dataset(cfg.train_samples, 64, 64, 4, cfg.seed)
    val_set = gen_synthetic_dataset(cfg.val_samples, 64, 64, 4, cfg.seed + 1)
    return model, train_set, val_set, cfg


class TestTrainLoop:
    def test_rows_and_metrics_file(self, tmp_path):
        model, tr, va, cfg = tiny_setup()
        path = tmp_path / "metrics.csv"
        rows = train_loop(model, tr, va, cfg, metrics_path=path)
        assert rows[0] == "iter,lr,loss,miou"
        assert len(rows) == cfg.iterations + 1
        # eval column filled exactly at eval_interval boundaries
        filled = [r.split(",")[3] != "" for r in rows[1:]]
        assert filled == [False, True, False, True]
        assert path.read_text().splitlines() == rows

    def test_checkpoint_saved_once_per_evaluation(self, tmp_path, monkeypatch):
        import scaseg.train as train_mod
        saved = []
        real_save = train_mod.save_checkpoint

        def counting_save(path, state):
            saved.append(path)
            real_save(path, state)
        monkeypatch.setattr(train_mod, "save_checkpoint", counting_save)
        model, tr, va, cfg = tiny_setup()  # 4 iterations, eval_interval 2
        train_loop(model, tr, va, cfg, checkpoint_path=tmp_path / "m.ckpt")
        assert len(saved) == 2

    def test_step_graph_is_freed_before_the_next_forward(self, monkeypatch):
        # Tensor has no __weakref__ slot; the output's array stands for it
        refs, alive = [], []
        forward = SegModel.__call__

        def spy(model, image):
            if not model.training:
                return forward(model, image)
            alive.extend(r() is not None for r in refs)
            refs.clear()
            out = forward(model, image)
            refs.append(weakref.ref(out.data))
            return out
        monkeypatch.setattr(SegModel, "__call__", spy)
        model, tr, va, cfg = tiny_setup(iterations=3)
        train_loop(model, tr, va, cfg)
        assert alive == [False, False]

    def test_identical_seeds_give_identical_rows(self):
        runs = []
        for _ in range(2):
            model, tr, va, cfg = tiny_setup(seed=3)
            runs.append(train_loop(model, tr, va, cfg))
        assert runs[0] == runs[1]

    def test_checkpoint_roundtrip_preserves_predictions(self, tmp_path):
        from scaseg import load_checkpoint
        model, tr, va, cfg = tiny_setup()
        ckpt = tmp_path / "model.ckpt"
        train_loop(model, tr, va, cfg, checkpoint_path=ckpt)
        model.eval()
        x = Tensor(va[0].image[None])
        expected = model(x).data

        fresh, _, _, _ = tiny_setup(seed=99)
        fresh.load_state(load_checkpoint(ckpt))
        fresh.eval()
        assert np.allclose(fresh(x).data, expected, atol=1e-12)

    def test_partial_checkpoint_is_rejected(self, tmp_path):
        from scaseg import load_checkpoint, save_checkpoint
        model, _, _, _ = tiny_setup()
        ckpt = tmp_path / "partial.ckpt"
        save_checkpoint(ckpt, model.state()[:1])
        fresh, _, _, _ = tiny_setup(seed=99)
        before = [t.data.copy() for _, t in fresh.state()]
        with pytest.raises(DataError, match="lacks"):
            fresh.load_state(load_checkpoint(ckpt))
        # a rejected checkpoint leaves the model as it was
        for b, (_, t) in zip(before, fresh.state()):
            assert np.array_equal(b, t.data)

    def test_evaluate_restores_training_mode(self):
        model, tr, va, cfg = tiny_setup()
        model.train()
        evaluate(model, va[:1], 4)
        assert model.training
        model.eval()
        evaluate(model, va[:1], 4)
        assert not model.training

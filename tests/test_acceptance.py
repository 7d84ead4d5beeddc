"""Acceptance gate: one test per criterion, each reporting a single
PASS/FAIL line in the pytest terminal summary.

Run with ``pytest tests/test_acceptance.py -v``. The learning criterion
trains the full default configuration, so the whole module takes several
minutes single-threaded.
"""

import math
import time

import numpy as np

from scaseg import (Decoder, DecoderConfig, Encoder, EncoderConfig,
                    FullConfig, MultiHeadAttention, RandomSource, SegModel,
                    Tensor, TrainConfig, cost_report, cross_entropy, evaluate,
                    gen_synthetic_dataset, gradient_check, resize_pyramid,
                    train_loop)
from scaseg.cli import main as cli_main

from conftest import ACCEPTANCE_LINES
from test_costmodel import CONFIGS, counted_macs, model_param_count


def check(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    ACCEPTANCE_LINES.append(f"{status} criterion {num:2d}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def info(text):
    ACCEPTANCE_LINES.append(f"INFO {text}")


def test_criterion_01_gradient_integrity():
    # every parameter tensor of the default desk-scale model, double
    # precision, central differences at eps 1e-4; a fixed random subset of
    # elements per tensor keeps the run inside the 10-minute budget
    t0 = time.time()
    model = SegModel(EncoderConfig(), DecoderConfig(), seed=0)
    model.train()
    sample = gen_synthetic_dataset(1, 64, 64, 4, seed=0)[0]
    image = Tensor(sample.image[None])
    mask = sample.mask[None]

    def loss_fn(_p):
        return cross_entropy(model(image), mask)

    worst = 0.0
    worst_name = ""
    count = 0
    for name, param in model.named_parameters():
        err = gradient_check(loss_fn, param, eps=1e-4, max_samples=2,
                             sample_seed=0)
        count += 1
        if err > worst:
            worst, worst_name = err, name
    wall = time.time() - t0
    check(1, "finite-difference gradients agree for every parameter tensor",
          worst < 1e-4 and wall < 600,
          f"{count} tensors, max rel err {worst:.2e} at {worst_name}, "
          f"{wall:.0f}s")


def test_criterion_02_residual_pass_through():
    ok = True
    details = []
    for variant in ("successive", "plain-cross"):
        for L in (1, 4):
            dec = Decoder((8, 16, 32, 64),
                          DecoderConfig(num_blocks=L,
                                        attention_variant=variant),
                          RandomSource(0))
            for name, p in dec.ase.named_parameters():
                if "gamma" not in name:
                    p.data[...] = 0.0
            g = np.random.default_rng(L)
            from scaseg.encoder import FeaturePyramid
            feats = tuple(
                Tensor(g.normal(size=(1, c, 128 // 2 ** (i + 2),
                                      128 // 2 ** (i + 2))))
                for i, c in enumerate((8, 16, 32, 64)))
            r = resize_pyramid(FeaturePyramid(feats, (128, 128)))
            exact = all(np.array_equal(s.data, e.data)
                        for s, e in zip(dec.ase(r), r.tokens()[1:]))
            ok = ok and exact
            details.append(f"{variant} L={L}: {'exact' if exact else 'DIFF'}")
    check(2, "zero-weight attention blocks pass features through bit-exactly",
          ok, "; ".join(details))


def test_criterion_03_attention_normalization():
    worst_sum = 0.0
    for seed in range(50):
        mha = MultiHeadAttention(6, 8, RandomSource(seed), heads=2)
        g = np.random.default_rng(seed)
        mha(Tensor(g.normal(size=(5, 6))), Tensor(g.normal(size=(7, 8))))
        worst_sum = max(worst_sum,
                        np.abs(mha.last_attention.sum(axis=-1) - 1.0).max())

    # 2-token toy against a straight-line scalar evaluation
    d = 2
    mha = MultiHeadAttention(d, d, RandomSource(2), heads=1)
    gen = np.random.default_rng(4)
    for layer in (mha.w_q, mha.w_k, mha.w_v, mha.w_o):
        layer.weight.data[...] = gen.normal(size=(d, d))
        layer.bias.data[...] = gen.normal(size=d)
    kv = gen.normal(size=(2, d))
    qs = gen.normal(size=(2, d))
    Q = qs @ mha.w_q.weight.data + mha.w_q.bias.data
    K = kv @ mha.w_k.weight.data + mha.w_k.bias.data
    V = kv @ mha.w_v.weight.data + mha.w_v.bias.data
    expected = np.zeros((2, d))
    for i in range(2):
        scores = np.array([Q[i] @ K[j] / math.sqrt(d) for j in range(2)])
        e = np.exp(scores - scores.max())
        att = e / e.sum()
        ctx = sum(att[j] * V[j] for j in range(2))
        expected[i] = ctx @ mha.w_o.weight.data + mha.w_o.bias.data
    oracle_err = np.abs(mha(Tensor(kv), Tensor(qs)).data - expected).max()

    check(3, "attention rows sum to 1 and match the explicit-loop oracle",
          worst_sum < 1e-6 and oracle_err < 1e-10,
          f"max |row sum - 1| {worst_sum:.1e} over 50 seeds, "
          f"oracle err {oracle_err:.1e}")


def test_criterion_04_combiner_variants_cost_identical():
    reports = {v: cost_report(FullConfig(decoder=DecoderConfig(scm_variant=v)))
               for v in ("eq6", "eq7", "eq8")}
    params = {r.params for r in reports.values()}
    macs = {r.macs for r in reports.values()}
    walker_ok = all(
        reports[v].params == model_param_count(
            FullConfig(decoder=DecoderConfig(scm_variant=v)))
        for v in reports)
    check(4, "combiner variants have identical analytic costs, confirmed by "
             "parameter enumeration",
          len(params) == 1 and len(macs) == 1 and walker_ok,
          f"params {params.pop()}, macs {macs.pop()}")


def test_criterion_05_attention_variant_cost_ordering():
    ok = True
    details = []
    for label, enc in (("desk", EncoderConfig()),
                       ("512", EncoderConfig(channels=(32, 64, 160, 256),
                                             height=512, width=512))):
        r = {v: cost_report(FullConfig(
                encoder=enc, decoder=DecoderConfig(attention_variant=v)))
             for v in ("successive", "plain-cross", "self-on-concat")}
        same = (r["successive"].params == r["plain-cross"].params
                and r["successive"].macs == r["plain-cross"].macs)
        heavier = (r["self-on-concat"].params > r["successive"].params
                   and r["self-on-concat"].macs > r["successive"].macs)
        ok = ok and same and heavier
        details.append(
            f"{label}: concat {r['self-on-concat'].params} > "
            f"successive {r['successive'].params} params")
    check(5, "concat-attention variant strictly heavier; successive equals "
             "plain-cross", ok, "; ".join(details))


def test_criterion_06_decoder_cost_affine_in_depth():
    p, m = zip(*(cost_report(FullConfig(decoder=DecoderConfig(num_blocks=l)))
                 .subtotal("decoder.") for l in range(1, 6)))
    dp = {b - a for a, b in zip(p, p[1:])}
    dm = {b - a for a, b in zip(m, m[1:])}
    check(6, "decoder params and MACs are exactly affine in block count",
          len(dp) == 1 and len(dm) == 1,
          f"per-block deltas: {sorted(dp)} params, {sorted(dm)} MACs")


def test_criterion_07_shape_contract():
    ok = True
    details = []
    for H in (64, 128, 512):
        W = H
        model = SegModel(EncoderConfig(height=H, width=W), DecoderConfig(),
                         seed=0)
        model.eval()
        x = Tensor(np.zeros((1, 3, H, W)))
        pyramid = model.encoder(x)
        feat_ok = all(f.shape[2:] == (H // 2 ** (i + 2), W // 2 ** (i + 2))
                      for i, f in enumerate(pyramid))
        resized = resize_pyramid(pyramid)
        token_ok = resized.grid == (H // 64, W // 64)
        logits_ok = model.decoder(pyramid).shape == (1, 4, H, W)
        ok = ok and feat_ok and token_ok and logits_ok
        details.append(f"H={H}: {'ok' if feat_ok and token_ok and logits_ok else 'BAD'}")
    check(7, "feature/token/logit shapes match the contract for "
             "H in {64, 128, 512}", ok, "; ".join(details))


def test_criterion_08_cost_model_oracle_equivalence(monkeypatch):
    walker_ok = all(cost_report(cfg).params == model_param_count(cfg)
                    for cfg in CONFIGS)

    # instrumented primitives (convolutions, linear maps, attention scores
    # and values, the depthwise conv on tokens) count multiply-accumulates
    # position by position during a real forward pass
    cfg = FullConfig(encoder=EncoderConfig(channels=(2, 3, 4, 5)),
                     decoder=DecoderConfig(num_blocks=1, head_channels=4,
                                           num_classes=2))
    counted = counted_macs(cfg, monkeypatch)
    expected = cost_report(cfg).macs
    check(8, "analytic costs equal serialized-parameter and instrumented "
             "loop oracles exactly",
          walker_ok and counted == expected,
          f"{len(CONFIGS)} configs; MACs {counted} == {expected}")


def test_criterion_09_desk_scale_learning():
    t0 = time.time()
    cfg = TrainConfig()  # defaults: 2000 iters, batch 4, seed 0
    model = SegModel(EncoderConfig(), DecoderConfig(), seed=cfg.seed)
    train_set = gen_synthetic_dataset(cfg.train_samples, 64, 64, 4, cfg.seed)
    val_set = gen_synthetic_dataset(cfg.val_samples, 64, 64, 4, cfg.seed + 1)
    rows = train_loop(model, train_set, val_set, cfg)
    final_miou = evaluate(model, val_set, 4)
    wall = time.time() - t0

    loss = np.array([float(r.split(",")[2]) for r in rows[1:]])
    initial_ok = abs(loss[0] - math.log(4)) <= 0.2
    smoothed = np.array([loss[max(0, t - 99):t + 1].mean()
                         for t in range(len(loss))])
    uptick = np.diff(smoothed[200:]).max()
    mono_ok = uptick <= 1e-12

    check(9, "default toy task learns: mIoU >= 0.85, initial loss ~ ln 4, "
             "smoothed loss non-increasing, < 30 min",
          final_miou >= 0.85 and initial_ok and mono_ok and wall < 1800,
          f"mIoU {final_miou:.4f}, initial loss {loss[0]:.4f} "
          f"(ln4 {math.log(4):.4f}), max smoothed uptick {uptick:.1e}, "
          f"{wall:.0f}s")

    # variant trend at reduced iteration count (reported, not asserted)
    short = TrainConfig(iterations=500)
    for variant in ("successive", "plain-cross", "self-on-concat"):
        dec = DecoderConfig(attention_variant=variant)
        m = SegModel(EncoderConfig(), dec, seed=short.seed)
        train_loop(m, train_set, val_set, short)
        info(f"trend attention={variant}: "
             f"mIoU {evaluate(m, val_set, 4):.4f} at 500 iters")
    for variant in ("eq6", "eq7", "eq8"):
        dec = DecoderConfig(scm_variant=variant)
        m = SegModel(EncoderConfig(), dec, seed=short.seed)
        train_loop(m, train_set, val_set, short)
        info(f"trend combiner={variant}: "
             f"mIoU {evaluate(m, val_set, 4):.4f} at 500 iters")


def test_criterion_10_training_determinism(tmp_path, capsys):
    args = ["--set", "iterations=200", "--set", "eval_interval=100"]
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["train", "--out", str(out), "--seed", "0"] + args) == 0
        outputs.append((out / "metrics.csv").read_bytes())
    identical = outputs[0] == outputs[1]
    check(10, "same-seed training runs produce byte-identical metrics CSVs",
          identical, f"{len(outputs[0])} bytes each")

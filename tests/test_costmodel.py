import numpy as np
import pytest

from scaseg import (CostReport, DecoderConfig, EncoderConfig, FullConfig,
                    SegModel, Tensor, ablation_table, cost_report)
from scaseg import layers as layers_mod
from scaseg.errors import ConfigError


def model_param_count(cfg: FullConfig) -> int:
    """Independent oracle: instantiate the live model and enumerate the
    sizes of every parameter tensor."""
    model = SegModel(cfg.encoder, cfg.decoder, seed=0)
    return sum(p.data.size for _, p in model.named_parameters())


def checkpoint_param_count(cfg: FullConfig, tmp_path) -> int:
    """Round-trip the parameters through the binary checkpoint format and
    count what comes back out."""
    from scaseg import load_checkpoint, save_checkpoint
    model = SegModel(cfg.encoder, cfg.decoder, seed=0)
    path = tmp_path / "params.ckpt"
    save_checkpoint(path, list(model.named_parameters()))
    loaded = load_checkpoint(path)
    return sum(np.asarray(t.data).size for _, t in loaded)


def desk(**dec) -> FullConfig:
    return FullConfig(decoder=DecoderConfig(**dec))


def full_scale(**dec) -> FullConfig:
    return FullConfig(encoder=EncoderConfig(channels=(32, 64, 160, 256),
                                            height=512, width=512),
                      decoder=DecoderConfig(**dec))


class TestSingleLayerFormulas:
    def test_conv1x1_worked_example(self):
        # 8->16 1x1 conv on a 4x4 map: 8*16 weights + 16 biases = 144
        # params, 8*16*16 = 2048 MACs
        report = CostReport()
        from scaseg.costmodel import _conv
        _conv(report, "c", 8, 16, 1, 4, 4)
        assert report.params == 144
        assert report.macs == 2048

    def test_conv3x3_grouped(self):
        from scaseg.costmodel import _conv
        report = CostReport()
        _conv(report, "dw", 1, 8, 3, 2, 2)
        assert report.params == 8 * 9 + 8
        assert report.macs == 8 * 9 * 4

    def test_norms_have_params_but_no_macs(self):
        from scaseg.costmodel import _norm
        report = CostReport()
        _norm(report, "bn", 16)
        _norm(report, "ln", 16)
        assert report.params == 64
        assert report.macs == 0

    def test_attention_macs(self):
        from scaseg.costmodel import _attention
        report = CostReport()
        _attention(report, "a", 8, 16, 4, 6)
        proj = 16 * 16 * 4 + 8 * 16 * 6 + 8 * 16 * 6 + 16 * 16 * 4
        assert report.macs == proj + 2 * 4 * 6 * 16
        assert report.params == (16 * 16 + 16) * 2 + (8 * 16 + 16) * 2


CONFIGS = [
    desk(),
    desk(num_blocks=1),
    desk(num_blocks=5),
    desk(attention_variant="plain-cross"),
    desk(attention_variant="self-on-concat"),
    desk(scm_variant="eq7"),
    desk(head_channels=48, num_classes=7),
    desk(heads=(1, 2, 4)),
    desk(attention_variant="self-on-concat", heads=(4, 1, 1)),
    FullConfig(encoder=EncoderConfig(channels=(4, 8, 12, 16)),
               decoder=DecoderConfig(num_blocks=2, heads=(2, 2, 2))),
]


class TestParamOracle:
    @pytest.mark.parametrize("idx", range(len(CONFIGS)))
    def test_matches_live_model_exactly(self, idx):
        cfg = CONFIGS[idx]
        assert cost_report(cfg).params == model_param_count(cfg)

    @pytest.mark.parametrize("idx", range(len(CONFIGS)))
    def test_entries_are_module_paths(self, idx):
        # every parameter-owning cost line names the module that owns the
        # parameters, with exactly their element count
        cfg = CONFIGS[idx]
        model = SegModel(cfg.encoder, cfg.decoder, seed=0)
        owners = {}
        for name, p in model.named_parameters():
            owner = name.rsplit(".", 1)[0]
            owners[owner] = owners.get(owner, 0) + p.data.size
        report = cost_report(cfg)
        assert owners == {path: params for path, params, _ in report.entries
                          if params > 0}

    def test_matches_serialized_enumeration(self, tmp_path):
        for cfg in CONFIGS[:3]:
            assert cost_report(cfg).params == checkpoint_param_count(
                cfg, tmp_path)


def counted_macs(cfg: FullConfig, monkeypatch, H: int | None = None) -> int:
    """Run a real eval-mode forward pass at H x H with every primitive that
    multiplies and accumulates instrumented, counting MACs position by
    position: convolutions (alone or fused with batch norm), linear maps,
    attention scores and values, and the depthwise conv on tokens."""
    counter = [0]
    real_conv, real_linear = layers_mod.conv2d, layers_mod.linear
    real_conv_norm = layers_mod.conv_norm
    real_attention, real_depthwise = (layers_mod.attention,
                                      layers_mod.depthwise_tokens)

    def count_conv(w, out):
        c_out, c_in, kh, kw = w.shape
        _, _, h_out, w_out = out.shape
        for _ in range(h_out):
            for _ in range(w_out):
                for _ in range(c_out):
                    counter[0] += c_in * kh * kw

    def conv2d(x, w, b, stride=1):
        out = real_conv(x, w, b, stride=stride)
        count_conv(w, out)
        return out

    def conv_norm(x, w, b, gamma, beta, stride, eps, stats=None, relu=False):
        result = real_conv_norm(x, w, b, gamma, beta, stride, eps, stats, relu)
        count_conv(w, result[0])
        return result

    def linear(x, w, b):
        out = real_linear(x, w, b)
        for _ in range(out.size // out.shape[-1]):  # tokens
            for _ in range(out.shape[-1]):
                counter[0] += x.shape[-1]
        return out

    def attention(q, k, v, heads):
        out, p = real_attention(q, k, v, heads)
        batch, _, n_q, n_kv = p.shape
        dk = q.shape[-1] // heads
        for _ in range(batch * heads * n_q):
            for _ in range(n_kv):  # one score per key
                counter[0] += dk
            for _ in range(dk):  # one output channel, summed over keys
                counter[0] += n_kv
        return out, p

    def depthwise_tokens(x, grid, w, b):
        out = real_depthwise(x, grid, w, b)
        c, _, kh, kw = w.shape
        for _ in range(out.size // c):  # tokens
            for _ in range(c):
                counter[0] += kh * kw
        return out

    for name, fn in (("conv2d", conv2d), ("conv_norm", conv_norm),
                     ("linear", linear),
                     ("attention", attention),
                     ("depthwise_tokens", depthwise_tokens)):
        monkeypatch.setattr(layers_mod, name, fn)
    H = cfg.encoder.height if H is None else H
    model = SegModel(cfg.encoder, cfg.decoder, seed=0)
    model.eval()
    model(Tensor(np.zeros((1, 3, H, H))))
    return counter[0]


class TestMacOracle:
    """The report's full MAC total, attention lines included, equals the
    MACs the instrumented primitives count."""

    def test_desk_model(self, monkeypatch):
        cfg = desk()
        assert counted_macs(cfg, monkeypatch) == cost_report(cfg).macs

    def test_tiny_model(self, monkeypatch):
        cfg = FullConfig(encoder=EncoderConfig(channels=(2, 3, 4, 5)),
                         decoder=DecoderConfig(num_blocks=1, heads=(1, 1, 1),
                                               head_channels=4, num_classes=2))
        assert counted_macs(cfg, monkeypatch) == cost_report(cfg).macs

    @pytest.mark.parametrize("variant", ["successive", "plain-cross",
                                         "self-on-concat"])
    @pytest.mark.parametrize("H", [64, 128, 256])
    def test_attention_variants_and_sizes(self, variant, H, monkeypatch):
        # from 128 x 128 on, every softmax spans more than one key
        cfg = desk(attention_variant=variant, heads=(2, 2, 2))
        assert counted_macs(cfg, monkeypatch, H) == cost_report(cfg, H, H).macs

    def test_doubling_resolution_quadruples_conv_macs(self):
        cfg = desk()
        a = self._report_conv_macs_at(cfg, 64, 64)
        b = self._report_conv_macs_at(cfg, 128, 128)
        assert b == 4 * a

    def _report_conv_macs_at(self, cfg, H, W):
        report = cost_report(cfg, H, W)
        return sum(m for path, _, m in report.entries if ".attn" not in path)

    def test_doubling_resolution_scales_attention_scores_by_16(self):
        def score_macs(H):
            report = cost_report(desk(), H, H)
            return sum(m for path, _, m in report.entries
                       if path.endswith(".scores") or path.endswith(".values"))
        assert score_macs(128) == 16 * score_macs(64)


class TestCombinerVariantsIdentical:
    @pytest.mark.parametrize("make", [desk, full_scale])
    def test_identical_params_and_macs(self, make):
        reports = [cost_report(make(scm_variant=v))
                   for v in ("eq6", "eq7", "eq8")]
        assert len({r.params for r in reports}) == 1
        assert len({r.macs for r in reports}) == 1

    def test_walker_confirms_param_counts(self):
        for v in ("eq6", "eq7", "eq8"):
            cfg = desk(scm_variant=v)
            assert cost_report(cfg).params == model_param_count(cfg)


class TestAttentionVariantOrdering:
    @pytest.mark.parametrize("make", [desk, full_scale])
    def test_self_on_concat_strictly_heavier(self, make):
        succ = cost_report(make(attention_variant="successive"))
        plain = cost_report(make(attention_variant="plain-cross"))
        cat = cost_report(make(attention_variant="self-on-concat"))
        assert succ.params == plain.params
        assert succ.macs == plain.macs
        assert cat.params > succ.params
        assert cat.macs > succ.macs


class TestAffineInDepth:
    def test_decoder_costs_have_constant_per_block_deltas(self):
        p, m = zip(*(cost_report(desk(num_blocks=l)).subtotal("decoder.")
                     for l in range(1, 6)))
        dp = {b - a for a, b in zip(p, p[1:])}
        dm = {b - a for a, b in zip(m, m[1:])}
        assert len(dp) == 1 and dp.pop() > 0
        assert len(dm) == 1 and dm.pop() > 0

    def test_delta_equals_one_block_of_stages(self):
        p1, m1 = cost_report(desk(num_blocks=1)).subtotal("decoder.")
        r2 = cost_report(desk(num_blocks=2))
        p2, m2 = r2.subtotal("decoder.")
        block2 = r2.subtotal("decoder.ase.blocks.1.")
        assert p2 - p1 == block2[0]
        assert m2 - m1 == block2[1]


class TestMonotonicity:
    def test_more_head_channels_costs_more(self):
        a = cost_report(desk(head_channels=16))
        b = cost_report(desk(head_channels=32))
        assert b.params > a.params and b.macs > a.macs

    def test_wider_encoder_costs_more(self):
        a = cost_report(FullConfig(encoder=EncoderConfig(channels=(4, 8, 16, 32))))
        b = cost_report(FullConfig(encoder=EncoderConfig(channels=(8, 16, 32, 64))))
        assert b.params > a.params and b.macs > a.macs


class TestReportFormats:
    def test_csv_shape_and_total(self):
        report = cost_report(desk())
        lines = report.to_csv().strip().splitlines()
        assert lines[0] == "module,params,macs"
        assert lines[-1] == f"total,{report.params},{report.macs}"
        assert len(lines) == len(report.entries) + 2

    def test_text_contains_every_module(self):
        report = cost_report(desk())
        text = report.to_text()
        for path, _, _ in report.entries:
            assert path in text

    def test_indivisible_resolution_rejected(self):
        with pytest.raises(ConfigError):
            cost_report(desk(), 60, 64)


class TestAblationTable:
    def test_scm_axis_rows_are_identical(self):
        table = ablation_table(desk(), "scm")
        assert [r[0] for r in table.rows] == ["eq6", "eq7", "eq8"]
        assert len({(p, m) for _, p, m in table.rows}) == 1

    def test_blocks_axis_is_affine(self):
        table = ablation_table(desk(), "blocks")
        p = [r[1] for r in table.rows]
        assert len({b - a for a, b in zip(p, p[1:])}) == 1

    def test_csv_header(self):
        table = ablation_table(desk(), "attention")
        assert table.to_csv().splitlines()[0] == "setting,params,macs"

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            ablation_table(desk(), "width")

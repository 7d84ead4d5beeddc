"""Analytic parameter and multiply-accumulate accounting.

Counting rules: a conv contributes C_in * C_out * k^2 weights plus C_out
biases and C_in * C_out * k^2 * h_out * w_out MACs (a depthwise conv counts
with C_in = 1); a linear d_in * d_out weights plus d_out biases and
d_in * d_out MACs per token; a norm contributes 2C parameters and zero MACs
(running stats are buffers, not parameters).
Softmax, activations, and resampling are listed as zero-MAC lines so the
breakdown still names every stage. MAC totals follow the vision
literature's convention of reporting one MAC as one FLOP.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .config import (ATTENTION_VARIANTS, SCM_VARIANTS, DecoderConfig,
                     EncoderConfig, FullConfig)
from .errors import ConfigError
from .layers import MixFFN


def _table_text(header: str, rows) -> str:
    """Rows of (name, params, macs) as aligned text under a header line."""
    width = max([len(header)] + [len(str(r[0])) for r in rows])
    return "\n".join(f"{name!s:<{width}}  {params:>12}  {macs:>16}"
                     for name, params, macs in [(header, "params", "macs")] + rows)


def _table_csv(header: str, rows) -> str:
    return "".join(f"{name},{params},{macs}\n"
                   for name, params, macs in [(header, "params", "macs")] + rows)


@dataclass
class CostReport:
    entries: list = field(default_factory=list)  # (path, params, macs)

    @property
    def params(self) -> int:
        return sum(e[1] for e in self.entries)

    @property
    def macs(self) -> int:
        return sum(e[2] for e in self.entries)

    def add(self, path: str, params: int, macs: int):
        self.entries.append((path, int(params), int(macs)))

    def subtotal(self, prefix: str):
        params = sum(e[1] for e in self.entries if e[0].startswith(prefix))
        macs = sum(e[2] for e in self.entries if e[0].startswith(prefix))
        return params, macs

    def _rows(self):
        return self.entries + [("total", self.params, self.macs)]

    def to_text(self) -> str:
        return _table_text("module", self._rows())

    def to_csv(self) -> str:
        return _table_csv("module", self._rows())


def _conv(report, path, c_in, c_out, k, h, w):
    weights = c_in * c_out * k * k
    report.add(path, weights + c_out, weights * h * w)


def _norm(report, path, channels):
    report.add(path, 2 * channels, 0)


def _linear(report, path, d_in, d_out, tokens):
    report.add(path, d_in * d_out + d_out, d_in * d_out * tokens)


def _conv_bn(report, path, c_in, c_out, k, h, w):
    _conv(report, f"{path}.conv", c_in, c_out, k, h, w)
    _norm(report, f"{path}.bn", c_out)


def _attention(report, path, kv_dim, q_dim, n_q, n_kv):
    _linear(report, f"{path}.w_q", q_dim, q_dim, n_q)
    _linear(report, f"{path}.w_k", kv_dim, q_dim, n_kv)
    _linear(report, f"{path}.w_v", kv_dim, q_dim, n_kv)
    report.add(f"{path}.scores", 0, n_q * n_kv * q_dim)
    report.add(f"{path}.softmax", 0, 0)
    report.add(f"{path}.values", 0, n_q * n_kv * q_dim)
    _linear(report, f"{path}.w_o", q_dim, q_dim, n_q)


def _mix_ffn(report, path, channels, h, w):
    hidden = MixFFN.EXPANSION * channels
    _conv(report, f"{path}.fc1", channels, hidden, 1, h, w)
    _conv(report, f"{path}.dw", 1, hidden, 3, h, w)
    report.add(f"{path}.gelu", 0, 0)
    _conv(report, f"{path}.fc2", hidden, channels, 1, h, w)


def _sca_stage(report, path, kv_dim, q_dim, h, w):
    n = h * w
    _norm(report, f"{path}.ln_kv", kv_dim)
    _norm(report, f"{path}.ln_q", q_dim)
    _attention(report, f"{path}.attn", kv_dim, q_dim, n, n)
    _norm(report, f"{path}.ln_ffn", q_dim)
    _mix_ffn(report, f"{path}.ffn", q_dim, h, w)


def _encoder_costs(report, cfg: EncoderConfig, H, W):
    c_prev = 3
    h, w = H, W
    for i, c in enumerate(cfg.channels):
        stride = 4 if i == 0 else 2
        h, w = h // stride, w // stride
        _conv_bn(report, f"encoder.stages.{i}.0", c_prev, c, 3, h, w)
        _conv_bn(report, f"encoder.stages.{i}.1", c, c, 3, h, w)
        c_prev = c


def _decoder_costs(report, channels, cfg: DecoderConfig, H, W):
    gh, gw = H // 64, W // 64
    n = gh * gw
    report.add("decoder.resize", 0, 0)

    if cfg.attention_variant == "self-on-concat":
        total = sum(channels)
        for l in range(cfg.num_blocks):
            _sca_stage(report, f"decoder.ase.blocks.{l}", total, total, gh, gw)
    else:
        for l in range(cfg.num_blocks):
            for t in range(3):
                _sca_stage(report, f"decoder.ase.blocks.{l}.{t}", channels[t],
                           channels[t + 1], gh, gw)

    for j in range(3):
        c = channels[j + 1]
        fh, fw = H // 2 ** (j + 3), W // 2 ** (j + 3)
        report.add(f"decoder.scm.{j}.upsample", 0, 0)
        _conv_bn(report, f"decoder.scm.{j}.proj_f", c, c, 1, fh, fw)
        _conv_bn(report, f"decoder.scm.{j}.proj_s", c, c, 1, fh, fw)
        report.add(f"decoder.scm.{j}.combine", 0, 0)

    ch = cfg.head_channels
    h4, w4 = H // 4, W // 4
    for i, c in enumerate(channels):
        fh, fw = H // 2 ** (i + 2), W // 2 ** (i + 2)
        _conv_bn(report, f"decoder.head.projs.{i}", c, ch, 1, fh, fw)
        report.add(f"decoder.head.projs.{i}.upsample", 0, 0)
    _conv_bn(report, "decoder.head.fuse", 4 * ch, ch, 1, h4, w4)
    _conv(report, "decoder.head.classifier", ch, cfg.num_classes, 1, h4, w4)
    report.add("decoder.head.upsample", 0, 0)


def cost_report(cfg: FullConfig, H: int | None = None,
                W: int | None = None) -> CostReport:
    """Full analytic cost breakdown at resolution (H, W)."""
    H = cfg.encoder.height if H is None else H
    W = cfg.encoder.width if W is None else W
    cfg.validate()
    replace(cfg.encoder, height=H, width=W).validate()
    report = CostReport()
    _encoder_costs(report, cfg.encoder, H, W)
    _decoder_costs(report, cfg.encoder.channels, cfg.decoder, H, W)
    return report


@dataclass
class AblationTable:
    rows: list  # (setting, params, macs)

    def to_text(self) -> str:
        return _table_text("setting", self.rows)

    def to_csv(self) -> str:
        return _table_csv("setting", self.rows)


def variants_for_axis(axis: str, base: FullConfig):
    dec = base.decoder
    if axis == "blocks":
        return [(str(l), replace(dec, num_blocks=l)) for l in range(1, 6)]
    if axis == "attention":
        return [(name, replace(dec, attention_variant=name))
                for name in sorted(ATTENTION_VARIANTS)]
    if axis == "scm":
        return [(name, replace(dec, scm_variant=name))
                for name in sorted(SCM_VARIANTS)]
    if axis == "variant":
        rows = variants_for_axis("attention", base)
        rows += [(f"scm-{n}", d) for n, d in variants_for_axis("scm", base)]
        return rows
    raise ConfigError(f"unknown ablation axis {axis!r}")


def ablation_table(base: FullConfig, axis: str) -> AblationTable:
    """Rows of (setting, params, macs) along one configuration axis, at the
    image size of ``base``."""
    rows = []
    for setting, dec_cfg in variants_for_axis(axis, base):
        cfg = FullConfig(encoder=base.encoder, decoder=dec_cfg, train=base.train)
        report = cost_report(cfg)
        rows.append((setting, report.params, report.macs))
    return AblationTable(rows)

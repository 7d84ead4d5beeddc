"""Variant trend at 500 iterations: each attention and combiner variant.

    PYTHONPATH=src python3 tools/trend_runs.py

Trains the default model and recipe at seed 0 for 500 iterations once per
attention variant and once per semantic-combiner variant, on the seed-0
training set, and prints one line per run with its validation mIoU. It
asserts nothing: at 64x64 the token grid is 1x1, so these runs cannot show
attention allocation. Six runs take about 90 s on a 2-vCPU host.
"""

from __future__ import annotations

from scaseg import (DecoderConfig, EncoderConfig, SegModel, TrainConfig,
                    evaluate, gen_synthetic_dataset, train_loop)

ITERATIONS = 500


def main() -> None:
    cfg = TrainConfig(iterations=ITERATIONS)
    train_set = gen_synthetic_dataset(cfg.train_samples, 64, 64, 4, cfg.seed)
    val_set = gen_synthetic_dataset(cfg.val_samples, 64, 64, 4, cfg.seed + 1)
    runs = [("attention", DecoderConfig(attention_variant=v))
            for v in ("successive", "plain-cross", "self-on-concat")]
    runs += [("combiner", DecoderConfig(scm_variant=v))
             for v in ("eq6", "eq7", "eq8")]
    for axis, dec in runs:
        model = SegModel(EncoderConfig(), dec, seed=cfg.seed)
        train_loop(model, train_set, val_set, cfg)
        variant = dec.attention_variant if axis == "attention" else dec.scm_variant
        print(f"trend {axis}={variant}: mIoU {evaluate(model, val_set, 4):.4f} "
              f"at {ITERATIONS} iters")


if __name__ == "__main__":
    main()

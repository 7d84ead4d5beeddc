"""Command-line entry point: describe / forward / train / gradcheck / ablate.

Exit codes: 0 ok, 2 configuration or usage error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from .config import FullConfig, load_config
from .costmodel import ablation_table, cost_report, variants_for_axis
from .data import PALETTE, gen_synthetic_dataset
from .decoder import SegModel
from .errors import ConfigError, DataError, NumericalError, ShapeError, UsageError
from .gradcheck import gradient_check
from .serialization import load_checkpoint, load_tensor, save_tensor
from .tensor import Tensor
from .train import cross_entropy, evaluate, train_loop

GRADCHECK_TOLERANCE = 1e-4


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _load(args) -> FullConfig:
    overrides = _parse_overrides(args.set)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return load_config(args.config, overrides)


def _out_dir(args) -> str:
    out = args.out or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot use --out {out!r}: {exc}") from None
    return out


def _write_csv(args, name: str, text: str) -> None:
    """Write ``text`` to ``name`` in the ``--out`` directory, if one is given."""
    if args.out:
        with open(os.path.join(_out_dir(args), name), "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_model(cfg: FullConfig) -> SegModel:
    return SegModel(cfg.encoder, cfg.decoder, seed=cfg.train.seed)


def _train_and_evaluate(cfg: FullConfig, **loop_args):
    """Train a model built from ``cfg`` on its synthetic data; returns the
    metrics rows and the final validation mIoU."""
    t = cfg.train
    model = _build_model(cfg)
    H, W, K = cfg.encoder.height, cfg.encoder.width, cfg.decoder.num_classes
    train_set = gen_synthetic_dataset(t.train_samples, H, W, K, t.seed)
    val_set = gen_synthetic_dataset(t.val_samples, H, W, K, t.seed + 1)
    rows = train_loop(model, train_set, val_set, t, **loop_args)
    return rows, evaluate(model, val_set, K)


def write_ppm(path, mask: np.ndarray) -> None:
    """Argmax mask as binary P6 with the fixed class palette."""
    H, W = mask.shape
    rgb = (PALETTE[mask] * 255.0 + 0.5).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{W} {H}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def cmd_describe(args) -> int:
    cfg = _load(args)
    report = cost_report(cfg)
    _write_csv(args, "describe.csv", report.to_csv())
    print(report.to_text())
    return 0


def cmd_forward(args) -> int:
    cfg = _load(args)
    if cfg.decoder.num_classes > len(PALETTE):
        raise ConfigError(
            f"the mask is drawn with the {len(PALETTE)}-colour palette: "
            f"at most {len(PALETTE)} classes, got {cfg.decoder.num_classes}")
    model = _build_model(cfg)
    if args.checkpoint:
        model.load_state(load_checkpoint(args.checkpoint))
    image = load_tensor(args.input)
    if image.ndim == 3:
        image = image.reshape(1, *image.shape)
    if not np.isfinite(image.data).all():
        raise DataError("image holds non-finite values (NaN or inf)")
    model.eval()
    logits = model(image)
    out = _out_dir(args)
    save_tensor(os.path.join(out, "logits.tsr"), logits)
    mask = logits.data.argmax(axis=1)[0]
    write_ppm(os.path.join(out, "mask.ppm"), mask)
    print(f"logits shape {logits.shape} written to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load(args)
    out = _out_dir(args)
    rows, final_miou = _train_and_evaluate(
        cfg, metrics_path=os.path.join(out, "metrics.csv"),
        checkpoint_path=os.path.join(out, "checkpoint.ckpt"),
        log_fn=print if args.verbose else None)
    print(f"final val mIoU {final_miou:.4f} over {len(rows) - 1} iterations")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load(args)
    model = _build_model(cfg)
    H, W, K = cfg.encoder.height, cfg.encoder.width, cfg.decoder.num_classes
    sample = gen_synthetic_dataset(1, H, W, K, cfg.train.seed)[0]
    image = Tensor(sample.image[None])
    mask = sample.mask[None]
    model.train()

    worst = 0.0
    worst_name = ""
    max_samples = None if args.samples == 0 else args.samples
    for name, param in model.named_parameters():
        def loss_fn(_p):
            return cross_entropy(model(image), mask)

        err = gradient_check(loss_fn, param, eps=args.eps,
                             max_samples=max_samples,
                             sample_seed=cfg.train.seed)
        if err > worst:
            worst, worst_name = err, name
    print(f"max relative error {worst:.3e} (parameter {worst_name})")
    if worst > GRADCHECK_TOLERANCE:
        raise NumericalError(
            f"gradient check failed: {worst:.3e} > {GRADCHECK_TOLERANCE:g} "
            f"at parameter {worst_name!r}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load(args)
    table = ablation_table(cfg, args.axis)
    _write_csv(args, f"ablate_{args.axis}.csv", table.to_csv())
    print(table.to_text())
    if args.train:
        print("\nsetting,val_miou")
        for setting, dec_cfg in variants_for_axis(args.axis, cfg):
            _, score = _train_and_evaluate(replace(cfg, decoder=dec_cfg))
            print(f"{setting},{score:.4f}")
    return 0


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {raw}")
    return value


def _non_negative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {raw}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scaseg",
        description="segmentation decoder toolkit: cost tables, forward "
                    "passes, training, and gradient verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--set", action="append", metavar="K=V",
                       help="override a config key (repeatable)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="same as --set seed=N")

    p = sub.add_parser("describe", help="parameter/MAC table for the config")
    common(p)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("forward", help="run inference on a tensor-format image")
    common(p)
    p.add_argument("input", help="input image in the tensor binary format")
    p.add_argument("--checkpoint", default=None)
    p.set_defaults(fn=cmd_forward)

    p = sub.add_parser("train", help="train on synthetic data")
    common(p)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of all parameters")
    common(p)
    p.add_argument("--eps", type=_positive_float, default=1e-4)
    p.add_argument("--samples", type=_non_negative_int, default=4,
                   help="elements probed per parameter tensor (0 = all)")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", help="cost comparison along one config axis")
    common(p)
    p.add_argument("--axis", default="blocks",
                   choices=["blocks", "attention", "scm", "variant"])
    p.add_argument("--train", action="store_true",
                   help="also train each variant at desk scale")
    p.set_defaults(fn=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ShapeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

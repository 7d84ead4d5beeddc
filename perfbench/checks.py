"""Output checks that feed the benchmark's ``failed`` count.

Every operation and every check is one attempt; a check that fails, or an
operation that raises, is one failure. Besides the per-operation checks
(finite training loss, finite logits of the right shape) there are two
checks on fixed inputs that do not depend on the workload seed:

- golden: the seed-0 model on the seed-0 64x64 image, eval-mode logits and
  the train-mode loss, against ``golden.json``;
- gradient: ``scaseg.gradient_check`` on a few parameter tensors of the same
  model.

Regenerate ``golden.json`` only for a change that is meant to alter the
model's numerics beyond the tolerance below:

    PYTHONPATH=src python3 perfbench/checks.py
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import numpy as np

from scaseg import (DecoderConfig, EncoderConfig, SegModel, Tensor,
                    cross_entropy, gen_synthetic_dataset, gradient_check)

GOLDEN_PATH = Path(__file__).with_name("golden.json")
# summation-order changes move the logits by about 1e-14; a wrong result
# moves them by far more than this
GOLDEN_RTOL = 1e-9
GRADCHECK_PARAMS = ("encoder.stages.0.0.conv.weight",
                    "decoder.ase.blocks.0.0.attn.w_q.weight",
                    "decoder.head.classifier.weight")
GRADCHECK_TOL = 1e-4  # the acceptance gate's bound for criterion 1
SUBSAMPLE = 8  # golden keeps every 8th pixel of the logits


class Checker:
    """Counts attempted operations and failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def run(self, what: str, fn, *args) -> bool:
        """One attempt: ``fn`` returns whether its output is correct; an
        exception counts as a failure."""
        try:
            ok = bool(fn(*args))
        except Exception:
            return self.record(False, f"{what} raised\n{traceback.format_exc()}")
        return self.record(ok, what)


def loss_ok(value: float) -> bool:
    return bool(np.isfinite(value))


def logits_ok(logits: np.ndarray, shape: tuple) -> bool:
    return logits.shape == shape and bool(np.isfinite(logits).all())


def golden_ok(logits: np.ndarray, loss: float) -> bool:
    ref = json.loads(GOLDEN_PATH.read_text())
    sub = logits[0, :, ::SUBSAMPLE, ::SUBSAMPLE].ravel()
    want = np.array(ref["logits_subsample"])
    scale = 1.0 + float(np.abs(logits).sum())
    return (sub.shape == want.shape
            and bool(np.all(np.abs(sub - want) <= GOLDEN_RTOL * (1.0 + np.abs(want))))
            and abs(float(logits.sum()) - ref["logits_sum"]) <= GOLDEN_RTOL * scale
            and abs(loss - ref["loss"]) <= GOLDEN_RTOL * (1.0 + abs(ref["loss"])))


def gradient_ok(model, image, mask, name: str) -> bool:
    def loss_fn(_p):
        return cross_entropy(model(image), mask)

    param = dict(model.named_parameters())[name]
    err = gradient_check(loss_fn, param, eps=1e-4, max_samples=2, sample_seed=0)
    if err >= GRADCHECK_TOL:
        print(f"{name}: max rel err {err:.2e}", file=sys.stderr)
    return err < GRADCHECK_TOL


def golden_outputs():
    """Seed-0 model and image: eval logits, then train-mode loss."""
    model = SegModel(EncoderConfig(), DecoderConfig(), seed=0)
    sample = gen_synthetic_dataset(1, 64, 64, 4, seed=0)[0]
    image, mask = Tensor(sample.image[None]), sample.mask[None]
    logits = model.eval()(image).data
    loss = cross_entropy(model.train()(image), mask).item()
    return model, image, mask, logits, loss


def fixed_input_checks(checker: Checker) -> None:
    try:
        model, image, mask, logits, loss = golden_outputs()
    except Exception:
        checker.record(False, f"golden forward raised\n{traceback.format_exc()}")
        return
    checker.run("golden logits and loss match golden.json", golden_ok, logits, loss)
    for name in GRADCHECK_PARAMS:
        checker.run(f"gradient check of {name}", gradient_ok, model, image, mask, name)


def write_golden() -> None:
    _, _, _, logits, loss = golden_outputs()
    ref = {"model_seed": 0, "image_seed": 0, "size": 64,
           "subsample": SUBSAMPLE,
           "logits_sum": float(logits.sum()),
           "loss": loss,
           "logits_subsample": logits[0, :, ::SUBSAMPLE, ::SUBSAMPLE].ravel().tolist()}
    GOLDEN_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    write_golden()

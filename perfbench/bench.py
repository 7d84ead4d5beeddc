"""One run of one benchmark workload, in this process.

Started by ``run.py``, which pins the BLAS thread count in this process's
environment and puts the checkout's ``src`` first on ``PYTHONPATH``. Drives
scaseg only through its public functions. Prints a summary and, as its
last line, the JSON result.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished. An operation is one training step
(train-64, train-256) or one batch-1 inference (infer-mixed). Operations run
in rounds (one step, or one image of each size) until ``--seconds`` have
passed. A fixed reference kernel runs between operations and between the
phases of a training step, and the gated timings are operation times in
units of the reference (see ``Reference`` and ``Stopwatch``).
With ``--trace 1`` every second round runs under the tracer, so the same run
gives the per-layer figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import scaseg
from scaseg import data, serialization, train
from scaseg import (AdamW, DecoderConfig, EncoderConfig, FullConfig,
                    RandomSource, SegModel, Tensor, TrainConfig, cost_report,
                    poly_lr)

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"
NUM_CLASSES = DecoderConfig().num_classes
BATCH = TrainConfig().batch_size
TRAIN_SAMPLES = 16
INFER_SIZES = (64, 128, 256)
INFER_IMAGES_PER_SIZE = 4
SETUP_REPEATS = 5
WARMUP_ROUNDS = 1
MAC_GROUPS = ("encoder.", "decoder.ase", "decoder.scm", "decoder.head")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import scaseg; "
                "print(time.perf_counter() - t)")


# -- workloads ---------------------------------------------------------------


class TrainWorkload:
    """Training steps as in ``scaseg.train_loop``, default recipe, batch 4."""

    def __init__(self, size: int, ref_scale: int):
        self.size = size
        self.ref_scale = ref_scale

    def setup(self, seed: int):
        # iterations only bounds poly_lr; this many keeps the rate at base_lr
        self.cfg = TrainConfig(iterations=10**9, seed=seed)
        self.model = SegModel(EncoderConfig(height=self.size, width=self.size),
                              DecoderConfig(), seed=seed)
        self.samples = data.gen_synthetic_dataset(
            TRAIN_SAMPLES, self.size, self.size, NUM_CLASSES, seed)
        self.order = RandomSource(seed).spawn(999).choice(
            TRAIN_SAMPLES, TRAIN_SAMPLES, replace=False)
        self.optimizer = AdamW(self.model.named_parameters(),
                               weight_decay=self.cfg.weight_decay)
        self.model.train()
        self.step = 0
        return TRAIN_SAMPLES

    def round(self):
        """Yield (operation, pixels, its images' edge length). An operation
        takes a ``Stopwatch`` and returns whether its output is correct."""
        yield self.train_step, BATCH * self.size ** 2, (self.size,) * BATCH

    def train_step(self, watch) -> bool:
        i = self.step
        self.step += 1
        lr = poly_lr(i, self.cfg)
        idx = np.take(self.order, range(i * BATCH, (i + 1) * BATCH), mode="wrap")
        images = np.stack([self.samples[j].image for j in idx])
        masks = np.stack([self.samples[j].mask for j in idx])
        logits = self.model(Tensor(images))
        loss = train.cross_entropy(logits, masks)
        if not checks.loss_ok(loss.item()):
            return False  # as train_loop: no update from a non-finite loss
        watch.lap()
        self.model.zero_grad()
        loss.backward()
        watch.lap()
        self.optimizer.step(lr)
        return True


class InferWorkload:
    """Eval-mode batch-1 forward over 64, 128 and 256 pixel images, equal
    counts in a seeded order, with the model loaded from a checkpoint."""

    ref_scale = 1

    def setup(self, seed: int):
        RESULTS.mkdir(exist_ok=True)
        path = RESULTS / f"infer-mixed-{os.getpid()}.ckpt"
        trained = SegModel(EncoderConfig(), DecoderConfig(), seed=seed)
        try:
            serialization.save_checkpoint(path, trained.state())
            self.checkpoint_bytes = path.stat().st_size
            self.model = SegModel(EncoderConfig(), DecoderConfig(), seed=seed + 1)
            self.model.load_state(serialization.load_checkpoint(path))
        finally:
            path.unlink(missing_ok=True)
        self.loaded_exactly = all(
            np.array_equal(a.data, b.data)
            for (_, a), (_, b) in zip(trained.state(), self.model.state()))
        self.model.eval()
        self.images = {
            size: [s.image[None] for s in data.gen_synthetic_dataset(
                INFER_IMAGES_PER_SIZE, size, size, NUM_CLASSES, seed + size)]
            for size in INFER_SIZES}
        self.rng = RandomSource(seed).spawn(7)
        self.rounds = 0
        return INFER_IMAGES_PER_SIZE * len(INFER_SIZES)

    def round(self):
        k = self.rounds % INFER_IMAGES_PER_SIZE
        self.rounds += 1
        for j in self.rng.choice(len(INFER_SIZES), len(INFER_SIZES), replace=False):
            size = INFER_SIZES[j]
            image = self.images[size][k]
            yield (lambda watch, image=image: self.infer(image), size * size,
                   (size,))

    def infer(self, image: np.ndarray) -> bool:
        logits = self.model(Tensor(image))
        return checks.logits_ok(logits.data, (1, NUM_CLASSES) + image.shape[2:])


# ref_scale keeps the reference runs at a tenth to a fifth of an operation's time
WORKLOADS = {
    "train-64": lambda: TrainWorkload(64, ref_scale=1),
    "train-256": lambda: TrainWorkload(256, ref_scale=4),
    "infer-mixed": InferWorkload,
}


# -- set-up ------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import scaseg (numpy and scipy with it) in a fresh process."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def setup(workload, seed: int, tr):
    """Set up SETUP_REPEATS times; keep the last. Returns (setup_s, samples)."""
    totals, samples = [], 0
    for _ in range(SETUP_REPEATS):
        imports = import_seconds()
        with tr.installed(setup=True) if tr else nullcontext():
            t = time.perf_counter()
            samples += workload.setup(seed)
            totals.append(imports + time.perf_counter() - t)
    return statistics.median(totals), samples


# -- measurement ---------------------------------------------------------------


class Reference:
    """A fixed kernel of numpy and Python work that does not touch scaseg.

    The shared host's speed drifts by 20-45% over seconds to minutes, so
    wall-clock operation times of the same code spread by up to a third
    between runs. The reference runs between operations and between the
    phases of an operation; a phase's time divided by the mean of the
    reference runs just before and after it cancels most of that drift.
    Its parts mirror the program's mix: a scatter-add (the
    ``bilinear_resize`` backward), small GEMMs (conv and attention), an
    elementwise pass over a 4 MB array times ``scale`` and a Python loop
    (graph building). ``scale`` sizes it to the operation, so that a large
    operation is matched by a memory-bound reference. Its inputs are fixed,
    whatever the workload seed."""

    def __init__(self, scale: int):
        rng = np.random.default_rng(0)
        self.scale = scale
        self.acc = np.zeros(1 << 20)
        self.index = rng.integers(0, 1 << 20, scale << 17)
        self.values = rng.random(scale << 17)
        self.matrix = rng.random((128, 128))
        self.array = rng.random(scale << 19)

    def __call__(self) -> float:
        """Runs the kernel; returns its time in ms."""
        t = time.perf_counter()
        np.add.at(self.acc, self.index, self.values)
        for _ in range(self.scale):
            self.matrix @ self.matrix
        np.tanh(self.array).sum()
        sum(float(i) ** 0.5 for i in range(self.scale * 5000))
        return 1e3 * (time.perf_counter() - t)


class Stopwatch:
    """Times one operation in phases, running the reference after each.

    ``start`` opens the first phase, ``lap`` closes the current phase and
    opens the next. ``ms`` is the operation's wall-clock time without the
    reference runs; ``rel`` is the sum over phases of the phase's time over
    the mean of the reference times around it."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.ref_ms = ref()

    def start(self) -> None:
        self.ms = self.rel = 0.0
        self.t = time.perf_counter()

    def lap(self) -> None:
        ms = 1e3 * (time.perf_counter() - self.t)
        ref_ms = self.ref()
        self.ms += ms
        self.rel += ms / ((self.ref_ms + ref_ms) / 2)
        self.ref_ms = ref_ms
        self.t = time.perf_counter()


def measure(workload, seconds: float, tr, checker):
    """Run rounds until ``seconds`` have passed. Returns per-mode samples:
    {traced: {"ms": [...], "rel": [...], "ref_ms": [...], "pixels": int,
    "sizes": [...]}}, where ``rel`` is each time in reference units."""
    runs = {traced: {"ms": [], "rel": [], "ref_ms": [], "pixels": 0, "sizes": []}
            for traced in (False, True)}
    watch = Stopwatch(Reference(workload.ref_scale))
    for _ in range(WARMUP_ROUNDS):
        for op, _, _ in workload.round():
            watch.start()
            checker.run("warm-up operation", op, watch)
            watch.lap()
    n_rounds = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        traced = tr is not None and n_rounds % 2 == 1
        n_rounds += 1
        for op, pixels, sizes in workload.round():
            with tr.installed() if traced else nullcontext():
                watch.start()
                ok = checker.run("operation", op, watch)
                watch.lap()
            if ok:
                run = runs[traced]
                run["ms"].append(watch.ms)
                run["rel"].append(watch.rel)
                run["ref_ms"].append(watch.ref_ms)
                run["pixels"] += pixels
                run["sizes"].extend(sizes)
    return runs


def analytic_macs(sizes) -> dict:
    """Forward MACs of the given images, by cost-model group."""
    reports = {s: cost_report(FullConfig(), s, s) for s in set(sizes)}
    macs = {"total": 0, "conv": 0, **{g: 0 for g in MAC_GROUPS}}
    for s in sizes:
        r = reports[s]
        attention = sum(e[2] for e in r.entries if ".attn." in e[0])
        macs["total"] += r.macs
        macs["conv"] += r.macs - attention
        for g in MAC_GROUPS:
            macs[g] += r.subtotal(g)[1]
    return macs


# -- provenance ----------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = ROOT / "src"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(src.rglob("*.py"))),
    }


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if Path(scaseg.__file__).resolve().parent != ROOT / "src" / "scaseg":
        print(f"scaseg imported from {scaseg.__file__}, not this checkout",
              file=sys.stderr)
        return 2

    prov = provenance()
    workload = WORKLOADS[args.workload]()
    tr = tracer.Tracer() if args.trace else None
    checker = checks.Checker()
    setup_s, samples = setup(workload, args.seed, tr)
    if isinstance(workload, InferWorkload):
        checker.record(workload.loaded_exactly,
                       "checkpoint round trip changed the model state")
    runs = measure(workload, args.seconds, tr, checker)
    checks.fixed_input_checks(checker)

    plain, traced = runs[False], runs[True]
    if not plain["ms"] or (tr is not None and not traced["ms"]):
        print("no operation completed", file=sys.stderr)
        return 1
    unit = "step" if isinstance(workload, TrainWorkload) else "image"
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "attempted": checker.attempted,
        "failed": checker.failed,
        "error_rate": checker.failed / checker.attempted,
        "samples": {"untraced_ops": len(plain["ms"]),
                    "traced_ops": len(traced["ms"]), "unit": unit}}
    # wall-clock figures, printed and recorded but not gated: they spread
    # with the host's speed (see Reference)
    busy_s = sum(plain["ms"]) / 1e3
    wall_clock = {
        "op_ms_p50": (np.percentile(plain["ms"], 50), "ms"),
        "op_ms_p90": (np.percentile(plain["ms"], 90), "ms"),
        "ref_ms_p50": (np.percentile(plain["ref_ms"], 50), "ms"),
        "mpix_per_s": (plain["pixels"] / 1e6 / busy_s, "Mpix/s"),
    }
    if unit == "step":
        wall_clock["train_img_per_s"] = (BATCH * len(plain["ms"]) / busy_s, "1/s")
    summary["wall_clock"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in wall_clock.items()}
    if tr is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_rel_p50": (np.percentile(plain["rel"], 50), "ref"),
            "op_rel_p90": (np.percentile(plain["rel"], 90), "ref"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        macs = analytic_macs(traced["sizes"])
        macs["per_image"] = macs["total"] / len(traced["sizes"])
        metrics = tr.layer_metrics(macs, samples)
        metrics["serialization.checkpoint_bytes"] = (
            getattr(workload, "checkpoint_bytes", 0), "bytes")
        metrics["trace.overhead_ratio"] = (
            np.percentile(traced["rel"], 50) / np.percentile(plain["rel"], 50), "ratio")
        RESULTS.mkdir(exist_ok=True)
        tr.save(RESULTS / f"spans-{args.workload}.npz")
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(plain['ms'])} untraced and {len(traced['ms'])} traced {unit}s")
    print("provenance " + json.dumps(prov))
    for name, (value, u) in metrics.items():
        shown = name.replace("op_", "step_" if unit == "step" else "infer_")
        print(f"  {shown:40s} {value:14.6g} {u}")
    print("wall clock, not gated:")
    for name, (value, u) in wall_clock.items():
        shown = name.replace("op_", "step_" if unit == "step" else "infer_")
        print(f"  {shown:40s} {value:14.6g} {u}")
    print(f"  {'error_rate':40s} {summary['error_rate']:14.6g} "
          f"({checker.failed} of {checker.attempted})")
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

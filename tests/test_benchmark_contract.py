"""What the benchmark in ``perfbench/`` needs of the program: the golden
outputs still match, and the tracer still wraps every name it looks up,
counts the graph nodes of a training step and sees the layers of an
inference forward."""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402
from scaseg import DecoderConfig, EncoderConfig, SegModel, Tensor  # noqa: E402

import bench  # noqa: E402
import checks  # noqa: E402
import tracer  # noqa: E402


def test_golden_outputs_match():
    assert checks.golden_ok(*checks.golden_outputs()[3:])


def test_traced_train_step_counts_nodes():
    workload = bench.TrainWorkload(64, 1)
    workload.setup(seed=0)
    tr = tracer.Tracer()
    with tr.installed():
        assert workload.train_step(SimpleNamespace(lap=lambda: None))
    assert tr.ops == 1 and tr.op_nodes > 0


def test_traced_eval_forward_records_no_nodes():
    model = SegModel(EncoderConfig(), DecoderConfig(), seed=0).eval()
    image = Tensor(np.random.default_rng(0).uniform(size=(1, 3, 64, 64)))
    tr = tracer.Tracer()
    with tr.installed():
        model(image)
    conv_bn = tr.names.index("layers.ConvBN")
    assert tr.ops == 1 and tr.op_nodes == 0
    assert list(tr.name_id).count(conv_bn) == 19

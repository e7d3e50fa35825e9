"""JSON documents and crash-safe artifact writes.

An artifact is written to a temporary file beside its final path and moved
into place with ``os.replace`` only once it is complete, so a run that fails
or is killed mid-write leaves the final path absent or holding its previous
bytes, never half-written. Every JSON input (config, manifest, synthetic
spec) is read by ``read_json`` and every JSON artifact written by
``write_json``.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path

from .errors import ParseError


@contextlib.contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """``open(path, mode)`` for writing, made atomic.

    The file object writes to a temporary file in the same directory (so the
    final rename stays on one filesystem); a clean exit renames it over
    ``path``, an exception deletes it and propagates.
    """
    path = Path(path)
    # unique per process and thread: folds may write side by side
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload: dict) -> None:
    with atomic_open(path) as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_json(path: str | Path) -> dict:
    """The JSON object in the UTF-8 file ``path``; an empty file reads as {}.

    A missing file, bytes that are not UTF-8, malformed JSON or a document
    that is not an object raise ParseError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    try:
        text = path.read_bytes().decode("utf-8").strip()
        doc = json.loads(text) if text else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return doc

"""Crash-safe artifact writes.

An artifact is written to a temporary file beside its final path and moved
into place with ``os.replace`` only once it is complete, so a run that fails
or is killed mid-write leaves the final path absent or holding its previous
bytes, never half-written.
"""

from __future__ import annotations

import contextlib
import os
import threading
from pathlib import Path


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

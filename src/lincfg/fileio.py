"""Atomic file writes: temp file in the target directory, made if missing, + rename."""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path, *parts) -> None:
    """Write the bytes-like ``parts``, in order, as the whole file at path."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    except OSError as exc:  # e.g. a parent of path is a regular file
        raise OSError(exc.errno, f"cannot write {path}: {exc.strerror}", exc.filename) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))

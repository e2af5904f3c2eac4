"""Atomic file writes: temp file in the target directory, made if missing, + rename."""

from __future__ import annotations

import os

_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def atomic_write_bytes(path, *parts) -> None:
    """Write the bytes-like ``parts``, in order, as the whole file at path,
    whose mode is then 0o666 less the process umask."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
    try:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, _CREATE, 0o666)  # less the umask, as open(path, "wb") makes it
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

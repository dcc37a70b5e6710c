"""Atomic file writes: no reader ever sees a truncated artifact.

Every JSON/pickle artifact the package persists — telemetry documents,
metrics snapshots, learning-curve caches, exploration checkpoints — is
written with the same discipline: serialize to a temporary file in the
destination directory, flush + fsync it, then :func:`os.replace` it over
the final path.  ``os.replace`` is atomic on POSIX and Windows, so a
run killed mid-write leaves either the previous complete file or no
file at all, never a half-written one.  This is the property the
crash-safe checkpoint/resume layer (:mod:`repro.core.checkpoint`) is
built on.

Pickled caches are read back with :func:`load_cached_pickle`, which
turns every kind of bad file into a miss, so a cache can always be
rebuilt instead of failing the run.

This module imports nothing from the rest of the package (stdlib only),
so every layer — ``repro.obs`` itself, ``repro.core``,
``repro.experiments``, the CLI — can use it without cycles.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Callable, Optional, Type, TypeVar, Union

PathLike = Union[str, Path]
T = TypeVar("T")


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (write-temp-then-rename).

    The temporary file lives in the destination directory so the final
    :func:`os.replace` never crosses a filesystem boundary.  On any
    failure the temporary file is removed and the original ``path``
    (if it existed) is left untouched.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_write_pickle(path: PathLike, obj: object) -> None:
    """Pickle ``obj`` to ``path`` atomically (highest protocol)."""
    atomic_write_bytes(path, pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


def load_cached_pickle(
    path: PathLike,
    expected_type: Type[T],
    on_error: Optional[Callable[[str], None]] = None,
) -> Optional[T]:
    """Read a pickled cache entry written by :func:`atomic_write_pickle`.

    A cache entry can always be rebuilt, so every way the file can be bad
    is a miss (``None``) rather than an error: missing or unreadable,
    truncated, an unknown pickle protocol, undecodable bytes, a class that
    no longer imports, or an object that is not an ``expected_type``.
    ``on_error``, if given, receives a description of why the entry was
    rejected.
    """
    try:
        with open(path, "rb") as handle:
            value = pickle.load(handle)
    except Exception as exc:
        if on_error is not None:
            on_error(repr(exc))
        return None
    if not isinstance(value, expected_type):
        if on_error is not None:
            on_error(
                f"expected {expected_type.__name__}, "
                f"found {type(value).__name__}"
            )
        return None
    return value

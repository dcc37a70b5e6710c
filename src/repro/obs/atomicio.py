"""Atomic file writes: no reader ever sees a truncated artifact.

Every artifact the package persists — telemetry documents, metrics
snapshots, exploration checkpoints, saved predictors, rebuildable caches
— is written with the same discipline: serialize to a temporary file in
the destination directory, flush + fsync it, then :func:`os.replace` it
over the final path.  ``os.replace`` is atomic on POSIX and Windows, so
a run killed mid-write leaves either the previous complete file or no
file at all, never a half-written one.  This is the property the
crash-safe checkpoint/resume layer (:mod:`repro.core.checkpoint`) is
built on.

Rebuildable caches (workload profiles, SimPoint interval profiles,
full-space ground truth) are plain-array ``.npz`` files: written with
:func:`atomic_write_arrays` and read back with
:func:`load_cached_arrays`, which never unpickles anything and turns
every kind of bad file into a miss, so a cache can always be rebuilt
instead of failing the run.

This module imports numpy and the standard library but nothing from the
rest of the package, so every layer — ``repro.obs`` itself,
``repro.core``, ``repro.experiments``, the CLI — can use it without
cycles.
"""

from __future__ import annotations

import io
import os
import tempfile
from pathlib import Path
from typing import Callable, Mapping, Optional, Tuple, TypeVar, Union

import numpy as np

PathLike = Union[str, Path]
T = TypeVar("T")


def _create_temp(path: Path) -> Tuple[int, str]:
    """Create and open a fresh temporary file beside ``path``.

    The file is created with mode ``0o666`` less the umask, the mode a
    plain ``open(path, "w")`` gives, rather than :func:`tempfile.mkstemp`'s
    owner-only ``0o600``, which would survive the rename and make every
    artifact (a shared cache directory's entries included) unreadable
    to anyone but the writer.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for _ in range(tempfile.TMP_MAX):
        tmp = str(path.parent / f".{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            return os.open(tmp, flags, 0o666), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temporary name beside {path}")


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (write-temp-then-rename).

    The temporary file lives in the destination directory so the final
    :func:`os.replace` never crosses a filesystem boundary.  On any
    failure the temporary file is removed and the original ``path``
    (if it existed) is left untouched.
    """
    path = Path(path)
    fd, tmp = _create_temp(path)
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


def atomic_write_arrays(path: PathLike, arrays: Mapping[str, np.ndarray]) -> None:
    """Write named ``arrays`` to ``path`` atomically as an uncompressed
    ``.npz`` archive (compression costs more than it saves on caches)."""
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    atomic_write_bytes(path, buffer.getvalue())


def load_cached_arrays(
    path: PathLike,
    decode: Callable[[Mapping[str, np.ndarray]], T],
    on_error: Optional[Callable[[str], None]] = None,
) -> Optional[T]:
    """Read a cache entry written by :func:`atomic_write_arrays` and
    ``decode`` its arrays into the cached value.

    Object arrays are refused (``allow_pickle=False``), so reading a
    cache never runs code.  A cache entry can always be rebuilt, so every
    way the file can be bad is a miss (``None``) rather than an error:
    missing or unreadable, empty or truncated, not an ``.npz`` archive,
    holding pickled data, or arrays ``decode`` rejects (any exception,
    e.g. a missing key or a wrong shape).  ``on_error``, if given,
    receives a description of why the entry was rejected.
    """
    try:
        with np.load(path, allow_pickle=False) as arrays:
            return decode(arrays)
    except Exception as exc:
        if on_error is not None:
            on_error(repr(exc))
        return None

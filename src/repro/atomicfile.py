"""Durable, never-fail cache entries: the one persistence contract.

Every cache in the package — the flat-file
:class:`repro.sim.parallel.ResultCache`, the converted-trace
:class:`repro.ingest.cache.IngestCache` and the sqlite
:class:`repro.store.SqliteResultStore` — keeps the same rules:

* writes are atomic: :func:`write_atomic` renames a PID-tagged temp
  file into place, so readers see the old entry or the new one;
* a put never fails the caller: on :data:`PUT_FAILURES` it removes its
  temp file and returns ``False`` for the cache to count;
* a read never fails the caller: :func:`read_entry` turns any failure
  to load or decode an entry into a miss;
* :func:`reap_stale_tmp` removes temp files of crashed writers.

Result payloads are pickles (:func:`encode` / :func:`decode`),
whichever backend stores the bytes.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "PUT_FAILURES", "STALE_TMP_AGE_S", "decode", "encode", "pid_alive",
    "read_entry", "reap_stale_tmp", "write_atomic",
]

#: A temp file older than this is reaped regardless of whether its PID
#: is alive: writers hold temp files for milliseconds, and a dead
#: writer's PID can be recycled by an unrelated live process, so
#: liveness alone would strand the file forever.
STALE_TMP_AGE_S = 3600.0

#: Exceptions a put swallows (and the cache counts on ``puts_failed``)
#: instead of failing the sweep.  I/O failures (``OSError``: disk full,
#: read-only root) and serialization failures (``pickle.PicklingError``
#: and the ``TypeError``/``AttributeError``/``ValueError`` pickle also
#: raises for unpicklable objects, plus ``RecursionError`` and
#: ``MemoryError`` on pathological payloads) all land here: the
#: never-fail contract is about the *sweep*, not the entry.
PUT_FAILURES = (
    OSError,
    pickle.PickleError,
    TypeError,
    AttributeError,
    ValueError,
    RecursionError,
    MemoryError,
)

#: Temp files are named ``<key>.tmp.<pid>[suffix]``.
_TMP_MARK = ".tmp."


def encode(value: Any) -> bytes:
    """The stored bytes of a result payload."""
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode(data: bytes) -> Any:
    """The payload :func:`encode` stored in ``data``."""
    return pickle.loads(data)


def read_entry(load: Callable[[], Any], kind: type) -> Any | None:
    """``load()`` when it returns a ``kind``; ``None`` (a miss) otherwise.

    Any exception ``load`` raises is a miss: an entry that cannot be
    read back is as good as absent, and is recomputed.
    """
    try:
        value = load()
    except Exception:
        return None
    return value if isinstance(value, kind) else None


def _tmp_pid(name: str) -> int | None:
    """The writer PID in a temp-file name, or ``None`` for other names."""
    _, mark, rest = name.partition(_TMP_MARK)
    digits = rest.split(".", 1)[0]
    if not mark or not (digits.isascii() and digits.isdigit()):
        return None
    return int(digits)


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` may name a live process.

    Only a definite "no such process" counts as dead: a PID owned by
    another user, or one too large for the OS to address, is kept.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):
        return True
    return True


def write_atomic(
    path: Path, write: Callable[[Path], Any], suffix: str = ""
) -> bool:
    """Write ``path`` by calling ``write(tmp)`` and renaming into place.

    ``tmp`` is ``<key>.tmp.<pid><suffix>`` beside ``path``, ``key``
    being ``path``'s stem; ``suffix`` serves writers that insist on an
    extension (``numpy.savez`` wants ``.npz``).  Returns ``False``
    instead of raising :data:`PUT_FAILURES`, leaving no temp file.
    """
    tmp = path.with_name(f"{path.stem}{_TMP_MARK}{os.getpid()}{suffix}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write(tmp)
        os.replace(tmp, path)
    except PUT_FAILURES:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        return False
    return True


def reap_stale_tmp(root: Path) -> int:
    """Remove stranded temp files under ``root/<shard>/``.

    A temp file is stranded when its writer PID is dead, or when it is
    older than :data:`STALE_TMP_AGE_S` whatever its PID says.  Returns
    the number of files removed.
    """
    if not root.is_dir():
        return 0
    try:
        candidates = list(root.glob(f"*/*{_TMP_MARK}*"))
    except OSError:
        return 0
    now = time.time()
    removed = 0
    for tmp in candidates:
        pid = _tmp_pid(tmp.name)
        if pid is None:
            continue
        try:
            fresh = now - tmp.stat().st_mtime < STALE_TMP_AGE_S
        except OSError:
            continue
        if fresh and pid_alive(pid):
            continue
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            continue
        removed += 1
    return removed

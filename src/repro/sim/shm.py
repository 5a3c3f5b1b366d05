"""Zero-copy trace distribution for sweep execution, over mapped files.

A sweep over one trace used to pickle the full run arrays to a worker
for *every* cell: O(cells x trace bytes) of pure dispatch overhead.
This module makes trace bytes cross the process boundary at most once
per unique trace:

* :class:`SharedTraceArena` writes each unique trace's
  ``pages/blocks/counts/writes`` arrays once, packed into one file
  under the system temp directory, and hands back a tiny
  :class:`TraceHandle`.
* :class:`TraceHandle` is what jobs ship instead of the arrays: a
  fingerprint, the file path, and per-array dtype/length/offset specs.
  Workers map the file zero-copy (``numpy.memmap``) and rebuild a
  :class:`~repro.trace.compress.RunTrace` over the mapping.
* :func:`cached_trace` is the worker-side per-process LRU of
  materialized traces, keyed by fingerprint.  A 50-cell sweep over one
  trace deserializes it zero times instead of 50, and the cached
  ``RunTrace`` keeps its :class:`~repro.trace.compress.TraceColumns`
  caches warm across cells.

Lifecycle safety: the arena removes its files on
:meth:`SharedTraceArena.close`, which the owning
:class:`~repro.sim.parallel.WorkerPool` calls on scope exit and which is
also registered with :mod:`atexit`.  File names embed the publishing
PID, so :func:`reap_orphans` can clean up after a crashed process
(``kill -9`` never runs ``atexit``).
"""

from __future__ import annotations

import atexit
import itertools
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.atomicfile import pid_alive, write_atomic
from repro.trace.compress import RunTrace

#: Prefix of every file the arena creates.  Names are
#: ``<prefix>_<pid>_<seq>.bin`` so orphan reaping can tell whether the
#: publishing process is still alive.
FILE_PREFIX = "repro_shm"

#: The trace arrays packed into a file, in layout order.
_ARRAY_FIELDS = ("pages", "blocks", "counts", "writes")

#: Per-array alignment inside a file.
_ALIGN = 64

#: Capacity of the worker-side materialized-trace LRU.
WORKER_CACHE_CAPACITY = 8


def default_spill_dir() -> Path:
    """Where the arena writes its files."""
    return Path(tempfile.gettempdir()) / "repro-trace-spill"


# -- handles ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceHandle:
    """A by-reference description of a published trace.

    Pickles in a few hundred bytes regardless of trace size.  ``arrays``
    holds ``(field, dtype_str, length, byte_offset)`` specs for the four
    run arrays inside the file at ``path``.
    """

    fingerprint: str
    path: str
    arrays: tuple[tuple[str, str, int, int], ...]
    page_bytes: int
    block_bytes: int
    dilation: float
    name: str
    nbytes: int

    def materialize(self) -> RunTrace:
        """Map the file zero-copy and return the trace over it.

        The mapping lives as long as the trace's arrays and is released
        by the garbage collector; it never removes the file — only the
        publishing arena does that.
        """
        buf = np.memmap(self.path, dtype=np.uint8, mode="r")
        columns = {}
        for field, dtype, length, offset in self.arrays:
            arr = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=buf, offset=offset
            )
            if arr.flags.writeable:
                arr.flags.writeable = False
            columns[field] = arr
        return RunTrace(
            pages=columns["pages"],
            blocks=columns["blocks"],
            counts=columns["counts"],
            writes=columns["writes"],
            page_bytes=self.page_bytes,
            block_bytes=self.block_bytes,
            dilation=self.dilation,
            name=self.name,
        )


def _layout(trace: RunTrace) -> tuple[list[tuple], int]:
    """Packed single-buffer layout for the trace arrays."""
    specs, offset = [], 0
    for field in _ARRAY_FIELDS:
        arr = np.ascontiguousarray(getattr(trace, field))
        offset = -(-offset // _ALIGN) * _ALIGN
        specs.append((field, arr, arr.dtype.str, len(arr), offset))
        offset += arr.nbytes
    return specs, max(offset, 1)


# -- the arena --------------------------------------------------------------


class SharedTraceArena:
    """Publishes traces into mapped files, once per unique content.

    The arena owns every file it creates and is the only thing that
    removes them.  Publishing is memoized on :meth:`RunTrace.fingerprint`,
    so equal-content trace objects share one file.  When a write fails
    (the directory cannot be created, the disk is full) the arena turns
    itself off for good and :meth:`publish` returns ``None``, letting
    callers fall back to per-cell pickling.
    """

    def __init__(self, spill_dir: str | os.PathLike | None = None) -> None:
        self.spill_dir = (
            Path(spill_dir) if spill_dir is not None else default_spill_dir()
        )
        self._handles: dict[str, TraceHandle] = {}
        self._seq = itertools.count()
        self._live = True
        reap_orphans(self.spill_dir)
        atexit.register(self.close)

    def __enter__(self) -> "SharedTraceArena":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def published_count(self) -> int:
        return len(self._handles)

    @property
    def published_bytes(self) -> int:
        return sum(h.nbytes for h in self._handles.values())

    def publish(self, trace: RunTrace) -> TraceHandle | None:
        """Publish (or look up) a trace; ``None`` means arena disabled."""
        if not self._live:
            return None
        fingerprint = trace.fingerprint()
        handle = self._handles.get(fingerprint)
        if handle is not None:
            return handle
        specs, nbytes = _layout(trace)
        buf = bytearray(nbytes)
        for _, arr, dtype, length, offset in specs:
            np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=buf, offset=offset
            )[:] = arr
        path = (
            self.spill_dir
            / f"{FILE_PREFIX}_{os.getpid()}_{next(self._seq)}.bin"
        )
        # An atomic write leaves no partial file behind when it fails.
        if not write_atomic(path, lambda tmp: tmp.write_bytes(buf)):
            self._live = False
            return None
        handle = self._handles[fingerprint] = TraceHandle(
            fingerprint=fingerprint,
            path=str(path),
            arrays=tuple(
                (field, dtype, length, offset)
                for field, _, dtype, length, offset in specs
            ),
            page_bytes=trace.page_bytes,
            block_bytes=trace.block_bytes,
            dilation=trace.dilation,
            name=trace.name,
            nbytes=nbytes,
        )
        return handle

    def close(self) -> None:
        """Remove every file the arena wrote.

        Idempotent.  Workers still holding a mapping keep their view
        (POSIX semantics: unlink removes the name, not live mappings).
        """
        self._live = False
        for handle in self._handles.values():
            try:
                os.unlink(handle.path)
            except OSError:
                pass
        self._handles.clear()
        atexit.unregister(self.close)


# -- orphan reaping ---------------------------------------------------------


def _publisher_pid(name: str) -> int | None:
    """The PID in ``<prefix>_<pid>_...``, or ``None`` for other names."""
    pid, sep, _ = name[len(FILE_PREFIX) + 1:].partition("_")
    if not sep or not (pid.isascii() and pid.isdigit()):
        return None
    return int(pid)


def reap_orphans(spill_dir: str | os.PathLike | None = None) -> int:
    """Remove arena files whose publishing PID is dead.

    Normal cleanup happens in :meth:`SharedTraceArena.close` (and its
    ``atexit`` hook); this catches publishers that died without running
    either.  Called on every arena construction; safe to call any time.
    Returns the number of files removed.

    The rule is PID-only, unlike the caches' temp-file reaping
    (:func:`repro.atomicfile.reap_stale_tmp`), which also removes any
    temp file past an age limit: a cache temp file lives for one write,
    but a live publisher's files stay mapped as long as their pool lives,
    often hours, so age says nothing about whether they are orphaned.
    """
    spill = Path(spill_dir) if spill_dir is not None else default_spill_dir()
    try:
        candidates = list(spill.glob(f"{FILE_PREFIX}_*"))
    except OSError:
        return 0
    removed = 0
    for path in candidates:
        pid = _publisher_pid(path.name)
        if pid is None or pid_alive(pid):
            continue
        try:
            path.unlink(missing_ok=True)
        except OSError:
            continue
        removed += 1
    return removed


# -- worker-side materialized-trace LRU -------------------------------------

#: fingerprint -> trace.  Per process; workers of a persistent pool keep
#: it warm across batches.
_TRACE_LRU: "OrderedDict[str, RunTrace]" = OrderedDict()


def _evict_oldest() -> None:
    # The derived column lists dwarf the zero-copy run arrays, so drop
    # them eagerly rather than waiting for every stray trace reference
    # to die.
    _, old_trace = _TRACE_LRU.popitem(last=False)
    old_trace._cols.clear()


def cached_trace(key: str, build: Callable[[], RunTrace]) -> RunTrace:
    """The process-local materialized trace for ``key`` (LRU, built once).

    Because the same ``RunTrace`` object is returned for every cell, its
    ``TraceColumns`` cache persists across the cells a worker executes.
    """
    trace = _TRACE_LRU.get(key)
    if trace is not None:
        _TRACE_LRU.move_to_end(key)
        return trace
    trace = _TRACE_LRU[key] = build()
    while len(_TRACE_LRU) > WORKER_CACHE_CAPACITY:
        _evict_oldest()
    return trace


def clear_trace_cache() -> None:
    """Drop the process-local trace LRU (tests, memory-pressure relief)."""
    while _TRACE_LRU:
        _evict_oldest()

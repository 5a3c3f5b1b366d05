"""Zero-copy shared-memory trace distribution for sweep execution.

A sweep over one trace used to pickle the full run arrays to a worker
for *every* cell: O(cells x trace bytes) of pure dispatch overhead.
This module makes trace bytes cross the process boundary at most once
per unique trace:

* :class:`SharedTraceArena` publishes each unique trace's
  ``pages/blocks/counts/writes`` arrays once — into a
  ``multiprocessing.shared_memory`` segment when the platform has one,
  spilling to an mmap-backed file under the system temp directory when
  it does not — and hands back a tiny :class:`TraceHandle`.
* :class:`TraceHandle` is what jobs ship instead of the arrays: a
  fingerprint, the segment (or spill file) name, and per-array
  dtype/length/offset specs.  Workers attach zero-copy and rebuild a
  :class:`~repro.trace.compress.RunTrace` over the shared buffer.
* :func:`cached_trace` is the worker-side per-process LRU of
  materialized traces, keyed by fingerprint.  A 50-cell sweep over one
  trace deserializes it zero times instead of 50, and the cached
  ``RunTrace`` keeps its :class:`~repro.trace.compress.TraceColumns`
  caches warm across cells.

Lifecycle safety: the arena unlinks its segments (and removes spill
files) on :meth:`SharedTraceArena.close`, which the owning
:class:`~repro.sim.parallel.WorkerPool` calls on scope exit and which is
also registered with :mod:`atexit`.  Segment names embed the publishing
PID, so :func:`reap_orphans` can clean up after a crashed process
(``kill -9`` never runs ``atexit``).

Environment knobs: ``REPRO_SHM=0`` disables the arena entirely (jobs
fall back to per-cell pickling), ``REPRO_SHM=spill`` forces the
mmap-spill path, and ``REPRO_SHM_WORKER_CACHE`` sizes the per-worker
materialized-trace LRU (default 8).
"""

from __future__ import annotations

import atexit
import itertools
import os
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from pathlib import Path
from typing import Callable

import numpy as np

from repro.trace.compress import RunTrace

#: Environment variable controlling the arena ("0"/"off" disables,
#: "spill" forces the mmap-backed file path, anything else enables shm).
ENV_SHM = "REPRO_SHM"

#: Environment variable sizing the per-worker materialized-trace LRU.
ENV_WORKER_CACHE = "REPRO_SHM_WORKER_CACHE"

#: Prefix of every segment / spill file the arena creates.  Names are
#: ``<prefix>_<pid>_<seq>`` so orphan reaping can tell whether the
#: publishing process is still alive.
SEGMENT_PREFIX = "repro_shm"

#: The trace arrays published into a segment, in layout order.
_ARRAY_FIELDS = ("pages", "blocks", "counts", "writes")

#: Per-array alignment inside a segment.
_ALIGN = 64

#: Default capacity of the worker-side materialized-trace LRU.
DEFAULT_WORKER_CACHE = 8

#: Key under which an attached segment rides in ``RunTrace._cols`` so
#: the mapping lives exactly as long as the trace built over it.
_SEGMENT_KEY = "shm_segment"


class _untracked_attach:
    """Attach to a segment without registering it for tracker cleanup.

    Python 3.11's ``SharedMemory`` registers the segment with the
    ``multiprocessing`` resource tracker on *attach* as well as on
    create, which both spams "leaked shared_memory" warnings at worker
    shutdown and — because the tracker's cache is a set — unbalances
    the publisher's own register/unregister pair.  Only the publishing
    arena may unlink, so attaches suppress registration entirely
    (equivalent to 3.13's ``track=False``).

    The patch is process-global, so it must be reentrant and
    exception-safe: a class-level lock plus a depth counter mean
    concurrent attaches (threads sharing a process) nest instead of
    racing — naive per-instance save/restore lets a second thread save
    the no-op as "the original" and permanently install it — and the
    real ``register`` is restored by whichever exit brings the depth
    back to zero, even when ``SharedMemory()`` raises inside the block.
    """

    _lock = threading.Lock()
    _depth = 0
    _saved: Callable | None = None

    def __enter__(self):
        from multiprocessing import resource_tracker

        cls = _untracked_attach
        with cls._lock:
            if cls._depth == 0:
                cls._saved = resource_tracker.register
                resource_tracker.register = lambda *args, **kwargs: None
            cls._depth += 1
        return self

    def __exit__(self, *exc_info):
        from multiprocessing import resource_tracker

        cls = _untracked_attach
        with cls._lock:
            cls._depth -= 1
            if cls._depth == 0:
                resource_tracker.register = cls._saved
                cls._saved = None


def arena_mode() -> str:
    """The arena mode ``REPRO_SHM`` asks for: ``shm``/``spill``/``off``."""
    raw = os.environ.get(ENV_SHM, "").strip().lower()
    if raw in ("0", "off", "no", "false"):
        return "off"
    if raw == "spill":
        return "spill"
    return "shm"


def default_spill_dir() -> Path:
    """Where spill files live when shared memory is unavailable."""
    return Path(tempfile.gettempdir()) / "repro-trace-spill"


def worker_cache_capacity() -> int:
    """LRU capacity from ``REPRO_SHM_WORKER_CACHE`` (default 8).

    Malformed or non-positive values degrade to the default with a
    warning (:mod:`repro.envknobs`): a capacity of ``-1`` is nonsense
    for this knob, not a request for the minimum.
    """
    from repro.envknobs import env_int

    return env_int(ENV_WORKER_CACHE, DEFAULT_WORKER_CACHE, minimum=1)


# -- handles ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TraceHandle:
    """A by-reference description of a published trace.

    Pickles in a few hundred bytes regardless of trace size.  Exactly
    one of ``segment`` (a ``multiprocessing.shared_memory`` name) and
    ``spill_path`` (an mmap-backed file) is set; ``arrays`` holds
    ``(field, dtype_str, length, byte_offset)`` specs for the four run
    arrays inside that buffer.
    """

    fingerprint: str
    segment: str | None
    spill_path: str | None
    arrays: tuple[tuple[str, str, int, int], ...]
    page_bytes: int
    block_bytes: int
    dilation: float
    name: str
    nbytes: int

    def attach(self) -> tuple[RunTrace, Callable[[], None] | None]:
        """Attach zero-copy; returns the trace and an optional closer.

        The segment object is stashed in the trace's cache dict, so the
        mapping lives exactly as long as the trace; the closer releases
        it early once the trace has been dropped (it never unlinks —
        only the publishing arena does that).  Spill mappings are
        released by the garbage collector, so their closer is ``None``.
        """
        closer: Callable[[], None] | None = None
        seg: shared_memory.SharedMemory | None = None
        if self.segment is not None:
            with _untracked_attach():
                seg = shared_memory.SharedMemory(name=self.segment)
            buf = seg.buf

            def closer() -> None:
                try:
                    seg.close()
                except (BufferError, OSError):
                    pass

        else:
            buf = np.memmap(self.spill_path, dtype=np.uint8, mode="r")
        columns = {}
        for field, dtype, length, offset in self.arrays:
            arr = np.ndarray(
                (length,), dtype=np.dtype(dtype), buffer=buf, offset=offset
            )
            if arr.flags.writeable:
                arr.flags.writeable = False
            columns[field] = arr
        trace = RunTrace(
            pages=columns["pages"],
            blocks=columns["blocks"],
            counts=columns["counts"],
            writes=columns["writes"],
            page_bytes=self.page_bytes,
            block_bytes=self.block_bytes,
            dilation=self.dilation,
            name=self.name,
        )
        if seg is not None:
            trace._cols[_SEGMENT_KEY] = seg
        return trace, closer

    def materialize(self) -> RunTrace:
        """Attach and return the trace (mapping lives as long as it)."""
        trace, _ = self.attach()
        return trace


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
    """Publishes traces into shared buffers, once per unique content.

    The arena owns every segment/spill file it creates and is the only
    thing that unlinks them.  Publishing is memoized on
    :meth:`RunTrace.fingerprint`, so equal-content trace objects share
    one segment.  When segment creation fails (no ``/dev/shm``,
    permissions) the arena degrades to the spill path; when that fails
    too it turns itself off and :meth:`publish` returns ``None``,
    letting callers fall back to per-cell pickling.
    """

    def __init__(
        self,
        mode: str | None = None,
        spill_dir: str | os.PathLike | None = None,
    ) -> None:
        self.mode = arena_mode() if mode is None else mode
        self.spill_dir = (
            Path(spill_dir) if spill_dir is not None else default_spill_dir()
        )
        self._handles: dict[str, TraceHandle] = {}
        self._segments: list[shared_memory.SharedMemory] = []
        self._spill_files: list[Path] = []
        self._seq = itertools.count()
        self._closed = False
        if self.mode != "off":
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
        if self.mode == "off" or self._closed:
            return None
        fingerprint = trace.fingerprint()
        handle = self._handles.get(fingerprint)
        if handle is not None:
            return handle
        specs, nbytes = _layout(trace)
        if self.mode == "shm":
            handle = self._publish_shm(trace, fingerprint, specs, nbytes)
            if handle is None:
                self.mode = "spill"
        if handle is None and self.mode == "spill":
            handle = self._publish_spill(trace, fingerprint, specs, nbytes)
            if handle is None:
                self.mode = "off"
                return None
        self._handles[fingerprint] = handle
        return handle

    def _next_name(self) -> str:
        return f"{SEGMENT_PREFIX}_{os.getpid()}_{next(self._seq)}"

    def _publish_shm(
        self, trace: RunTrace, fingerprint: str, specs: list, nbytes: int
    ) -> TraceHandle | None:
        seg = None
        for _ in range(8):
            try:
                seg = shared_memory.SharedMemory(
                    name=self._next_name(), create=True, size=nbytes
                )
                break
            except FileExistsError:
                continue
            except (OSError, ValueError):
                return None
        if seg is None:
            return None
        for _, arr, dtype, length, offset in specs:
            np.ndarray(
                (length,), dtype=np.dtype(dtype),
                buffer=seg.buf, offset=offset,
            )[:] = arr
        self._segments.append(seg)
        return self._handle_for(
            trace, fingerprint, specs, nbytes, segment=seg.name
        )

    def _publish_spill(
        self, trace: RunTrace, fingerprint: str, specs: list, nbytes: int
    ) -> TraceHandle | None:
        try:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            path = self.spill_dir / f"{self._next_name()}.bin"
            buf = bytearray(nbytes)
            for _, arr, dtype, length, offset in specs:
                np.ndarray(
                    (length,), dtype=np.dtype(dtype),
                    buffer=buf, offset=offset,
                )[:] = arr
            path.write_bytes(buf)
        except OSError:
            return None
        self._spill_files.append(path)
        return self._handle_for(
            trace, fingerprint, specs, nbytes, spill_path=str(path)
        )

    def _handle_for(
        self, trace, fingerprint, specs, nbytes,
        segment=None, spill_path=None,
    ) -> TraceHandle:
        return TraceHandle(
            fingerprint=fingerprint,
            segment=segment,
            spill_path=spill_path,
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

    def close(self) -> None:
        """Unlink every segment and remove every spill file.

        Idempotent.  Workers still holding a mapping keep their view
        (POSIX semantics: unlink removes the name, not live mappings).
        """
        if self._closed:
            return
        self._closed = True
        self._handles.clear()
        for seg in self._segments:
            try:
                seg.close()
            except (BufferError, OSError):
                pass
            try:
                seg.unlink()
            except (FileNotFoundError, OSError):
                pass
        self._segments = []
        for path in self._spill_files:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        self._spill_files = []
        try:
            atexit.unregister(self.close)
        except Exception:
            pass


# -- orphan reaping ---------------------------------------------------------


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


def _reap_file(path: Path) -> bool:
    parts = path.name.split("_")
    if len(parts) < 3:
        return False
    try:
        pid = int(parts[2].split(".")[0] if len(parts) == 3 else parts[2])
    except ValueError:
        return False
    if _pid_alive(pid):
        return False
    try:
        path.unlink(missing_ok=True)
    except OSError:
        return False
    return True


def reap_orphans(spill_dir: str | os.PathLike | None = None) -> int:
    """Remove arena segments/spill files whose publishing PID is dead.

    Normal cleanup happens in :meth:`SharedTraceArena.close` (and its
    ``atexit`` hook); this catches publishers that died without running
    either.  Called on every arena construction; safe to call any time.
    Returns the number of files removed.
    """
    removed = 0
    shm_root = Path("/dev/shm")
    if shm_root.is_dir():
        try:
            candidates = list(shm_root.glob(f"{SEGMENT_PREFIX}_*"))
        except OSError:
            candidates = []
        for path in candidates:
            removed += _reap_file(path)
    spill = Path(spill_dir) if spill_dir is not None else default_spill_dir()
    if spill.is_dir():
        try:
            candidates = list(spill.glob(f"{SEGMENT_PREFIX}_*"))
        except OSError:
            candidates = []
        for path in candidates:
            removed += _reap_file(path)
    return removed


# -- worker-side materialized-trace LRU -------------------------------------

#: fingerprint -> (trace, closer).  Per process; workers of a persistent
#: pool keep it warm across batches.
_TRACE_LRU: "OrderedDict[str, tuple[RunTrace, Callable[[], None] | None]]"
_TRACE_LRU = OrderedDict()


def cached_trace(
    key: str,
    build: Callable[[], tuple[RunTrace, Callable[[], None] | None]],
) -> RunTrace:
    """The process-local materialized trace for ``key`` (LRU, built once).

    ``build`` returns ``(trace, closer)``; the closer (may be ``None``)
    runs when the entry is evicted.  Because the same ``RunTrace``
    object is returned for every cell, its ``TraceColumns`` cache
    persists across the cells a worker executes.
    """
    entry = _TRACE_LRU.get(key)
    if entry is not None:
        _TRACE_LRU.move_to_end(key)
        return entry[0]
    trace, closer = build()
    _TRACE_LRU[key] = (trace, closer)
    capacity = worker_cache_capacity()
    while len(_TRACE_LRU) > capacity:
        _, (old_trace, old_closer) = _TRACE_LRU.popitem(last=False)
        # The derived column lists dwarf the zero-copy run arrays, so
        # drop them eagerly rather than waiting for every stray trace
        # reference to die.
        old_trace._cols.clear()
        del old_trace
        if old_closer is not None:
            old_closer()
    return trace


def clear_trace_cache() -> None:
    """Drop the process-local trace LRU (tests, memory-pressure relief)."""
    while _TRACE_LRU:
        _, (old_trace, old_closer) = _TRACE_LRU.popitem(last=False)
        old_trace._cols.clear()
        del old_trace
        if old_closer is not None:
            old_closer()

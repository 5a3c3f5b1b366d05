"""Content-fingerprinted on-disk cache of converted traces.

Converting a multi-gigabyte lackey dump into a :class:`RunTrace` costs
minutes; re-running a sweep over it should not.  :class:`IngestCache`
stores each converted trace as a ``.npz`` (via
:mod:`repro.trace.encode`) under ``root/<key[:2]>/<key>.npz``, keyed by
a sha256 over the ingest-format version, the resolved reader name, the
conversion options, and a hash of the **decompressed** input bytes —
the same content-keying discipline as
:class:`repro.sim.parallel.ResultCache`, so gzip and plain copies of
one stream share a single cache entry and any change to the input or
the options misses automatically.

The cache never fails a conversion, under the one contract every cache
shares (:mod:`repro.atomicfile`): writes are atomic, a put that cannot
complete is counted on ``puts_failed`` and never raises, unreadable
entries are counted misses, and temp files stranded by crashed writers
are reaped on construction.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from repro import atomicfile
from repro.trace.compress import RunTrace
from repro.trace.encode import load_trace, save_trace

__all__ = ["INGEST_VERSION", "IngestCache", "ingest_key"]

#: Bump when the conversion semantics change (what a reader emits for a
#: given input, run-compression rules, ...) to invalidate old entries.
INGEST_VERSION = 1


def ingest_key(
    *,
    fmt: str,
    content_sha: str,
    page_bytes: int,
    block_bytes: int,
    dilation: float,
    name: str,
    include_instr: bool = False,
) -> str:
    """Cache key for one (input content, conversion options) pair.

    ``content_sha`` must hash the *decompressed* bytes so compression
    wrappers do not split the cache.  The chunk size is deliberately
    **not** part of the key: chunked conversion is bit-identical to
    whole-stream conversion (seam merging in
    :func:`repro.trace.compress.concatenate`), so chunking is an
    execution detail, not content.
    """
    digest = hashlib.sha256()
    parts = (
        f"ingest-v{INGEST_VERSION}",
        fmt,
        content_sha,
        str(page_bytes),
        str(block_bytes),
        repr(dilation),
        name,
        str(bool(include_instr)),
    )
    digest.update("|".join(parts).encode())
    return digest.hexdigest()


class IngestCache:
    """On-disk ``.npz`` cache of converted traces under ``root``."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts_failed = 0
        atomicfile.reap_stale_tmp(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    def get(self, key: str) -> RunTrace | None:
        """The cached trace for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        trace = atomicfile.read_entry(lambda: load_trace(path), RunTrace)
        if trace is None:
            self.misses += 1
        else:
            self.hits += 1
        return trace

    def put(self, key: str, trace: RunTrace) -> bool:
        """Write ``trace`` through; never raises.

        Returns ``False`` (and bumps ``puts_failed``) when the write
        could not complete — a full disk must cost a cache entry, not
        the conversion.
        """
        # ``save_trace`` insists on a ``.npz`` suffix, temp file too.
        if atomicfile.write_atomic(
            self._path(key), lambda tmp: save_trace(trace, tmp), ".npz"
        ):
            return True
        self.puts_failed += 1
        return False

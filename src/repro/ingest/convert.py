"""Streaming conversion of raw reference streams into :class:`RunTrace`.

The pipeline is *chunked end to end*: a format reader
(:mod:`repro.ingest.readers`) yields bounded ``(addresses, writes)``
chunks, each chunk is run-length compressed immediately via
:func:`repro.trace.compress.compress_references`, and the compressed
pieces are merged with :func:`repro.trace.compress.concatenate` — whose
seam merging makes the result **bit-identical** to compressing the
whole stream at once.  Peak memory is therefore bounded by one raw
chunk plus the (much smaller) compressed output, never the full
reference list.

Chunks hold :data:`DEFAULT_CHUNK_REFS` references unless
:func:`ingest_file` is given ``chunk_refs``; chunk size changes memory
and speed, never output bits.

Environment knob (parsed through :mod:`repro.envknobs`):

``REPRO_INGEST_CACHE``
    Directory of the converted-trace cache (default
    ``~/.cache/repro/ingest``, honouring ``XDG_CACHE_HOME``).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable

from repro.envknobs import env_str
from repro.errors import IngestError
from repro.ingest.cache import IngestCache, ingest_key
from repro.ingest.readers import (
    READERS,
    Chunk,
    open_stream,
    reader_names,
    sniff_format,
)
from repro.trace.compress import (
    FULL_PAGE_BYTES,
    MIN_SUBPAGE_BYTES,
    RunTrace,
    compress_references,
    concatenate,
)

__all__ = [
    "DEFAULT_CHUNK_REFS",
    "default_cache_dir",
    "default_trace_name",
    "ingest_file",
    "ingest_stream",
    "stream_content_sha",
]

#: Default references per chunk; ~2 MiB of raw address+flag data.
DEFAULT_CHUNK_REFS = 262_144

#: How many compressed pieces accumulate before an interim merge; keeps
#: the piece list (and the final concatenate) small without quadratic
#: re-merging.
_MERGE_EVERY = 64


def default_cache_dir() -> Path:
    """The configured converted-trace cache dir (``REPRO_INGEST_CACHE``)."""
    configured = env_str("REPRO_INGEST_CACHE")
    if configured:
        return Path(configured)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "ingest"


def default_trace_name(path: str | Path) -> str:
    """Trace name derived from a file name, compression-insensitive.

    Strips one ``.gz`` layer and then the format suffix, so
    ``app.trace`` and ``app.trace.gz`` name (and therefore fingerprint)
    identically.
    """
    name = Path(path).name
    if name.endswith(".gz"):
        name = name[: -len(".gz")]
    stem = name.rsplit(".", 1)[0]
    return stem or name


def stream_content_sha(path: str | Path) -> str:
    """sha256 of the *decompressed* bytes of ``path``, streamed."""
    digest = hashlib.sha256()
    with open_stream(path) as fh:
        while True:
            block = fh.read(1 << 20)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def ingest_stream(
    chunks: Iterable[Chunk],
    *,
    page_bytes: int = FULL_PAGE_BYTES,
    block_bytes: int = MIN_SUBPAGE_BYTES,
    dilation: float = 1.0,
    name: str = "ingested",
) -> RunTrace:
    """Compress an iterable of ``(addresses, writes)`` chunks.

    Bit-identical to calling :func:`compress_references` on the
    concatenated stream, for any chunking.
    """
    pieces: list[RunTrace] = []
    for addresses, writes in chunks:
        if addresses.size == 0:
            continue
        pieces.append(
            compress_references(
                addresses,
                writes,
                page_bytes=page_bytes,
                block_bytes=block_bytes,
                dilation=dilation,
                name=name,
            )
        )
        if len(pieces) >= _MERGE_EVERY:
            pieces = [concatenate(pieces, name=name)]
    if not pieces:
        return compress_references(
            [],
            page_bytes=page_bytes,
            block_bytes=block_bytes,
            dilation=dilation,
            name=name,
        )
    if len(pieces) == 1:
        return pieces[0]
    return concatenate(pieces, name=name)


def ingest_file(
    path: str | Path,
    *,
    fmt: str = "auto",
    page_bytes: int = FULL_PAGE_BYTES,
    block_bytes: int = MIN_SUBPAGE_BYTES,
    dilation: float = 1.0,
    name: str | None = None,
    chunk_refs: int | None = None,
    include_instr: bool = False,
    cache: IngestCache | str | Path | None = None,
) -> RunTrace:
    """Convert a trace file into a :class:`RunTrace`, cached on disk.

    ``fmt`` is one of :func:`repro.ingest.readers.reader_names` or
    ``"auto"`` (sniffed from content).  ``name`` defaults to the file
    name with compression and format suffixes stripped — part of the
    trace fingerprint, so plain and gzip copies of one stream
    fingerprint identically.  ``cache`` accepts an
    :class:`IngestCache`, a directory path, or ``None`` for no caching;
    pass :func:`default_cache_dir` for the environment-configured one.
    Binary dumps skip the cache: the key hashes every decompressed
    byte, and that costs more than converting the columnar dump.
    """
    path = Path(path)
    if not path.exists():
        raise IngestError(f"no trace file at {path}")
    if fmt == "auto":
        fmt = sniff_format(path)
    reader = READERS.get(fmt)
    if reader is None:
        raise IngestError(
            f"unknown trace format {fmt!r}; known formats: "
            f"{', '.join(reader_names())}"
        )
    if name is None:
        name = default_trace_name(path)
    if chunk_refs is None:
        chunk_refs = DEFAULT_CHUNK_REFS

    if fmt == "binary":
        cache = None
    if cache is not None and not isinstance(cache, IngestCache):
        cache = IngestCache(cache)
    key = None
    if cache is not None:
        key = ingest_key(
            fmt=fmt,
            content_sha=stream_content_sha(path),
            page_bytes=page_bytes,
            block_bytes=block_bytes,
            dilation=dilation,
            name=name,
            include_instr=include_instr,
        )
        cached = cache.get(key)
        if cached is not None:
            return cached

    with open_stream(path) as fh:
        trace = ingest_stream(
            reader(fh, chunk_refs, include_instr=include_instr),
            page_bytes=page_bytes,
            block_bytes=block_bytes,
            dilation=dilation,
            name=name,
        )

    if cache is not None and key is not None:
        cache.put(key, trace)
    return trace

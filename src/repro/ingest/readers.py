"""Streaming readers for raw memory-reference trace formats.

Each reader is a generator that yields ``(addresses, writes)`` chunk
pairs — a 1-D ``int64`` address array and a parallel ``bool`` write-flag
array — never holding more than one chunk of raw references in memory.
The chunks feed :func:`repro.ingest.convert.ingest_stream`, which
run-length compresses each chunk and merges the seams, so chunked
ingestion is bit-identical to compressing the whole stream at once.

Three formats are understood:

``lackey``
    Valgrind ``lackey --trace-mem=yes`` ASCII output.  Data lines are
    ``<mode> <hexaddr>,<size>`` with mode ``L`` (load), ``S`` (store)
    or ``M`` (modify, emitted as a read followed by a write);
    instruction-fetch lines (``I``) are skipped unless
    ``include_instr`` is set.  Valgrind banner lines (``==pid==``) and
    blank lines are ignored.

``cachegrind``
    A simple ``<mode> <address> [size]`` line format in the style of
    cachegrind/dinero feeds: mode ``R``/``0`` is a read, ``W``/``1`` a
    write, ``I``/``2`` an instruction fetch (skipped unless
    ``include_instr``).  Addresses are ``0x``-prefixed hex or decimal.

``binary``
    The columnar dump format written by :func:`write_binary_dump`:
    the magic ``REPRODUMP1\\n`` followed by records of
    ``<u32 n><n x u64 addresses><n x u8 write flags>`` (little-endian).

All readers accept a *binary* file object; :func:`open_stream` opens a
path with transparent gzip decompression (sniffed from the two magic
bytes, independent of the file name).  Malformed input raises
:class:`~repro.errors.IngestError` naming the 1-based line number (text
formats) or the byte offset (binary).
"""

from __future__ import annotations

import gzip
import io
import struct
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

import numpy as np

from repro.errors import IngestError

__all__ = [
    "READERS",
    "open_stream",
    "reader_names",
    "read_binary",
    "read_cachegrind",
    "read_lackey",
    "sniff_format",
    "write_binary_dump",
]

Chunk = tuple[np.ndarray, np.ndarray]

#: Magic prefix of the binary columnar dump format.
BINARY_MAGIC = b"REPRODUMP1\n"

#: Gzip member header magic.
GZIP_MAGIC = b"\x1f\x8b"

#: Sanity cap on a single binary record; a corrupt length field must
#: not make the reader try to materialize gigabytes.
MAX_BINARY_RECORD = 1 << 26

_LACKEY_MODES = {"L": (False,), "S": (True,), "M": (False, True)}
_CG_READ = {"R", "r", "0"}
_CG_WRITE = {"W", "w", "1"}
_CG_INSTR = {"I", "i", "2"}


def open_stream(path: str | Path) -> BinaryIO:
    """Open ``path`` for binary reading, transparently gunzipping.

    Compression is sniffed from the leading magic bytes, not the file
    name, so ``foo.trace`` and ``foo.trace.gz`` holding the same bytes
    read identically.
    """
    raw = open(path, "rb")
    try:
        head = raw.read(2)
        raw.seek(0)
    except OSError:
        raw.close()
        raise
    if head == GZIP_MAGIC:
        # Let GzipFile own a fresh handle so closing it closes the file.
        raw.close()
        return gzip.open(path, "rb")  # type: ignore[return-value]
    return raw


def sniff_format(path: str | Path) -> str:
    """Guess the trace format of ``path`` from its first bytes.

    Returns one of the :data:`READERS` names.  Raises
    :class:`IngestError` when no reader recognises the content.
    """
    with open_stream(path) as fh:
        head = fh.read(4096)
    if head.startswith(BINARY_MAGIC):
        return "binary"
    try:
        text = head.decode("ascii", errors="strict")
    except UnicodeDecodeError:
        raise IngestError(
            f"{path}: unrecognised trace format "
            "(not REPRODUMP binary, not ASCII text)"
        ) from None
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith(("=", "-", "#")):
            continue
        fields = line.split()
        if not fields:
            continue
        mode = fields[0]
        if mode in _LACKEY_MODES and len(fields) == 2 and "," in fields[1]:
            return "lackey"
        if mode == "I" and len(fields) == 2 and "," in fields[1]:
            return "lackey"
        if mode in (_CG_READ | _CG_WRITE | _CG_INSTR) and len(fields) >= 2:
            return "cachegrind"
        break
    raise IngestError(
        f"{path}: unrecognised trace format; known formats: "
        f"{', '.join(reader_names())}"
    )


def _text_lines(fh: BinaryIO) -> Iterator[tuple[int, str]]:
    """Yield ``(1-based line number, decoded line)`` from a byte stream."""
    text = io.TextIOWrapper(fh, encoding="ascii", errors="replace")
    for lineno, line in enumerate(text, start=1):
        yield lineno, line
    text.detach()


def _flush(addresses: list[int], writes: list[bool]) -> Chunk:
    chunk = (
        np.array(addresses, dtype=np.int64),
        np.array(writes, dtype=bool),
    )
    addresses.clear()
    writes.clear()
    return chunk


def read_lackey(
    fh: BinaryIO,
    chunk_refs: int,
    *,
    include_instr: bool = False,
) -> Iterator[Chunk]:
    """Stream valgrind-lackey ``--trace-mem=yes`` output in chunks."""
    addresses: list[int] = []
    writes: list[bool] = []
    for lineno, line in _text_lines(fh):
        stripped = line.strip()
        if not stripped or stripped.startswith(("=", "-")):
            continue
        fields = stripped.split()
        mode = fields[0]
        if mode == "I":
            if not include_instr:
                continue
            flags: tuple[bool, ...] = (False,)
        else:
            flags_or_none = _LACKEY_MODES.get(mode)
            if flags_or_none is None or len(fields) != 2:
                raise IngestError(
                    f"lackey line {lineno}: expected "
                    f"'<I|L|S|M> <hexaddr>,<size>', got {stripped!r}"
                )
            flags = flags_or_none
        if len(fields) != 2:
            raise IngestError(
                f"lackey line {lineno}: expected "
                f"'<I|L|S|M> <hexaddr>,<size>', got {stripped!r}"
            )
        addr_part = fields[1].split(",", 1)[0]
        try:
            addr = int(addr_part, 16)
        except ValueError:
            raise IngestError(
                f"lackey line {lineno}: bad hex address "
                f"{addr_part!r} in {stripped!r}"
            ) from None
        for flag in flags:
            addresses.append(addr)
            writes.append(flag)
        if len(addresses) >= chunk_refs:
            yield _flush(addresses, writes)
    if addresses:
        yield _flush(addresses, writes)


def read_cachegrind(
    fh: BinaryIO,
    chunk_refs: int,
    *,
    include_instr: bool = False,
) -> Iterator[Chunk]:
    """Stream ``<mode> <address> [size]`` cachegrind-style lines."""
    addresses: list[int] = []
    writes: list[bool] = []
    for lineno, line in _text_lines(fh):
        stripped = line.strip()
        if not stripped or stripped.startswith(("=", "-", "#")):
            continue
        fields = stripped.split()
        mode = fields[0]
        if mode in _CG_INSTR:
            if not include_instr:
                continue
            write = False
        elif mode in _CG_READ:
            write = False
        elif mode in _CG_WRITE:
            write = True
        else:
            raise IngestError(
                f"cachegrind line {lineno}: unknown mode {mode!r} "
                f"in {stripped!r} (expected R/W/I or 0/1/2)"
            )
        if len(fields) < 2:
            raise IngestError(
                f"cachegrind line {lineno}: missing address "
                f"in {stripped!r}"
            )
        try:
            addr = int(fields[1], 0)
        except ValueError:
            raise IngestError(
                f"cachegrind line {lineno}: bad address "
                f"{fields[1]!r} in {stripped!r}"
            ) from None
        addresses.append(addr)
        writes.append(write)
        if len(addresses) >= chunk_refs:
            yield _flush(addresses, writes)
    if addresses:
        yield _flush(addresses, writes)


def read_binary(
    fh: BinaryIO,
    chunk_refs: int,
    *,
    include_instr: bool = False,
) -> Iterator[Chunk]:
    """Stream the ``REPRODUMP1`` columnar dump format.

    ``include_instr`` is accepted for signature parity and ignored —
    the dump format carries data references only.
    """
    magic = fh.read(len(BINARY_MAGIC))
    offset = len(magic)
    if magic != BINARY_MAGIC:
        raise IngestError(
            f"binary dump: bad magic at offset 0 "
            f"(expected {BINARY_MAGIC!r}, got {magic!r})"
        )
    while True:
        header = fh.read(4)
        if not header:
            return
        if len(header) < 4:
            raise IngestError(
                f"binary dump: truncated record header at "
                f"byte offset {offset} ({len(header)} of 4 bytes)"
            )
        (n,) = struct.unpack("<I", header)
        offset += 4
        if n > MAX_BINARY_RECORD:
            raise IngestError(
                f"binary dump: record of {n} references at byte offset "
                f"{offset - 4} exceeds the sanity cap "
                f"({MAX_BINARY_RECORD}); corrupt length field?"
            )
        if n == 0:
            continue
        payload = fh.read(9 * n)
        if len(payload) < 9 * n:
            raise IngestError(
                f"binary dump: truncated record at byte offset "
                f"{offset} ({len(payload)} of {9 * n} payload bytes)"
            )
        offset += 9 * n
        raw_addr = np.frombuffer(payload, dtype="<u8", count=n)
        raw_writes = np.frombuffer(payload, dtype=np.uint8, offset=8 * n)
        # Re-chunk oversized records so memory stays bounded by the
        # caller's chunk size, not the writer's.
        for start in range(0, n, chunk_refs):
            stop = min(start + chunk_refs, n)
            yield (
                raw_addr[start:stop].astype(np.int64),
                raw_writes[start:stop].astype(bool),
            )


def write_binary_dump(
    path: str | Path,
    chunks: Iterator[Chunk] | list[Chunk],
    *,
    compress: bool = False,
) -> Path:
    """Write ``(addresses, writes)`` chunks as a ``REPRODUMP1`` file.

    The inverse of :func:`read_binary`; used by the CLI ``convert
    --to-dump`` path and by tests to fabricate inputs.
    """
    path = Path(path)
    opener: Callable = gzip.open if compress else open
    with opener(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        for addresses, writes in chunks:
            addresses = np.ascontiguousarray(addresses, dtype="<u8")
            writes = np.ascontiguousarray(writes, dtype=np.uint8)
            if addresses.shape != writes.shape:
                raise IngestError(
                    "binary dump: addresses and writes must parallel"
                )
            fh.write(struct.pack("<I", addresses.size))
            fh.write(addresses.tobytes())
            fh.write(writes.tobytes())
    return path


#: Registry of reader generators keyed by format name.
READERS: dict[str, Callable[..., Iterator[Chunk]]] = {
    "lackey": read_lackey,
    "cachegrind": read_cachegrind,
    "binary": read_binary,
}


def reader_names() -> tuple[str, ...]:
    """Sorted names of the registered trace formats."""
    return tuple(sorted(READERS))

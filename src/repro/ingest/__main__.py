"""CLI for the trace-ingestion frontend.

Usage::

    python -m repro.ingest convert TRACE [-o OUT.npz] [--format F]
    python -m repro.ingest info TRACE
    python -m repro.ingest formats

``convert`` parses a raw reference stream (gzip transparently
decompressed) into a ``RunTrace``, writes it as ``.npz`` when ``-o``
is given, and prints the content fingerprint — the key under which
sweep results over this trace are cached and stored.  ``info`` sniffs
the format and reports stream statistics without keeping the
references.  ``formats`` lists the registered readers.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import IngestError
from repro.ingest.cache import IngestCache
from repro.ingest.convert import (
    DEFAULT_CHUNK_REFS,
    default_cache_dir,
    ingest_file,
)
from repro.ingest.readers import READERS, open_stream, reader_names, sniff_format
from repro.trace.encode import save_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ingest",
        description="Convert raw memory-reference traces into RunTrace files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser(
        "convert", help="convert a raw trace into a RunTrace"
    )
    convert.add_argument("path", help="input trace file (optionally .gz)")
    convert.add_argument(
        "-o", "--output", help="write the converted trace to this .npz path"
    )
    convert.add_argument(
        "--format",
        default="auto",
        choices=("auto", *reader_names()),
        help="input format (default: sniffed from content)",
    )
    convert.add_argument(
        "--page-bytes", type=int, default=8192, help="page size (default 8192)"
    )
    convert.add_argument(
        "--block-bytes",
        type=int,
        default=256,
        help="run granularity (default 256)",
    )
    convert.add_argument(
        "--name", help="trace name (default: file name without suffixes)"
    )
    convert.add_argument(
        "--include-instr",
        action="store_true",
        help="keep instruction-fetch references (skipped by default)",
    )
    convert.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the converted-trace cache",
    )
    convert.add_argument(
        "--cache",
        help="converted-trace cache directory "
        "(default: REPRO_INGEST_CACHE or ~/.cache/repro/ingest)",
    )

    info = sub.add_parser("info", help="sniff a trace and report statistics")
    info.add_argument("path")
    info.add_argument(
        "--format", default="auto", choices=("auto", *reader_names())
    )

    sub.add_parser("formats", help="list registered trace formats")
    return parser


def _cmd_convert(args: argparse.Namespace) -> int:
    if args.no_cache:
        cache = None
    else:
        cache = IngestCache(args.cache or default_cache_dir())
    trace = ingest_file(
        args.path,
        fmt=args.format,
        page_bytes=args.page_bytes,
        block_bytes=args.block_bytes,
        name=args.name,
        include_instr=args.include_instr,
        cache=cache,
    )
    if args.output:
        out = save_trace(trace, args.output)
        print(f"wrote {out}")
    refs = int(trace.counts.sum()) if len(trace.counts) else 0
    print(f"name:        {trace.name}")
    print(f"runs:        {len(trace.pages)}")
    print(f"references:  {refs}")
    print(f"fingerprint: {trace.fingerprint()}")
    if cache is not None:
        print(
            f"cache:       {cache.root} "
            f"(hits={cache.hits} misses={cache.misses})"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    fmt = args.format if args.format != "auto" else sniff_format(args.path)
    reader = READERS[fmt]
    refs = writes = chunks = 0
    pages: set[int] = set()
    with open_stream(args.path) as fh:
        for addresses, write_flags in reader(fh, DEFAULT_CHUNK_REFS):
            chunks += 1
            refs += addresses.size
            writes += int(write_flags.sum())
            pages.update((addresses // 8192).tolist())
    print(f"format:      {fmt}")
    print(f"references:  {refs}")
    print(f"writes:      {writes}")
    print(f"pages (8K):  {len(pages)}")
    print(f"chunks:      {chunks} (chunk size {DEFAULT_CHUNK_REFS})")
    return 0


def _cmd_formats() -> int:
    for name in reader_names():
        doc = (READERS[name].__doc__ or "").strip().splitlines()
        print(f"{name:12s} {doc[0] if doc else ''}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "convert":
            return _cmd_convert(args)
        if args.command == "info":
            return _cmd_info(args)
        return _cmd_formats()
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Streaming trace-ingestion frontend.

Converts raw memory-reference streams — valgrind lackey ASCII,
cachegrind-style lines, or the ``REPRODUMP1`` binary columnar format,
each optionally gzipped — into the run-length-compressed
:class:`~repro.trace.compress.RunTrace` the simulators consume, in
bounded-memory chunks with an on-disk cache of converted traces.

Entry points:

* :func:`ingest_file` / :func:`ingest_stream` — the conversion API;
* ``python -m repro.ingest`` — the CLI (``convert``, ``info``,
  ``formats``);
* the ``ingest:<path>`` app-name syntax understood by
  :func:`repro.trace.synth.apps.build_app_trace`, which lets ingested
  traces flow through sweeps, experiments, and the service exactly
  like synthetic ones.

See ``docs/INGEST.md`` for the formats, knobs, and caching rules.
"""

from repro.errors import IngestError
from repro.ingest.cache import INGEST_VERSION, IngestCache, ingest_key
from repro.ingest.convert import (
    DEFAULT_CHUNK_REFS,
    default_cache_dir,
    default_trace_name,
    ingest_file,
    ingest_stream,
    stream_content_sha,
)
from repro.ingest.readers import (
    READERS,
    open_stream,
    reader_names,
    sniff_format,
    write_binary_dump,
)

__all__ = [
    "DEFAULT_CHUNK_REFS",
    "INGEST_VERSION",
    "IngestCache",
    "IngestError",
    "READERS",
    "default_cache_dir",
    "default_trace_name",
    "ingest_file",
    "ingest_key",
    "ingest_stream",
    "open_stream",
    "reader_names",
    "sniff_format",
    "stream_content_sha",
    "write_binary_dump",
]

#!/usr/bin/env python3
"""CI smoke for the trace-ingestion frontend.

Exercises the acceptance path end to end on the bundled lackey fixture:

1. convert the fixture plain and (runtime-)gzipped — fingerprints must
   be byte-identical and match the pinned value (conversion stability
   across commits);
2. share one ingest-cache entry between the two copies;
3. run a small sweep over the ingested trace through ``run_cells``
   with a ``ResultCache``;
4. rerun it — every cell must be served from the result cache with
   identical numbers;
5. time a cold conversion against a cached one on a 500k-reference
   lackey stream, in alternating rounds: the cached median must be
   the faster.  (Binary dumps skip the cache, so the claim is timed on
   text, where parsing dominates.)

Exits non-zero with a diagnostic on any mismatch.

    PYTHONPATH=src python tools/ingest_smoke.py
"""

from __future__ import annotations

import gzip
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, "src")

import numpy as np

from repro.ingest.cache import IngestCache
from repro.ingest.convert import ingest_file
from repro.sim.config import SimulationConfig
from repro.sim.parallel import ResultCache, SweepJob, run_cells

FIXTURE = Path("tests/data/lackey_small.trace")

#: Pinned fingerprint of the bundled fixture: conversion must be stable
#: across commits (bump deliberately with INGEST_VERSION changes).
PINNED = "sha:0bdfc6b1efbc15f3723a410f27102ef3e72d1f8ed08634111218c8080f10ca2d"


#: The timed cache check: stream length and alternating rounds.
TIMED_REFS = 500_000
TIMED_ROUNDS = 5


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def sweep_jobs(trace):
    return [
        SweepJob(
            key=f"sp_{size}",
            trace=trace,
            config=SimulationConfig(
                memory_pages=24,
                scheme="eager",
                subpage_bytes=size,
                event_ns=1000.0,
                use_trace_dilation=False,
            ),
        )
        for size in (4096, 1024, 256)
    ]


def write_timed_stream(path: Path) -> Path:
    """A lackey capture of ``TIMED_REFS`` references: 256 touches per
    256 B block, over 96 pages, every fifth block written."""
    blocks = (np.arange(TIMED_REFS) // 256) % (96 * 32)
    path.write_text("".join(
        f" {'S' if block % 5 == 0 else 'L'} {block * 256:x},8\n"
        for block in blocks.tolist()
    ))
    return path


def time_ingest_cache(workdir: Path) -> tuple[float, float]:
    """Median cold and cached conversion times (s), rounds alternating."""
    path = write_timed_stream(workdir / "timed.trace")
    cache = IngestCache(workdir / "timed-cache")
    ingest_file(path, cache=cache)  # fill the entry
    cold, warm = [], []
    for _ in range(TIMED_ROUNDS):
        for use, times in ((None, cold), (cache, warm)):
            started = time.perf_counter()
            ingest_file(path, cache=use)
            times.append(time.perf_counter() - started)
    if cache.hits != TIMED_ROUNDS:
        fail(f"cached conversions missed: {cache.hits} hits in "
             f"{TIMED_ROUNDS} rounds")
    return statistics.median(cold), statistics.median(warm)


def main() -> None:
    if not FIXTURE.exists():
        fail(f"fixture missing: {FIXTURE}")
    workdir = Path(tempfile.mkdtemp(prefix="ingest-smoke-"))
    try:
        # Keep the fixture's stem: the derived name feeds the
        # fingerprint, and the gzip copy must derive the same one.
        plain = workdir / FIXTURE.name
        shutil.copy(FIXTURE, plain)
        zipped = workdir / f"{FIXTURE.name}.gz"
        zipped.write_bytes(gzip.compress(plain.read_bytes()))

        cache = IngestCache(workdir / "ingest-cache")
        trace = ingest_file(plain, cache=cache)
        trace_gz = ingest_file(zipped, cache=cache)

        print(f"converted: {trace.name}, {trace.num_references} refs, "
              f"{trace.num_runs} runs")
        if trace.fingerprint() != trace_gz.fingerprint():
            fail("plain and gzip fingerprints differ: "
                 f"{trace.fingerprint()} vs {trace_gz.fingerprint()}")
        if trace.fingerprint() != PINNED:
            fail(f"fingerprint drifted from pin: {trace.fingerprint()} "
                 f"(expected {PINNED})")
        if (cache.hits, cache.misses) != (1, 1):
            fail("plain+gzip should share one ingest-cache entry "
                 f"(hits={cache.hits}, misses={cache.misses})")
        print("fingerprint pinned and shared across compression: OK")

        result_cache = ResultCache(workdir / "result-cache")
        events = []
        results = run_cells(
            sweep_jobs(trace), workers=1, cache=result_cache,
            progress=events.append,
        )
        if sorted(e.status for e in events) != ["done"] * 3:
            fail(f"expected 3 computed cells, got "
                 f"{[e.status for e in events]}")
        for key, result in results.items():
            print(f"  {key}: total {result.total_ms:.2f} ms, "
                  f"{result.page_faults} faults")

        rerun_events = []
        rerun = run_cells(
            sweep_jobs(trace), workers=1, cache=result_cache,
            progress=rerun_events.append,
        )
        if sorted(e.status for e in rerun_events) != ["cached"] * 3:
            fail(f"rerun not served from cache: "
                 f"{[e.status for e in rerun_events]}")
        for key in results:
            if rerun[key].total_ms != results[key].total_ms:
                fail(f"cached rerun differs for {key}")
        print("sweep over ingested trace + cached rerun: OK")

        cold_s, warm_s = time_ingest_cache(workdir)
        print(f"{TIMED_REFS:,}-ref lackey stream: cold {cold_s * 1e3:.1f} "
              f"ms, cached {warm_s * 1e3:.1f} ms (medians of "
              f"{TIMED_ROUNDS})")
        if warm_s >= cold_s:
            fail("a cached conversion is no faster than a cold one")
        print("cached conversion beats the cold one: OK")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ingest smoke: all checks passed")


if __name__ == "__main__":
    main()

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
   identical numbers.

Exits non-zero with a diagnostic on any mismatch.

    PYTHONPATH=src python tools/ingest_smoke.py
"""

from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

from repro.ingest.cache import IngestCache
from repro.ingest.convert import ingest_file
from repro.sim.config import SimulationConfig
from repro.sim.parallel import ResultCache, SweepJob, run_cells

FIXTURE = Path("tests/data/lackey_small.trace")

#: Pinned fingerprint of the bundled fixture: conversion must be stable
#: across commits (bump deliberately with INGEST_VERSION changes).
PINNED = "sha:0bdfc6b1efbc15f3723a410f27102ef3e72d1f8ed08634111218c8080f10ca2d"


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
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ingest smoke: all checks passed")


if __name__ == "__main__":
    main()

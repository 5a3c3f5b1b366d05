"""Ingested traces flow through the standard sweep machinery.

The acceptance path: a raw trace file converts through ``ingest_file``,
rides ``run_cells`` with a :class:`ResultCache` exactly like
a synthetic trace, and the ``ingest:<path>`` app-name syntax resolves
through :func:`build_app_trace`.
"""

import numpy as np
import pytest

from repro.errors import ConfigError, IngestError
from repro.ingest.convert import ingest_file
from repro.sim.config import SimulationConfig
from repro.sim.parallel import ResultCache, SweepJob, run_cells
from repro.sim.simulator import simulate
from repro.trace.encode import save_trace
from repro.trace.synth.apps import INGEST_PREFIX, build_app_trace


def sweep_jobs(trace, sizes=(4096, 1024, 256)):
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
                track_distances=False,
            ),
        )
        for size in sizes
    ]


class TestRunCellsOverIngestedTrace:
    def test_sweep_with_result_cache(self, tmp_path, lackey_file):
        trace = ingest_file(lackey_file, cache=tmp_path / "ingest-cache")
        cache = ResultCache(tmp_path / "result-cache")
        events = []
        results = run_cells(
            sweep_jobs(trace),
            workers=1,
            cache=cache,
            progress=events.append,
        )
        assert set(results) == {"sp_4096", "sp_1024", "sp_256"}
        assert all(r.total_ms > 0 for r in results.values())
        # Results land in the standard content-keyed cache.
        assert {e.status for e in events} == {"done"}
        assert cache.puts_failed == 0

        rerun_events = []
        rerun = run_cells(
            sweep_jobs(trace),
            workers=1,
            cache=cache,
            progress=rerun_events.append,
        )
        assert {e.status for e in rerun_events} == {"cached"}
        for key, result in results.items():
            assert rerun[key].total_ms == result.total_ms
            assert rerun[key].page_faults == result.page_faults

    def test_sweep_matches_direct_simulation(self, lackey_file):
        trace = ingest_file(lackey_file, cache=None)
        jobs = sweep_jobs(trace)
        swept = run_cells(jobs, workers=1)
        for job in jobs:
            assert swept[job.key] == simulate(trace, job.config)

    def test_subpages_help_the_ingested_trace(self, tmp_path, lackey_file):
        # The fabricated stream is scattered, so finer fetch wins: the
        # ingested trace behaves like a real workload, not a stub.
        trace = ingest_file(lackey_file, cache=None)
        results = run_cells(sweep_jobs(trace), workers=1)
        assert results["sp_1024"].total_ms < results["sp_4096"].total_ms


class TestIngestAppSyntax:
    def test_raw_file_via_prefix(self, lackey_file, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_INGEST_CACHE", str(tmp_path / "prefix-cache")
        )
        direct = ingest_file(lackey_file, cache=None)
        via_name = build_app_trace(f"{INGEST_PREFIX}{lackey_file}")
        assert via_name.fingerprint() == direct.fingerprint()
        # The conversion was cached under the env-configured root.
        assert list((tmp_path / "prefix-cache").glob("*/*.npz"))

    def test_npz_file_via_prefix(self, lackey_file, tmp_path):
        trace = ingest_file(lackey_file, cache=None)
        npz = tmp_path / "converted.npz"
        save_trace(trace, npz)
        loaded = build_app_trace(f"{INGEST_PREFIX}{npz}")
        assert loaded.fingerprint() == trace.fingerprint()
        assert np.array_equal(loaded.pages, trace.pages)

    def test_missing_file_raises_ingest_error(self, tmp_path):
        with pytest.raises(IngestError, match="no trace file"):
            build_app_trace(f"{INGEST_PREFIX}{tmp_path}/absent.trace")

    def test_prefix_listed_in_unknown_app_error(self):
        with pytest.raises(ConfigError, match="ingest:"):
            build_app_trace("definitely-not-an-app")

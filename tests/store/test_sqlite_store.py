"""The sqlite result store: protocol equivalence, durability, concurrency.

The contract under test is ``docs/SERVICE.md``'s: the store computes
the *same* content keys as the flat-file cache and serves sweeps
byte-identically to it; rows carry provenance; puts never fail a
sweep; and under concurrent writers a reader observes either the full
old row or the full new row for a key — never a torn one.
"""

import multiprocessing
import pickle
import sqlite3
import warnings

import numpy as np
import pytest

from repro.core.fault import FaultKind, FaultLog, FaultRecord
from repro.sim.config import SimulationConfig
from repro.sim.parallel import (
    CACHE_VERSION,
    CellEvent,
    ResultCache,
    SweepJob,
    cell_cache_key,
    default_cache,
    run_cells,
)
from repro.sim.results import SimulationResult, TimeComponents
from repro.sim.simulator import simulate
from repro.store import SqliteResultStore, StoredProvenance
from repro.trace.compress import compress_references


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(7)
    pages = rng.integers(0, 16, size=3000)
    offsets = rng.integers(0, 1024, size=3000) * 8
    writes = rng.random(3000) < 0.2
    return compress_references(
        pages * 8192 + offsets, writes, name="store-suite"
    )


def make_jobs(trace, sizes=(4096, 2048, 1024, 512)):
    return [
        SweepJob(
            key=f"sp_{size}",
            trace=trace,
            config=SimulationConfig(
                memory_pages=8,
                scheme="eager",
                subpage_bytes=size,
                event_ns=1000.0,
                use_trace_dilation=False,
            ),
        )
        for size in sizes
    ]


def synthetic_result(marker: float, spans: int = 130) -> SimulationResult:
    """A result whose every value carries ``marker``, so a torn read
    (bytes from two different writers) is detectable: its ``spans``
    faults each stall over ``(marker, marker)``.  Its payload is about
    9 KB, a few sqlite pages."""
    record = FaultRecord(
        page=0,
        subpage=0,
        kind=FaultKind.DISK,
        time_ms=marker,
        sp_latency_ms=0.0,
        window_start_ms=marker,
        window_end_ms=marker,
    )
    return SimulationResult(
        trace_name=f"writer-{marker}",
        scheme_label=f"sp_{int(marker)}",
        scheme_name="eager",
        subpage_bytes=1024,
        page_bytes=8192,
        memory_pages=8,
        backing="remote",
        num_references=1,
        num_runs=1,
        event_cost_ms=0.0,
        components=TimeComponents(exec_ms=marker),
        faults=FaultLog.from_records([record] * spans),
    )


class TestProtocolEquivalence:
    def test_keys_match_flat_cache(self, trace, tmp_path):
        store = SqliteResultStore(tmp_path / "s.sqlite")
        flat = ResultCache(tmp_path / "flat")
        for job in make_jobs(trace):
            expected = cell_cache_key(job.trace, job.config)
            assert store.key_for(job) == flat.key_for(job) == expected

    def test_sweep_identical_to_flat_cache_and_uncached(
        self, trace, tmp_path
    ):
        jobs = make_jobs(trace)
        plain = run_cells(jobs, workers=1)
        store = SqliteResultStore(tmp_path / "s.sqlite")
        first = run_cells(jobs, workers=1, cache=store)
        served = run_cells(jobs, workers=1, cache=store)
        flat = run_cells(
            jobs, workers=1, cache=ResultCache(tmp_path / "flat")
        )
        for key in plain:
            for other in (first, served, flat):
                assert other[key].total_ms == plain[key].total_ms
                assert other[key].summary() == plain[key].summary()
                assert (
                    other[key].stall_intervals
                    == plain[key].stall_intervals
                )
        assert store.hits == len(jobs)

    def test_incremental_recompute_only_changed_cells(
        self, trace, tmp_path
    ):
        store = SqliteResultStore(tmp_path / "s.sqlite")
        run_cells(make_jobs(trace), workers=1, cache=store)
        # Edit one cell's config: only that cell should recompute.
        edited = make_jobs(trace)
        edited[1] = SweepJob(
            key=edited[1].key,
            trace=trace,
            config=edited[1].config.with_overrides(congestion=False),
        )
        events: list[CellEvent] = []
        run_cells(edited, workers=1, cache=store,
                  progress=events.append)
        statuses = {e.key: e.status for e in events}
        assert statuses[edited[1].key] == "done"
        assert all(
            status == "cached"
            for key, status in statuses.items()
            if key != edited[1].key
        )

    def test_env_knob_selects_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_STORE", str(tmp_path / "env.sqlite")
        )
        cache = default_cache()
        assert isinstance(cache, SqliteResultStore)
        monkeypatch.delenv("REPRO_STORE")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "flat"))
        assert isinstance(default_cache(), ResultCache)
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert default_cache() is None


class TestCounters:
    def test_hit_miss_put_accounting(self, trace, tmp_path):
        store = SqliteResultStore(tmp_path / "s.sqlite")
        job = make_jobs(trace, sizes=(1024,))[0]
        key = store.key_for(job)
        assert store.get(key) is None
        assert store.misses == 1 and store.hits == 0
        result = simulate(trace, job.config)
        assert store.put(key, result)
        assert store.get(key).total_ms == result.total_ms
        assert store.hits == 1 and store.puts_failed == 0
        assert len(store) == 1

    def test_unpicklable_payload_fails_counted(self, tmp_path):
        store = SqliteResultStore(tmp_path / "s.sqlite")
        poisoned = synthetic_result(1.0)
        poisoned.link_stats["cb"] = lambda: None  # unpicklable
        assert store.put("ab" * 32, poisoned) is False
        assert store.puts_failed == 1
        assert len(store) == 0

    def test_corrupt_row_is_a_miss(self, trace, tmp_path):
        path = tmp_path / "s.sqlite"
        store = SqliteResultStore(path)
        job = make_jobs(trace, sizes=(1024,))[0]
        key = store.key_for(job)
        store.put(key, simulate(trace, job.config))
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE results SET payload=? WHERE key=?",
            (b"not a pickle", key),
        )
        conn.commit()
        conn.close()
        assert store.get(key) is None
        assert store.misses == 1

    def test_unusable_path_degrades_not_raises(self, trace):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = SqliteResultStore(
                "/proc/nonexistent/results.sqlite"
            )
        assert any(
            "unusable" in str(w.message) for w in caught
        )
        # The sweep still completes; every put fails counted.
        events: list[CellEvent] = []
        jobs = make_jobs(trace, sizes=(1024,))
        out = run_cells(jobs, workers=1, cache=store,
                        progress=events.append)
        assert out["sp_1024"].total_faults > 0
        assert store.puts_failed == 1
        assert [e.status for e in events].count("cache-error") == 1

    def test_newer_schema_disables_store(self, tmp_path):
        path = tmp_path / "s.sqlite"
        SqliteResultStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE store_meta SET value='999' "
            "WHERE name='schema_version'"
        )
        conn.commit()
        conn.close()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            store = SqliteResultStore(path)
        assert any("newer" in str(w.message) for w in caught)
        assert store.put("ab" * 32, synthetic_result(1.0)) is False


class TestProvenance:
    def test_rows_carry_provenance(self, trace, tmp_path):
        store = SqliteResultStore(tmp_path / "s.sqlite")
        job = make_jobs(trace, sizes=(1024,))[0]
        key = store.key_for(job)
        result = simulate(trace, job.config)
        store.put(key, result)
        prov = store.provenance(key)
        assert isinstance(prov, StoredProvenance)
        assert prov.key == key
        assert prov.cache_version == CACHE_VERSION
        assert prov.trace_fingerprint == trace.fingerprint()
        assert prov.config_fingerprint is not None
        assert "subpage_bytes=i:1024" in prov.config_fingerprint
        assert prov.trace_name == "store-suite"
        assert prov.scheme_label == result.scheme_label
        assert prov.writer_pid > 0
        assert prov.created_at > 0
        assert list(store.keys()) == [key]

    def test_direct_put_without_key_for_is_fine(self, tmp_path):
        store = SqliteResultStore(tmp_path / "s.sqlite")
        assert store.put("cd" * 32, synthetic_result(2.0))
        prov = store.provenance("cd" * 32)
        assert prov.trace_fingerprint is None
        assert prov.trace_name == "writer-2.0"


def _hammer_puts(path: str, key: str, marker: float, rounds: int) -> None:
    """Child process: repeatedly overwrite ``key`` with this writer's
    full row."""
    store = SqliteResultStore(path)
    result = synthetic_result(marker)
    for _ in range(rounds):
        assert store.put(key, result)
    store.close()


class TestConcurrentWriters:
    def test_readers_never_observe_torn_rows(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        key = "ef" * 32
        SqliteResultStore(path).close()  # create schema up front
        ctx = multiprocessing.get_context("spawn")
        writers = [
            ctx.Process(
                target=_hammer_puts, args=(path, key, marker, 30)
            )
            for marker in (1.0, 2.0)
        ]
        for proc in writers:
            proc.start()
        reader = SqliteResultStore(path)
        observed: set[float] = set()
        try:
            while any(proc.is_alive() for proc in writers):
                result = reader.get(key)
                if result is None:
                    continue
                markers = {result.components.exec_ms}
                markers.update(a for a, _ in result.stall_intervals)
                markers.update(b for _, b in result.stall_intervals)
                # A full row is *one* writer's: every value agrees.
                assert len(markers) == 1, "torn row observed"
                assert result.trace_name == f"writer-{markers.pop()}"
                observed.add(result.components.exec_ms)
        finally:
            for proc in writers:
                proc.join(timeout=60)
        assert all(proc.exitcode == 0 for proc in writers)
        final = reader.get(key)
        assert final is not None
        assert final.components.exec_ms in (1.0, 2.0)

    def test_concurrent_same_key_sweeps_settle_to_one_row(
        self, trace, tmp_path
    ):
        path = tmp_path / "s.sqlite"
        jobs = make_jobs(trace, sizes=(1024,))
        a = SqliteResultStore(path)
        b = SqliteResultStore(path)
        out_a = run_cells(jobs, workers=1, cache=a)
        out_b = run_cells(jobs, workers=1, cache=b)
        assert (
            out_a["sp_1024"].total_ms == out_b["sp_1024"].total_ms
        )
        assert len(a) == 1
        assert b.hits == 1  # b's run was served from a's write

    def test_payload_roundtrips_pickle_exactly(self, tmp_path):
        store = SqliteResultStore(tmp_path / "s.sqlite")
        result = synthetic_result(3.0)
        store.put("aa" * 32, result)
        back = store.get("aa" * 32)
        assert pickle.dumps(back) == pickle.dumps(result)

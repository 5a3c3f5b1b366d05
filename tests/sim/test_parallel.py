"""The parallel sweep executor: equivalence, caching, fallback.

The contract under test is the one ``docs/PARALLEL.md`` documents:
whatever the worker count or trace-shipping path (inline, per-cell
pickle, mapped-file arena), ``run_cells`` returns results
bit-identical to serial execution, in job order, with exactly one
progress event per cell; the on-disk cache serves completed cells back
and misses on any input change; unpicklable payloads fall back to
inline execution and worker failures retry inline instead of failing.
"""

import os
import pickle
import subprocess
import time

import numpy as np
import pytest

from repro.atomicfile import STALE_TMP_AGE_S
from repro.envknobs import EnvKnobWarning
from repro.errors import ConfigError
from repro.obs import MetricsRegistry
from repro.sim import parallel
from repro.sim.config import SimulationConfig
from repro.sim.parallel import (
    CellEvent,
    ExecutionOptions,
    ResultCache,
    SweepJob,
    WorkerPool,
    cell_cache_key,
    config_fingerprint,
    default_workers,
    run_cells,
    trace_fingerprint,
)
from repro.sim.shm import SharedTraceArena
from repro.sim.simulator import simulate
from repro.trace.compress import compress_references

from tests.conftest import FixedLatencyModel

_PARENT_PID = os.getpid()
_REAL_EXECUTE = parallel._execute


def _explode_in_worker(trace, config):
    """Worker stand-in for ``_execute``: fails in any forked child."""
    if os.getpid() != _PARENT_PID:
        raise RuntimeError("injected worker failure")
    return _REAL_EXECUTE(trace, config)


def _explode_512_in_worker(trace, config):
    """Fails only the 512-byte cell, only in a child: the other cells
    of the same pooled run complete normally."""
    if os.getpid() != _PARENT_PID and config.subpage_bytes == 512:
        raise RuntimeError("injected selective worker failure")
    return _REAL_EXECUTE(trace, config)


def _die_512_in_worker(trace, config):
    """Kills the whole worker *process* on the 512-byte cell, after a
    pause that lets its siblings finish first."""
    if os.getpid() != _PARENT_PID and config.subpage_bytes == 512:
        time.sleep(0.5)
        os._exit(1)
    return _REAL_EXECUTE(trace, config)


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(3)
    pages = rng.integers(0, 16, size=3000)
    offsets = rng.integers(0, 1024, size=3000) * 8
    writes = rng.random(3000) < 0.2
    return compress_references(
        pages * 8192 + offsets, writes, name="parallel-suite"
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


class TestEquivalence:
    def test_parallel_matches_serial_per_cell(self, trace):
        jobs = make_jobs(trace)
        serial = run_cells(jobs, workers=1)
        parallel = run_cells(jobs, workers=4)
        assert list(serial) == list(parallel) == [j.key for j in jobs]
        for key in serial:
            assert parallel[key].total_ms == serial[key].total_ms
            assert parallel[key].summary() == serial[key].summary()
            assert (
                parallel[key].stall_intervals == serial[key].stall_intervals
            )

    def test_matches_direct_simulate(self, trace):
        jobs = make_jobs(trace, sizes=(1024,))
        out = run_cells(jobs, workers=4)
        direct = simulate(trace, jobs[0].config)
        assert out["sp_1024"].total_ms == direct.total_ms

    def test_duplicate_keys_rejected(self, trace):
        jobs = make_jobs(trace, sizes=(1024,)) * 2
        with pytest.raises(ConfigError, match="duplicate"):
            run_cells(jobs, workers=1)


class TestFallback:
    def test_unpicklable_config_falls_back_inline(self, trace):
        class LocalLatency(FixedLatencyModel):
            """Defined in a function scope: instances cannot pickle."""

        config = SimulationConfig(
            memory_pages=8,
            latency_model=LocalLatency(),
            event_ns=1000.0,
            use_trace_dilation=False,
        )
        with pytest.raises(Exception):
            pickle.dumps(config)
        jobs = [SweepJob(key="local", trace=trace, config=config)]
        jobs += make_jobs(trace, sizes=(1024, 512))
        events = []
        out = run_cells(jobs, workers=2, progress=events.append)
        expected = simulate(trace, config)
        assert out["local"].total_ms == expected.total_ms
        assert {e.key: e.status for e in events}["local"] == "fallback"
        assert {e.key: e.status for e in events}["sp_1024"] == "done"

    def test_progress_events_serial(self, trace):
        events: list[CellEvent] = []
        jobs = make_jobs(trace, sizes=(1024, 512))
        run_cells(jobs, workers=1, progress=events.append)
        assert [e.key for e in events] == ["sp_1024", "sp_512"]
        assert all(e.status == "done" for e in events)
        assert all(e.elapsed_s > 0 for e in events)


def _raise_on_first_event(events):
    def progress(event):
        events.append(event)
        if len(events) == 1:
            raise RuntimeError("progress callback failed")

    return progress


class TestProgressCallbackErrors:
    """A raising callback is the caller's error, not a pool failure."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_callback_exception_propagates(self, trace, workers):
        events: list[CellEvent] = []
        with pytest.raises(RuntimeError, match="progress callback failed"):
            run_cells(make_jobs(trace), workers=workers,
                      progress=_raise_on_first_event(events))
        assert [e.status for e in events] == ["done"]

    def test_pool_survives_callback_exception(self, trace):
        expected = run_cells(make_jobs(trace), workers=1)
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError):
                run_cells(make_jobs(trace), pool=pool,
                          progress=_raise_on_first_event([]))
            out = run_cells(make_jobs(trace), pool=pool)
        assert_results_identical(out, expected)


class TestCache:
    def test_miss_then_hit(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = make_jobs(trace, sizes=(1024, 512))
        events = []
        first = run_cells(jobs, workers=1, cache=cache,
                          progress=events.append)
        assert cache.misses == 2 and cache.hits == 0
        second = run_cells(jobs, workers=1, cache=cache,
                           progress=events.append)
        assert cache.hits == 2
        assert [e.status for e in events] == [
            "done", "done", "cached", "cached"
        ]
        for key in first:
            assert second[key].total_ms == first[key].total_ms

    def test_parallel_run_populates_cache(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = make_jobs(trace)
        run_cells(jobs, workers=4, cache=cache)
        cached = run_cells(jobs, workers=4, cache=cache)
        assert cache.hits == len(jobs)
        serial = run_cells(jobs, workers=1)
        for key in serial:
            assert cached[key].total_ms == serial[key].total_ms

    def test_config_change_misses(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = make_jobs(trace, sizes=(1024,))
        run_cells(jobs, workers=1, cache=cache)
        changed = [
            SweepJob(
                key="sp_1024",
                trace=trace,
                config=jobs[0].config.with_overrides(memory_pages=9),
            )
        ]
        run_cells(changed, workers=1, cache=cache)
        assert cache.hits == 0
        assert cache.misses == 2

    def test_trace_change_misses(self, trace, tmp_path):
        other = compress_references(
            np.arange(0, 40 * 8192, 64, dtype=np.int64), name="other"
        )
        assert trace_fingerprint(trace) != trace_fingerprint(other)
        cache = ResultCache(tmp_path)
        config = make_jobs(trace, sizes=(1024,))[0].config
        run_cells([SweepJob("a", trace, config)], workers=1, cache=cache)
        run_cells([SweepJob("a", other, config)], workers=1, cache=cache)
        assert cache.hits == 0

    def test_unhashable_configs_are_uncacheable(self, trace, tmp_path):
        config = SimulationConfig(
            memory_pages=8,
            latency_model=FixedLatencyModel(),
            event_ns=1000.0,
            use_trace_dilation=False,
        )
        assert config_fingerprint(config) is None
        assert cell_cache_key(trace, config) is None
        cache = ResultCache(tmp_path)
        run_cells(
            [SweepJob("a", trace, config)], workers=1, cache=cache
        )
        assert cache.hits == 0 and cache.misses == 0
        assert not any(tmp_path.rglob("*.pkl"))

    def test_corrupt_entry_is_a_miss(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = make_jobs(trace, sizes=(1024,))
        baseline = run_cells(jobs, workers=1, cache=cache)
        (entry,) = tmp_path.rglob("*.pkl")
        # Garbage, and a pickle header naming protocol 99, which
        # ``pickle`` rejects with ValueError, not UnpicklingError.
        for corrupt in (b"not a pickle", b"\x80\x63garbage"):
            entry.write_bytes(corrupt)
            misses = cache.misses
            events: list[CellEvent] = []
            again = run_cells(jobs, workers=1, cache=cache,
                              progress=events.append)
            assert cache.misses == misses + 1
            assert [e.status for e in events] == ["done"]
            assert (
                again["sp_1024"].total_ms == baseline["sp_1024"].total_ms
            )
        assert cache.hits == 0

    def test_unwritable_root_degrades_to_no_cache(self, trace):
        cache = ResultCache("/proc/nonexistent/repro-cache")
        jobs = make_jobs(trace, sizes=(1024,))
        out = run_cells(jobs, workers=1, cache=cache)
        assert out["sp_1024"].total_faults > 0
        assert cache.hits == 0


class TestEnvKnobs:
    def test_default_workers_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert default_workers() == 1

    def test_default_workers_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "6")
        assert default_workers() == 6
        assert ExecutionOptions.from_env().workers == 6

    def test_default_workers_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert default_workers() == 1

    def test_default_workers_invalid_degrades_with_warning(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.warns(EnvKnobWarning, match="REPRO_WORKERS"):
            assert default_workers() == 1

    def test_default_workers_negative_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "-3")
        assert default_workers() == 1

    def test_cache_dir_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        options = ExecutionOptions.from_env()
        assert options.cache is not None
        assert options.cache.root == tmp_path
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert ExecutionOptions.from_env().cache is None

    def test_store_env_wins_over_cache_dir(self, monkeypatch, tmp_path):
        from repro.store import SqliteResultStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "flat"))
        monkeypatch.setenv(
            "REPRO_STORE", str(tmp_path / "results.sqlite")
        )
        options = ExecutionOptions.from_env()
        assert isinstance(options.cache, SqliteResultStore)


def matrix_jobs(trace):
    """A scheme x subpage grid plus the fullpage baseline."""
    jobs = [
        SweepJob(
            key="full_8192",
            trace=trace,
            config=SimulationConfig(
                memory_pages=8, scheme="fullpage", subpage_bytes=8192,
                event_ns=1000.0, use_trace_dilation=False,
            ),
        )
    ]
    for scheme in ("eager", "lazy", "pipelined"):
        for size in (2048, 1024, 512):
            jobs.append(SweepJob(
                key=f"{scheme}_{size}",
                trace=trace,
                config=SimulationConfig(
                    memory_pages=8, scheme=scheme, subpage_bytes=size,
                    event_ns=1000.0, use_trace_dilation=False,
                ),
            ))
    return jobs


def assert_results_identical(actual, expected):
    assert list(actual) == list(expected)
    for key in expected:
        assert actual[key].total_ms == expected[key].total_ms
        assert actual[key].summary() == expected[key].summary()
        assert actual[key].stall_intervals == expected[key].stall_intervals


class TestShippingPaths:
    """Inline, per-cell pickle, and arena runs are bit-identical."""

    @pytest.fixture(scope="class")
    def expected(self, trace):
        return run_cells(matrix_jobs(trace), workers=1)

    def test_shared_arena_matches_inline(self, trace, expected):
        with WorkerPool(4) as pool:
            out = run_cells(matrix_jobs(trace), pool=pool)
            assert pool.arena.published_count == 1
        assert_results_identical(out, expected)

    def test_per_cell_pickle_matches_inline(self, trace, expected,
                                            tmp_path):
        # A directory under a regular file cannot be created, so the
        # arena turns itself off and every cell pickles its trace.
        (tmp_path / "file").write_bytes(b"not a directory")
        arena = SharedTraceArena(spill_dir=tmp_path / "file" / "spill")
        with WorkerPool(4, arena=arena) as pool:
            out = run_cells(matrix_jobs(trace), pool=pool)
            assert pool.arena.published_count == 0
        assert_results_identical(out, expected)

    def test_spill_arena_matches_inline(self, trace, expected, tmp_path):
        arena = SharedTraceArena(spill_dir=tmp_path)
        with WorkerPool(4, arena=arena) as pool:
            out = run_cells(matrix_jobs(trace), pool=pool)
            assert pool.arena.published_count == 1
            assert len(list(tmp_path.iterdir())) == 1
        assert not any(tmp_path.iterdir())
        assert_results_identical(out, expected)

    def test_handle_jobs_match_trace_jobs(self, trace, expected):
        with SharedTraceArena() as arena:
            handle = arena.publish(trace)
            jobs = [
                SweepJob(key=job.key, trace=handle, config=job.config)
                for job in matrix_jobs(trace)
            ]
            out = run_cells(jobs, workers=1)
            assert_results_identical(out, expected)

    def test_handle_cache_key_matches_trace(self, trace):
        config = matrix_jobs(trace)[0].config
        with SharedTraceArena() as arena:
            handle = arena.publish(trace)
            assert trace_fingerprint(handle) == trace_fingerprint(trace)
            assert cell_cache_key(handle, config) == cell_cache_key(
                trace, config
            )


class TestWorkerPool:
    def test_reuse_across_batches_publishes_once(self, trace):
        expected = run_cells(make_jobs(trace), workers=1)
        with WorkerPool(2) as pool:
            first = run_cells(make_jobs(trace), pool=pool)
            second = run_cells(make_jobs(trace), pool=pool)
            assert pool.arena.published_count == 1
        assert_results_identical(first, expected)
        assert_results_identical(second, expected)

    def test_run_cells_takes_workers_from_pool(self, trace):
        with WorkerPool(3) as pool:
            out = run_cells(make_jobs(trace), pool=pool)
        assert list(out) == [j.key for j in make_jobs(trace)]

    def test_broken_executor_is_replaced(self):
        with WorkerPool(2) as pool:
            first = pool.executor()
            first._broken = "poisoned by a crashed worker"
            second = pool.executor()
            assert second is not first
        with pytest.raises(ConfigError):
            pool.executor()

    def test_closed_pool_falls_back_to_transient(self, trace):
        pool = WorkerPool(2)
        pool.close()
        expected = run_cells(make_jobs(trace), workers=1)
        out = run_cells(make_jobs(trace), workers=2, pool=pool)
        assert_results_identical(out, expected)


class TestInvariants:
    """Ordering, exactly-one-event, and metrics-merge guarantees."""

    def test_results_in_job_order_despite_completion_order(self, trace):
        # Cells of very different cost complete out of submission
        # order; the returned dict must still follow the job list.
        jobs = matrix_jobs(trace)
        out = run_cells(jobs, workers=4)
        assert list(out) == [j.key for j in jobs]
        out_rev = run_cells(list(reversed(jobs)), workers=4)
        assert list(out_rev) == [j.key for j in reversed(jobs)]

    def test_exactly_one_event_per_cell_mixed_batch(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        pooled = make_jobs(trace, sizes=(2048, 1024, 512))
        run_cells(pooled[:1], workers=1, cache=cache)  # precache one

        class LocalLatency(FixedLatencyModel):
            """Function-scoped class: instances cannot pickle."""

        unpicklable = SweepJob(
            key="local",
            trace=trace,
            config=SimulationConfig(
                memory_pages=8, latency_model=LocalLatency(),
                event_ns=1000.0, use_trace_dilation=False,
            ),
        )
        jobs = [pooled[0], unpicklable, *pooled[1:]]
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=2, cache=cache,
                        progress=events.append)
        assert list(out) == [j.key for j in jobs]
        statuses = {e.key: e.status for e in events}
        assert len(events) == len(jobs)
        assert sorted(statuses) == sorted(j.key for j in jobs)
        assert statuses[pooled[0].key] == "cached"
        assert statuses["local"] == "fallback"
        assert all(
            statuses[j.key] == "done" for j in pooled[1:]
        )

    def test_metrics_merge_includes_cache_hits(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [
            SweepJob(
                key=f"sp_{size}",
                trace=trace,
                config=SimulationConfig(
                    memory_pages=8, subpage_bytes=size,
                    event_ns=1000.0, use_trace_dilation=False,
                    observe="metrics",
                ),
            )
            for size in (1024, 512)
        ]
        first = MetricsRegistry()
        run_cells(jobs, workers=1, cache=cache, metrics=first)
        assert first.counters
        second = MetricsRegistry()
        events: list[CellEvent] = []
        run_cells(jobs, workers=1, cache=cache, metrics=second,
                  progress=events.append)
        assert all(e.status == "cached" for e in events)
        assert second.counters == first.counters


class TestWorkerFailure:
    def test_worker_failures_retry_inline(self, trace, monkeypatch):
        monkeypatch.setattr(parallel, "_execute", _explode_in_worker)
        expected = run_cells(make_jobs(trace), workers=1)
        events: list[CellEvent] = []
        out = run_cells(make_jobs(trace), workers=2,
                        progress=events.append)
        assert_results_identical(out, expected)
        statuses = {e.status for e in events}
        assert statuses == {"retried"}
        assert len(events) == len(make_jobs(trace))

    def test_retried_cells_still_write_cache(self, trace, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(parallel, "_execute", _explode_in_worker)
        cache = ResultCache(tmp_path)
        run_cells(make_jobs(trace), workers=2, cache=cache)
        events: list[CellEvent] = []
        run_cells(make_jobs(trace), workers=2, cache=cache,
                  progress=events.append)
        assert all(e.status == "cached" for e in events)


class TestPartialWorkerFailure:
    """One cell of a pooled run fails; its siblings' work is kept."""

    def test_only_failed_cell_retries_inline(self, trace, tmp_path,
                                             monkeypatch):
        monkeypatch.setattr(parallel, "_execute", _explode_512_in_worker)
        jobs = make_jobs(trace)
        expected = run_cells(jobs, workers=1)
        cache = ResultCache(tmp_path)
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=2, cache=cache,
                        progress=events.append)
        assert_results_identical(out, expected)
        statuses = {
            e.key: e.status for e in events if e.status != "cache-error"
        }
        assert len(events) == len(jobs)
        assert statuses["sp_512"] == "retried"
        assert all(
            statuses[j.key] == "done" for j in jobs
            if j.key != "sp_512"
        )
        # Completed cells wrote through AND the retried cell did too:
        # a fresh run over the same cache computes nothing.
        events2: list[CellEvent] = []
        run_cells(jobs, workers=2, cache=cache, progress=events2.append)
        assert all(e.status == "cached" for e in events2)
        assert cache.puts_failed == 0

    def test_worker_death_keeps_completed_cells(self, trace, tmp_path,
                                                monkeypatch):
        """``os._exit`` mid-batch breaks the pool itself; results that
        workers already produced are harvested, the rest re-run inline,
        still exactly one completion event per cell."""
        monkeypatch.setattr(parallel, "_execute", _die_512_in_worker)
        jobs = make_jobs(trace)
        expected = run_cells(jobs, workers=1)
        cache = ResultCache(tmp_path)
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=2, cache=cache,
                        progress=events.append)
        assert_results_identical(out, expected)
        statuses = {
            e.key: e.status for e in events if e.status != "cache-error"
        }
        assert sorted(statuses) == sorted(j.key for j in jobs)
        assert statuses["sp_512"] == "retried"
        assert set(statuses.values()) <= {"done", "retried"}
        events2: list[CellEvent] = []
        run_cells(jobs, workers=2, cache=cache, progress=events2.append)
        assert all(e.status == "cached" for e in events2)


class TestCanonicalFingerprint:
    """The v5 cache key: canonical, type-tagged, order-insensitive."""

    def test_cache_version_bumped_for_canonical_keys(self):
        assert parallel.CACHE_VERSION == 5

    def test_scalar_type_tags_never_collide(self):
        values = [1, 1.0, True, "1", None]
        encoded = [parallel._canonical(v) for v in values]
        assert None not in encoded
        assert len(set(encoded)) == len(values)

    def test_dict_insertion_order_is_canonical(self):
        a = {"predictor": "stride", "max_depth": 6}
        b = {"max_depth": 6, "predictor": "stride"}
        assert parallel._canonical(a) == parallel._canonical(b)
        nested_a = {"outer": {"x": 1, "y": [1, 2]}, "z": {1.5, 2.5}}
        nested_b = {"z": {2.5, 1.5}, "outer": {"y": [1, 2], "x": 1}}
        assert parallel._canonical(nested_a) == parallel._canonical(
            nested_b
        )

    def test_sequence_order_and_kind_are_significant(self):
        assert parallel._canonical([1, 2]) != parallel._canonical([2, 1])
        assert parallel._canonical([1, 2]) != parallel._canonical((1, 2))

    def test_unknown_types_are_uncacheable(self):
        assert parallel._canonical(object()) is None
        assert parallel._canonical({"k": object()}) is None
        assert parallel._canonical([object()]) is None

    def test_config_fingerprint_ignores_kwargs_order(self, trace):
        def config(kwargs):
            return SimulationConfig(
                memory_pages=8,
                scheme="adaptive",
                scheme_kwargs=kwargs,
                subpage_bytes=1024,
                event_ns=1000.0,
                use_trace_dilation=False,
            )

        a = config({"predictor": "stride", "max_depth": 6})
        b = config({"max_depth": 6, "predictor": "stride"})
        assert config_fingerprint(a) is not None
        assert config_fingerprint(a) == config_fingerprint(b)
        assert cell_cache_key(trace, a) == cell_cache_key(trace, b)

    def test_cache_hit_across_kwargs_order(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        a = SweepJob(
            key="a",
            trace=trace,
            config=SimulationConfig(
                memory_pages=8, scheme="adaptive",
                scheme_kwargs={"predictor": "stride", "max_depth": 6},
                subpage_bytes=1024, event_ns=1000.0,
                use_trace_dilation=False,
            ),
        )
        run_cells([a], workers=1, cache=cache)
        b = SweepJob(
            key="a",
            trace=trace,
            config=SimulationConfig(
                memory_pages=8, scheme="adaptive",
                scheme_kwargs={"max_depth": 6, "predictor": "stride"},
                subpage_bytes=1024, event_ns=1000.0,
                use_trace_dilation=False,
            ),
        )
        run_cells([b], workers=1, cache=cache)
        assert cache.hits == 1


class TestCacheFailureSurface:
    """Failed write-throughs are counted and reported, never fatal."""

    def test_put_failure_counts_and_emits_event(self, trace):
        cache = ResultCache("/proc/nonexistent/repro-cache")
        jobs = make_jobs(trace, sizes=(1024,))
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=1, cache=cache,
                        progress=events.append)
        assert out["sp_1024"].total_faults > 0
        assert cache.puts_failed == 1
        kinds = [e.status for e in events]
        assert kinds.count("done") == 1
        assert kinds.count("cache-error") == 1
        error = next(e for e in events if e.status == "cache-error")
        assert error.key == "sp_1024"

    def test_reaps_tmp_files_of_dead_writers_only(self, tmp_path):
        sub = tmp_path / "ab"
        sub.mkdir()
        child = subprocess.Popen(["sleep", "0"])
        child.wait()
        live = subprocess.Popen(["sleep", "30"])
        try:
            dead_tmp = sub / f"deadbeef.tmp.{child.pid}"
            own_tmp = sub / f"cafe.tmp.{os.getpid()}"
            live_tmp = sub / f"feed.tmp.{live.pid}"
            weird_tmp = sub / "weird.tmp.notapid"
            huge_tmp = sub / f"huge.tmp.{10**20}"
            entry = sub / "entry.pkl"
            for path in (dead_tmp, own_tmp, live_tmp, weird_tmp,
                         huge_tmp, entry):
                path.write_bytes(b"x")
            ResultCache(tmp_path)
            assert not dead_tmp.exists()
            assert own_tmp.exists()
            assert live_tmp.exists()
            assert weird_tmp.exists()
            assert huge_tmp.exists()
            assert entry.exists()
        finally:
            live.kill()
            live.wait()

    def test_missing_root_reaps_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.puts_failed == 0

    def test_reaps_old_tmp_even_when_pid_is_live(self, tmp_path):
        """An hour-old tmp file is stranded whatever its PID says: the
        dead writer's PID may have been recycled by a live process (here
        stood in for by our own, definitely-live PID)."""
        sub = tmp_path / "ab"
        sub.mkdir()
        old_tmp = sub / f"stranded.tmp.{os.getpid()}"
        fresh_tmp = sub / f"inflight.tmp.{os.getpid()}"
        for path in (old_tmp, fresh_tmp):
            path.write_bytes(b"x")
        stale = time.time() - STALE_TMP_AGE_S - 60
        os.utime(old_tmp, (stale, stale))
        ResultCache(tmp_path)
        assert not old_tmp.exists()
        assert fresh_tmp.exists()

    def test_unpicklable_result_mid_sweep_never_fails(
        self, trace, tmp_path, monkeypatch
    ):
        """The satellite regression: a result whose payload cannot
        pickle must cost a cache entry (counted + reported), never the
        sweep — and must not strand its temp file."""

        def poison_execute(job_trace, config):
            result, elapsed = _REAL_EXECUTE(job_trace, config)
            if config.subpage_bytes == 1024:
                result.link_stats["callback"] = lambda: None
            return result, elapsed

        monkeypatch.setattr(parallel, "_execute", poison_execute)
        cache = ResultCache(tmp_path)
        jobs = make_jobs(trace, sizes=(2048, 1024))
        events: list[CellEvent] = []
        out = run_cells(jobs, workers=1, cache=cache,
                        progress=events.append)
        assert out["sp_1024"].total_faults > 0
        assert out["sp_2048"].total_faults > 0
        assert cache.puts_failed == 1
        kinds = [e.status for e in events]
        assert kinds.count("done") == 2
        assert kinds.count("cache-error") == 1
        error = next(e for e in events if e.status == "cache-error")
        assert error.key == "sp_1024"
        assert not list(tmp_path.glob("*/*.tmp.*"))
        # The healthy sibling still cached.
        assert len(list(tmp_path.glob("*/*.pkl"))) == 1

"""The shared trace arena: publishing, handles, lifecycle.

The contract under test is the one ``docs/PARALLEL.md`` §5 documents:
each unique trace is published at most once, to one mapped file; a
``TraceHandle`` materializes a trace whose arrays are equal to the
original (so simulation results are bit-identical); a failed write
turns the arena off and leaves no file behind; files are removed on
close and orphans of dead processes are reaped.
"""

import errno
import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.sim import shm
from repro.sim.config import SimulationConfig
from repro.sim.shm import (
    FILE_PREFIX,
    SharedTraceArena,
    cached_trace,
    clear_trace_cache,
    reap_orphans,
)
from repro.sim.simulator import simulate
from repro.trace.compress import compress_references


@pytest.fixture(scope="module")
def trace():
    rng = np.random.default_rng(9)
    pages = rng.integers(0, 12, size=2000)
    offsets = rng.integers(0, 1024, size=2000) * 8
    writes = rng.random(2000) < 0.3
    return compress_references(
        pages * 8192 + offsets, writes, name="shm-suite"
    )


def assert_traces_equal(a, b):
    assert np.array_equal(a.pages, b.pages)
    assert np.array_equal(a.blocks, b.blocks)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.writes, b.writes)
    assert a.pages.dtype == b.pages.dtype
    assert a.blocks.dtype == b.blocks.dtype
    assert (a.page_bytes, a.block_bytes, a.dilation, a.name) == (
        b.page_bytes, b.block_bytes, b.dilation, b.name
    )


class TestPublish:
    def test_publish_is_memoized_per_content(self, trace):
        with SharedTraceArena() as arena:
            first = arena.publish(trace)
            again = arena.publish(trace)
            assert first is again
            # An equal-content but distinct object shares the file.
            clone = trace.slice(0, len(trace))
            assert arena.publish(clone) is first
            assert arena.published_count == 1
            assert arena.published_bytes == first.nbytes

    def test_handle_is_tiny_and_picklable(self, trace):
        import pickle

        with SharedTraceArena() as arena:
            handle = arena.publish(trace)
            payload = pickle.dumps(handle)
            assert len(payload) < 2048
            assert trace.pages.nbytes > len(payload)
            assert pickle.loads(payload) == handle

    def test_roundtrip_matches_original(self, trace):
        with SharedTraceArena() as arena:
            handle = arena.publish(trace)
            rebuilt = handle.materialize()
            assert_traces_equal(trace, rebuilt)
            assert rebuilt.fingerprint() == trace.fingerprint()

    def test_roundtrip_simulation_is_bit_identical(self, trace):
        config = SimulationConfig(
            memory_pages=6, scheme="eager", subpage_bytes=1024,
            event_ns=1000.0, use_trace_dilation=False,
        )
        expected = simulate(trace, config)
        with SharedTraceArena() as arena:
            rebuilt = arena.publish(trace).materialize()
            result = simulate(rebuilt, config)
        assert result.total_ms == expected.total_ms
        assert result.summary() == expected.summary()
        assert result.stall_intervals == expected.stall_intervals

    def test_materialized_arrays_are_read_only(self, trace):
        with SharedTraceArena() as arena:
            rebuilt = arena.publish(trace).materialize()
            with pytest.raises(ValueError):
                rebuilt.pages[0] = 99


class TestSpill:
    """A failed write turns the arena off; callers pickle per cell."""

    def test_spill_failure_disables_arena(self, trace, tmp_path):
        (tmp_path / "file").write_bytes(b"not a directory")
        arena = SharedTraceArena(spill_dir=tmp_path / "file" / "spill")
        try:
            assert arena.publish(trace) is None
            assert arena.published_count == 0
        finally:
            arena.close()

    def test_off_mode_publishes_nothing(self, trace, tmp_path):
        """Once off, the arena stays off for its whole life, even when
        the directory becomes writable again."""
        blocker = tmp_path / "spill"
        blocker.write_bytes(b"not a directory")
        with SharedTraceArena(spill_dir=blocker) as arena:
            assert arena.publish(trace) is None
            blocker.unlink()
            assert arena.publish(trace) is None
            assert arena.published_count == 0
        assert not blocker.exists()

    def test_failed_write_leaves_no_partial_file(self, trace, tmp_path,
                                                 monkeypatch):
        real_write_bytes = Path.write_bytes

        def half_then_enospc(path, data):
            real_write_bytes(path, bytes(data[: len(data) // 2]))
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_enospc)
        arena = SharedTraceArena(spill_dir=tmp_path)
        assert arena.publish(trace) is None
        assert list(tmp_path.iterdir()) == []
        arena.close()
        assert list(tmp_path.iterdir()) == []


class TestLifecycle:
    def test_close_removes_files(self, trace, tmp_path):
        arena = SharedTraceArena(spill_dir=tmp_path)
        handle = arena.publish(trace)
        path = Path(handle.path)
        assert path.parent == tmp_path
        assert path.stat().st_size == handle.nbytes
        arena.close()
        assert not any(tmp_path.iterdir())
        with pytest.raises(FileNotFoundError):
            handle.materialize()

    def test_close_is_idempotent(self, trace, tmp_path):
        arena = SharedTraceArena(spill_dir=tmp_path)
        arena.publish(trace)
        arena.close()
        arena.close()
        assert arena.publish(trace) is None
        assert not any(tmp_path.iterdir())

    def test_live_mapping_survives_unlink(self, trace, tmp_path):
        config = SimulationConfig(
            memory_pages=6, scheme="eager", subpage_bytes=1024,
            event_ns=1000.0, use_trace_dilation=False,
        )
        arena = SharedTraceArena(spill_dir=tmp_path)
        rebuilt = arena.publish(trace).materialize()
        arena.close()
        assert not any(tmp_path.iterdir())
        # POSIX: unlink removes the name, not the live mapping.
        result = simulate(rebuilt, config)
        assert result.total_ms == simulate(trace, config).total_ms

    def test_reap_orphans_of_dead_pid(self, tmp_path):
        proc = subprocess.Popen(["/bin/true"])
        proc.wait()
        dead_pid = proc.pid
        orphan = tmp_path / f"{FILE_PREFIX}_{dead_pid}_1.bin"
        orphan.write_bytes(b"orphaned")
        orphan_tmp = tmp_path / f"{FILE_PREFIX}_{dead_pid}_2.tmp.{dead_pid}"
        orphan_tmp.write_bytes(b"orphaned mid-write")
        live = tmp_path / f"{FILE_PREFIX}_{os.getpid()}_0.bin"
        live.write_bytes(b"live")
        assert reap_orphans(tmp_path) == 2
        assert not orphan.exists()
        assert not orphan_tmp.exists()
        assert live.exists()

    def test_reap_ignores_malformed_names(self, tmp_path):
        weird = tmp_path / f"{FILE_PREFIX}_notapid_0.bin"
        weird.write_bytes(b"?")
        assert reap_orphans(tmp_path) == 0
        assert weird.exists()


class TestWorkerCache:
    def setup_method(self):
        clear_trace_cache()

    def teardown_method(self):
        clear_trace_cache()

    def test_cached_trace_builds_once(self, trace):
        calls = []

        def build():
            calls.append(1)
            return trace

        assert cached_trace("k", build) is trace
        assert cached_trace("k", build) is trace
        assert len(calls) == 1

    def test_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(shm, "WORKER_CACHE_CAPACITY", 2)
        traces = [
            compress_references(np.arange(8) * 8192, name=f"t{i}")
            for i in range(3)
        ]
        for i, t in enumerate(traces):
            cached_trace(f"k{i}", lambda t=t: t)
            t.fingerprint()  # populate the column cache
        # k0 was evicted: its column caches are dropped, and asking for
        # it again builds afresh.
        assert traces[0]._cols == {}
        assert traces[2]._cols != {}
        rebuilt = []
        cached_trace("k0", lambda: rebuilt.append(1) or traces[0])
        assert rebuilt == [1]
        assert traces[1]._cols == {}

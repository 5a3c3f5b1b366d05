"""The shared-memory trace arena: publishing, handles, lifecycle.

The contract under test is the one ``docs/PARALLEL.md`` §5 documents:
each unique trace is published at most once; a ``TraceHandle``
materializes a trace whose arrays are equal to the original (so
simulation results are bit-identical); the arena degrades gracefully
(shm → mmap spill → disabled); segments are unlinked on close and
orphans of dead processes are reaped.
"""

import os
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.sim import shm
from repro.sim.config import SimulationConfig
from repro.sim.shm import (
    SEGMENT_PREFIX,
    SharedTraceArena,
    arena_mode,
    cached_trace,
    clear_trace_cache,
    reap_orphans,
)
from repro.sim.simulator import simulate
from repro.trace.compress import compress_references

HAVE_DEV_SHM = Path("/dev/shm").is_dir()


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
            # An equal-content but distinct object shares the segment.
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
    def test_spill_mode_uses_files(self, trace, tmp_path):
        with SharedTraceArena(mode="spill", spill_dir=tmp_path) as arena:
            handle = arena.publish(trace)
            assert handle.segment is None
            assert handle.spill_path is not None
            assert Path(handle.spill_path).parent == tmp_path
            assert Path(handle.spill_path).stat().st_size == handle.nbytes
            assert_traces_equal(trace, handle.materialize())
        assert not any(tmp_path.iterdir())

    def test_shm_failure_degrades_to_spill(self, trace, tmp_path,
                                           monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no shared memory on this platform")

        monkeypatch.setattr(shm.shared_memory, "SharedMemory", broken)
        with SharedTraceArena(mode="shm", spill_dir=tmp_path) as arena:
            handle = arena.publish(trace)
            assert arena.mode == "spill"
            assert handle is not None and handle.spill_path is not None
            assert_traces_equal(trace, handle.materialize())

    def test_spill_failure_disables_arena(self, trace, monkeypatch):
        def broken(*args, **kwargs):
            raise OSError("no shared memory on this platform")

        monkeypatch.setattr(shm.shared_memory, "SharedMemory", broken)
        arena = SharedTraceArena(
            mode="shm", spill_dir="/proc/nonexistent/spill"
        )
        try:
            assert arena.publish(trace) is None
            assert arena.mode == "off"
        finally:
            arena.close()

    def test_off_mode_publishes_nothing(self, trace):
        with SharedTraceArena(mode="off") as arena:
            assert arena.publish(trace) is None
            assert arena.published_count == 0


class TestEnvKnobs:
    def test_mode_default(self, monkeypatch):
        monkeypatch.delenv(shm.ENV_SHM, raising=False)
        assert arena_mode() == "shm"

    @pytest.mark.parametrize("raw", ["0", "off", "no", "false", " 0 "])
    def test_mode_disabled(self, monkeypatch, raw):
        monkeypatch.setenv(shm.ENV_SHM, raw)
        assert arena_mode() == "off"

    def test_mode_spill(self, monkeypatch):
        monkeypatch.setenv(shm.ENV_SHM, "spill")
        assert arena_mode() == "spill"


@pytest.mark.skipif(not HAVE_DEV_SHM, reason="needs /dev/shm")
class TestLifecycle:
    def test_close_unlinks_segments(self, trace):
        arena = SharedTraceArena(mode="shm")
        handle = arena.publish(trace)
        assert Path("/dev/shm", handle.segment).exists()
        arena.close()
        assert not Path("/dev/shm", handle.segment).exists()
        with pytest.raises(FileNotFoundError):
            handle.materialize()

    def test_close_is_idempotent(self, trace):
        arena = SharedTraceArena(mode="shm")
        arena.publish(trace)
        arena.close()
        arena.close()
        assert arena.publish(trace) is None

    def test_live_mapping_survives_unlink(self, trace):
        config = SimulationConfig(
            memory_pages=6, scheme="eager", subpage_bytes=1024,
            event_ns=1000.0, use_trace_dilation=False,
        )
        arena = SharedTraceArena(mode="shm")
        rebuilt = arena.publish(trace).materialize()
        arena.close()
        # POSIX: unlink removes the name, not the live mapping.
        result = simulate(rebuilt, config)
        assert result.total_ms == simulate(trace, config).total_ms

    def test_reap_orphans_of_dead_pid(self, tmp_path):
        proc = subprocess.Popen(["/bin/true"])
        proc.wait()
        dead_pid = proc.pid
        orphan = Path("/dev/shm") / f"{SEGMENT_PREFIX}_{dead_pid}_0"
        orphan.write_bytes(b"orphaned")
        spill_orphan = tmp_path / f"{SEGMENT_PREFIX}_{dead_pid}_1.bin"
        spill_orphan.write_bytes(b"orphaned")
        live = tmp_path / f"{SEGMENT_PREFIX}_{os.getpid()}_0.bin"
        live.write_bytes(b"live")
        try:
            assert reap_orphans(tmp_path) >= 2
            assert not orphan.exists()
            assert not spill_orphan.exists()
            assert live.exists()
        finally:
            orphan.unlink(missing_ok=True)
            live.unlink(missing_ok=True)

    def test_reap_ignores_malformed_names(self, tmp_path):
        weird = tmp_path / f"{SEGMENT_PREFIX}_notapid_0.bin"
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
            return trace, None

        assert cached_trace("k", build) is trace
        assert cached_trace("k", build) is trace
        assert len(calls) == 1

    def test_lru_evicts_and_runs_closer(self, trace, monkeypatch):
        monkeypatch.setattr(shm, "WORKER_CACHE_CAPACITY", 2)
        closed = []
        for i in range(3):
            cached_trace(
                f"k{i}",
                lambda i=i: (trace, lambda i=i: closed.append(i)),
            )
        assert closed == [0]
        rebuilt = []
        cached_trace("k0", lambda: (rebuilt.append(1) or trace, None))
        assert rebuilt == [1]
        assert closed == [0, 1]


class TestUntrackedAttach:
    """The process-global register patch: reentrant, exception-safe."""

    def _register(self):
        from multiprocessing import resource_tracker

        return resource_tracker.register

    def test_nested_blocks_restore_once(self):
        original = self._register()
        with shm._untracked_attach():
            patched = self._register()
            assert patched is not original
            with shm._untracked_attach():
                # The inner block must NOT save the no-op as "the
                # original": same patched function, deeper count.
                assert self._register() is patched
            assert self._register() is patched
        assert self._register() is original

    def test_exception_inside_block_restores(self):
        original = self._register()
        with pytest.raises(RuntimeError, match="attach failed"):
            with shm._untracked_attach():
                assert self._register() is not original
                raise RuntimeError("attach failed")
        assert self._register() is original

    def test_concurrent_threads_never_lose_the_original(self):
        import threading

        original = self._register()
        barrier = threading.Barrier(8)
        errors = []

        def attach_loop():
            try:
                barrier.wait(timeout=10)
                for _ in range(200):
                    with shm._untracked_attach():
                        assert self._register() is not original
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=attach_loop) for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert self._register() is original
        assert shm._untracked_attach._depth == 0
        assert shm._untracked_attach._saved is None

"""The converted-trace cache: keying, round trips, never-fail puts."""

import os
import time

import numpy as np
import pytest

from repro.atomicfile import STALE_TMP_AGE_S
from repro.ingest.cache import INGEST_VERSION, IngestCache, ingest_key
from repro.ingest.convert import ingest_file
from repro.trace.compress import compress_references

from tests.ingest.conftest import lackey_text, make_references, write_text


def small_trace(name="t"):
    addresses, writes = make_references(n=500)
    return compress_references(addresses, writes, name=name)


BASE_KEY_OPTS = dict(
    fmt="lackey",
    content_sha="ab" * 32,
    page_bytes=8192,
    block_bytes=256,
    dilation=1.0,
    name="t",
)


class TestIngestKey:
    def test_stable(self):
        assert ingest_key(**BASE_KEY_OPTS) == ingest_key(**BASE_KEY_OPTS)

    def test_every_option_changes_the_key(self):
        base = ingest_key(**BASE_KEY_OPTS)
        for override in (
            {"fmt": "cachegrind"},
            {"content_sha": "cd" * 32},
            {"page_bytes": 4096},
            {"block_bytes": 512},
            {"dilation": 2.0},
            {"name": "other"},
            {"include_instr": True},
        ):
            assert ingest_key(**{**BASE_KEY_OPTS, **override}) != base

    def test_versioned(self):
        # The version constant participates via the prefix string.
        assert INGEST_VERSION == 1
        assert len(ingest_key(**BASE_KEY_OPTS)) == 64


class TestIngestCache:
    def test_round_trip(self, tmp_path):
        cache = IngestCache(tmp_path)
        trace = small_trace()
        key = ingest_key(**BASE_KEY_OPTS)
        assert cache.get(key) is None
        assert cache.misses == 1
        assert cache.put(key, trace)
        got = cache.get(key)
        assert got is not None
        assert got.fingerprint() == trace.fingerprint()
        assert cache.hits == 1

    def test_sharded_layout(self, tmp_path):
        cache = IngestCache(tmp_path)
        key = ingest_key(**BASE_KEY_OPTS)
        cache.put(key, small_trace())
        assert (tmp_path / key[:2] / f"{key}.npz").exists()

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = IngestCache(tmp_path)
        key = ingest_key(**BASE_KEY_OPTS)
        cache.put(key, small_trace())
        entry = tmp_path / key[:2] / f"{key}.npz"
        # Garbage, a zip header over garbage (BadZipFile), and an empty
        # file (EOFError).
        for corrupt in (b"garbage", b"PK\x03\x04garbage", b""):
            entry.write_bytes(corrupt)
            misses = cache.misses
            assert cache.get(key) is None
            assert cache.misses == misses + 1
        assert cache.hits == 0

    def test_put_never_fails(self):
        cache = IngestCache("/proc/nonexistent/repro-ingest")
        assert cache.put(ingest_key(**BASE_KEY_OPTS), small_trace()) is (
            False
        )
        assert cache.puts_failed == 1

    def test_stale_tmp_reaped_on_construction(self, tmp_path):
        shard = tmp_path / "ab"
        shard.mkdir()
        stale = shard / f"{'ab' * 32}.tmp.99999.npz"
        stale.write_bytes(b"stranded")
        old = time.time() - STALE_TMP_AGE_S - 60
        os.utime(stale, (old, old))
        fresh = shard / f"{'cd' * 32}.tmp.{os.getpid()}.npz"
        fresh.write_bytes(b"in flight")
        IngestCache(tmp_path)
        assert not stale.exists()
        assert fresh.exists()


class TestIngestFileCaching:
    def test_plain_and_gzip_share_one_entry(
        self, tmp_path, lackey_file, lackey_gz_file
    ):
        cache = IngestCache(tmp_path / "cache")
        first = ingest_file(lackey_file, cache=cache)
        second = ingest_file(lackey_gz_file, cache=cache)
        # Same decompressed content + same derived name = same key.
        assert cache.misses == 1
        assert cache.hits == 1
        assert second.fingerprint() == first.fingerprint()
        entries = list((tmp_path / "cache").glob("*/*.npz"))
        assert len(entries) == 1

    def test_cache_accepts_a_path(self, tmp_path, lackey_file):
        root = tmp_path / "bypath"
        ingest_file(lackey_file, cache=root)
        assert list(root.glob("*/*.npz"))

    def test_option_change_misses(self, tmp_path, lackey_file):
        cache = IngestCache(tmp_path / "cache")
        ingest_file(lackey_file, cache=cache)
        ingest_file(lackey_file, cache=cache, block_bytes=512)
        assert cache.misses == 2
        assert cache.hits == 0

    def test_chunk_size_shares_the_entry(self, tmp_path, lackey_file):
        # Chunking is an execution detail: same key, so the second
        # conversion with a different chunk size is a cache hit.
        cache = IngestCache(tmp_path / "cache")
        ingest_file(lackey_file, cache=cache, chunk_refs=100)
        ingest_file(lackey_file, cache=cache, chunk_refs=9999)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_content_change_misses(self, tmp_path):
        cache = IngestCache(tmp_path / "cache")
        a_addr, a_w = make_references(seed=1)
        b_addr, b_w = make_references(seed=2)
        path = write_text(tmp_path / "app.trace", lackey_text(a_addr, a_w))
        ingest_file(path, cache=cache)
        write_text(path, lackey_text(b_addr, b_w))
        ingest_file(path, cache=cache)
        assert cache.misses == 2

    def test_cached_trace_is_bit_identical(self, tmp_path, lackey_file):
        cache = IngestCache(tmp_path / "cache")
        fresh = ingest_file(lackey_file, cache=cache)
        cached = ingest_file(lackey_file, cache=cache)
        assert cached.fingerprint() == fresh.fingerprint()
        assert np.array_equal(cached.pages, fresh.pages)
        assert np.array_equal(cached.counts, fresh.counts)
        assert cached.dilation == fresh.dilation

"""Streaming conversion: fingerprints, chunk invariance, env knobs."""

import numpy as np
import pytest

from repro.errors import IngestError
from repro.ingest.convert import (
    DEFAULT_CHUNK_REFS,
    default_cache_dir,
    default_trace_name,
    ingest_file,
    ingest_stream,
)
from repro.trace.compress import compress_references

from tests.ingest.conftest import lackey_text, write_text


class TestDefaultTraceName:
    def test_strips_format_suffix(self):
        assert default_trace_name("/x/app.trace") == "app"

    def test_strips_gz_then_suffix(self):
        # Plain and gzip copies must derive the same name — the name is
        # part of the RunTrace fingerprint.
        assert default_trace_name("/x/app.trace.gz") == "app"
        assert default_trace_name("app.trace") == default_trace_name(
            "app.trace.gz"
        )

    def test_suffixless_name_survives(self):
        assert default_trace_name("trace") == "trace"


class TestIngestStream:
    def test_matches_whole_stream_compression(self, refs):
        addresses, writes = refs
        whole = compress_references(
            addresses, writes, dilation=2.0, name="t"
        )
        chunked = ingest_stream(
            (
                (addresses[i : i + 100], writes[i : i + 100])
                for i in range(0, len(addresses), 100)
            ),
            dilation=2.0,
            name="t",
        )
        assert chunked.fingerprint() == whole.fingerprint()
        assert np.array_equal(chunked.pages, whole.pages)
        assert np.array_equal(chunked.counts, whole.counts)

    def test_empty_stream(self):
        trace = ingest_stream(iter([]), name="empty")
        assert trace.num_references == 0
        assert trace.name == "empty"

    def test_many_chunks_trigger_interim_merges(self, refs):
        addresses, writes = refs
        whole = compress_references(addresses, writes, name="t")
        # Chunk size 8 yields hundreds of pieces, crossing _MERGE_EVERY.
        tiny = ingest_stream(
            (
                (addresses[i : i + 8], writes[i : i + 8])
                for i in range(0, len(addresses), 8)
            ),
            name="t",
        )
        assert tiny.fingerprint() == whole.fingerprint()


class TestIngestFile:
    def test_gzip_and_plain_fingerprint_identically(
        self, lackey_file, lackey_gz_file
    ):
        plain = ingest_file(lackey_file, cache=None)
        zipped = ingest_file(lackey_gz_file, cache=None)
        assert plain.fingerprint() == zipped.fingerprint()
        assert plain.name == zipped.name == "app"
        assert np.array_equal(plain.pages, zipped.pages)
        assert np.array_equal(plain.blocks, zipped.blocks)
        assert np.array_equal(plain.counts, zipped.counts)
        assert np.array_equal(plain.writes, zipped.writes)

    def test_chunk_size_does_not_change_output(self, lackey_file):
        default = ingest_file(lackey_file, cache=None)
        odd = ingest_file(lackey_file, cache=None, chunk_refs=137)
        assert odd.fingerprint() == default.fingerprint()

    def test_explicit_format_and_options(self, lackey_file):
        trace = ingest_file(
            lackey_file,
            fmt="lackey",
            block_bytes=512,
            dilation=4.0,
            name="custom",
            cache=None,
        )
        assert trace.name == "custom"
        assert trace.block_bytes == 512
        assert trace.dilation == 4.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="no trace file"):
            ingest_file(tmp_path / "absent.trace", cache=None)

    def test_unknown_format(self, lackey_file):
        with pytest.raises(IngestError, match="unknown trace format"):
            ingest_file(lackey_file, fmt="etrace", cache=None)

    def test_garbled_line_diagnostic_bubbles_up(self, tmp_path):
        path = write_text(
            tmp_path / "bad.trace", " L 1000,8\n L zzzz,8\n"
        )
        with pytest.raises(
            IngestError, match=r"lackey line 2: bad hex address"
        ):
            ingest_file(path, cache=None)


class TestEnvKnobs:
    def test_cache_dir_configured(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_INGEST_CACHE", str(tmp_path / "ic"))
        assert default_cache_dir() == tmp_path / "ic"

    def test_cache_dir_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_INGEST_CACHE", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == (
            tmp_path / "xdg" / "repro" / "ingest"
        )

    def test_cache_dir_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_INGEST_CACHE", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        path = default_cache_dir()
        assert path.parts[-2:] == ("repro", "ingest")



class TestChunkSize:
    def test_info_reports_the_default_chunk(self, lackey_file, capsys):
        from repro.ingest.__main__ import main

        assert main(["info", str(lackey_file)]) == 0
        out = capsys.readouterr().out
        assert f"(chunk size {DEFAULT_CHUNK_REFS})" in out

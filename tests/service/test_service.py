"""End-to-end tests for the sweep service over real HTTP sockets.

The server runs on its own event-loop thread bound to an ephemeral
port; the tests are plain ``http.client`` calls, so everything from
request parsing through SSE framing to CSV rendering is exercised the
way an external client would see it.
"""

import asyncio
import http.client
import json
import threading

import pytest

from repro.errors import ConfigError
from repro.service import JobManager, ServiceServer, SweepSpec
from repro.sim.sweep import run_subpage_sweep
from repro.store import SqliteResultStore
from repro.trace.synth.apps import build_app_trace

from tests.sim.test_config import REMOVED_ADAPTIVE_SETTINGS

#: A tiny but real spec: the modula3 app model at quarter scale, a
#: 2-cell Figure 3 grid.  Small enough to run in well under a second.
SPEC = {
    "app": "modula3",
    "seed": 0,
    "scale": 0.25,
    "base": {"scheme": "eager"},
    "subpage_sizes": [4096, 1024],
    "memory_fractions": {"1/2-mem": 0.5},
    "include_baselines": False,
}


class ServiceHarness:
    """A live service on an ephemeral port, driven from the test thread."""

    def __init__(self, store=None):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        self.manager = JobManager(store=store, workers=1)
        self.server = ServiceServer(self.manager, port=0)
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(timeout=10)
        self.port = self.server.port

    def close(self):
        asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        ).result(timeout=10)
        self.manager.close()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)

    # -- client side --------------------------------------------------------

    def request(self, method, path, payload=None):
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=120
        )
        body = json.dumps(payload).encode() if payload is not None else None
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = response.read()
        conn.close()
        return response.status, response.getheader("Content-Type"), data

    def get_json(self, path):
        status, _, data = self.request("GET", path)
        return status, json.loads(data)

    def submit(self, spec):
        status, _, data = self.request("POST", "/sweeps", payload=spec)
        return status, json.loads(data)

    def stream_events(self, job_id):
        """Read the SSE stream to the terminal frame; return the events.

        The server closes the connection after the ``done``/``failed``
        frame, so one blocking read drains the whole stream.
        """
        status, content_type, data = self.request(
            "GET", f"/sweeps/{job_id}/events"
        )
        assert status == 200
        assert content_type.startswith("text/event-stream")
        frames = [
            chunk for chunk in data.decode().split("\n\n") if chunk
        ]
        events = []
        for frame in frames:
            assert frame.startswith("data: ")
            events.append(json.loads(frame[len("data: "):]))
        return events

    def finish_job(self, spec=SPEC):
        """Submit ``spec``, stream to completion, return (id, summary)."""
        status, submitted = self.submit(spec)
        assert status == 201
        job_id = submitted["id"]
        events = self.stream_events(job_id)
        assert events[-1]["type"] == "done", events[-1]
        return job_id, events


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    store = SqliteResultStore(
        tmp_path_factory.mktemp("svc") / "results.sqlite"
    )
    harness = ServiceHarness(store=store)
    yield harness
    harness.close()


class TestEndToEnd:
    def test_healthz_and_store(self, service):
        status, health = service.get_json("/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert health["workers"] == 1
        assert "batch" not in health
        assert health["store"].endswith("results.sqlite")
        status, stats = service.get_json("/store")
        assert status == 200
        assert stats["path"].endswith("results.sqlite")

    def test_sweep_lifecycle_and_csv_identical_to_in_process(
        self, service
    ):
        job_id, events = service.finish_job()
        kinds = [e["type"] for e in events]
        assert kinds[0] == "state"  # queued
        assert "plan" in kinds
        plan = next(e for e in events if e["type"] == "plan")
        assert plan["cells_total"] == 2
        cell_events = [e for e in events if e["type"] == "cell"]
        assert len(cell_events) == 2
        assert all(e["status"] == "done" for e in cell_events)

        status, summary = service.get_json(f"/sweeps/{job_id}")
        assert status == 200
        assert summary["state"] == "done"
        assert summary["cells_total"] == 2
        assert summary["cells_computed"] == 2
        assert summary["cells_cached"] == 0
        assert summary["cache_errors"] == 0

        status, content_type, served = service.request(
            "GET", f"/sweeps/{job_id}/csv"
        )
        assert status == 200
        assert content_type.startswith("text/csv")
        trace = build_app_trace("modula3", seed=0, scale=0.25)
        local = run_subpage_sweep(
            trace,
            {"scheme": "eager"},
            [4096, 1024],
            {"1/2-mem": 0.5},
            include_baselines=False,
            workers=1,
        )
        assert served == local.to_csv().encode()

        status, cells = service.get_json(f"/sweeps/{job_id}/cells")
        assert status == 200
        assert len(cells["cells"]) == 2
        assert all(c["total_ms"] > 0 for c in cells["cells"])

    def test_resubmit_is_served_entirely_from_store(self, service):
        job_id, events = service.finish_job()
        assert all(
            e["status"] == "cached"
            for e in events if e["type"] == "cell"
        )
        _, summary = service.get_json(f"/sweeps/{job_id}")
        assert summary["cells_cached"] == 2
        assert summary["cells_computed"] == 0

    def test_edited_spec_recomputes_only_new_cells(self, service):
        spec = dict(SPEC, subpage_sizes=[4096, 1024, 512])
        job_id, events = service.finish_job(spec)
        statuses = sorted(
            e["status"] for e in events if e["type"] == "cell"
        )
        assert statuses == ["cached", "cached", "done"]
        _, summary = service.get_json(f"/sweeps/{job_id}")
        assert summary["cells_computed"] == 1
        assert summary["cells_cached"] == 2

    def test_late_subscriber_replays_full_history(self, service):
        job_id, first = service.finish_job()
        replay = service.stream_events(job_id)
        assert replay == first

    def test_job_listing(self, service):
        status, listing = service.get_json("/sweeps")
        assert status == 200
        assert len(listing["jobs"]) >= 1
        assert all(j["state"] == "done" for j in listing["jobs"])

    def test_memory_kind_has_cells_but_no_grid(self, service):
        spec = {
            "app": "modula3",
            "kind": "memory",
            "scale": 0.25,
            "base": {"scheme": "eager"},
            "memory_fractions": {"full-mem": 1.0, "1/2-mem": 0.5},
        }
        job_id, events = service.finish_job(spec)
        status, cells = service.get_json(f"/sweeps/{job_id}/cells")
        assert status == 200
        assert sorted(c["key"] for c in cells["cells"]) == [
            "1/2-mem", "full-mem",
        ]
        status, body = service.get_json(f"/sweeps/{job_id}/csv")
        assert status == 409
        assert "no grid" in body["error"]


class TestErrorMapping:
    def test_malformed_specs_are_400(self, service):
        for bad in (
            {"app": 123},
            {"app": "modula3", "kind": "nope"},
            {"app": "modula3", "subpage_sizes": []},
            {"app": "modula3", "base": {"not_a_field": 1}},
            {"app": "modula3", "unknown_key": 1},
            {"app": "no-such-app"},
            {"app": "modula3", "include_baselines": "false"},
            {"app": "modula3", "seed": True},
            {"app": "modula3", "subpage_sizes": [True]},
            {"app": "modula3", "batch": "yes"},
            {"app": "modula3", "base": {"engine": "fast"}},
            ["not", "an", "object"],
        ):
            status, body = service.submit(bad)
            assert status == 400, bad
            assert body["error"]
        # Real fields with bad values fail at submit too, not later in
        # the worker thread, and the error names the field.
        for base, name in (
            ({"scheme": "nope"}, "scheme"),
            ({"scheme": "pipelined", "scheme_kwargs": {"bogus": 1}},
             "scheme_kwargs"),
            ({"subpage_bytes": 3000}, "subpage_bytes"),
            ({"backing": "tape"}, "backing"),
            ({"observe": "bogus"}, "observe"),
            ({"replacement": "mru"}, "replacement"),
            ({"page_bytes": 4096}, "page_bytes"),
            *(
                ({"scheme": "adaptive", "scheme_kwargs": {setting: value}},
                 "scheme_kwargs")
                for setting, value in REMOVED_ADAPTIVE_SETTINGS
            ),
        ):
            status, body = service.submit({"app": "modula3", "base": base})
            assert status == 400, base
            assert name in body["error"], body

    def test_bad_json_is_400(self, service):
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30
        )
        conn.request("POST", "/sweeps", body=b"{not json")
        response = conn.getresponse()
        assert response.status == 400
        assert b"bad JSON" in response.read()
        conn.close()

    def test_unknown_job_and_route_are_404(self, service):
        status, body = service.get_json("/sweeps/job-9999")
        assert status == 404
        assert "job-9999" in body["error"]
        status, _ = service.get_json("/nope")
        assert status == 404

    def test_wrong_method_is_405(self, service):
        status, _, _ = service.request("DELETE", "/sweeps")
        assert status == 405


class TestIngestedTraces:
    """``ingest:<path>`` app names flow through the service."""

    def test_missing_trace_file_is_400(self, service):
        status, body = service.submit(
            {"app": "ingest:/nonexistent/app.trace"}
        )
        assert status == 400
        assert "not found" in body["error"]
        assert "/nonexistent/app.trace" in body["error"]

    def test_sweep_over_an_ingested_trace(
        self, service, tmp_path, monkeypatch
    ):
        from tests.ingest.conftest import lackey_text, make_references

        monkeypatch.setenv(
            "REPRO_INGEST_CACHE", str(tmp_path / "ingest-cache")
        )
        path = tmp_path / "served.trace"
        path.write_text(lackey_text(*make_references(n=3000)))
        spec = {
            "app": f"ingest:{path}",
            "base": {"scheme": "eager"},
            "subpage_sizes": [4096, 1024],
            "memory_fractions": {"1/2-mem": 0.5},
            "include_baselines": False,
        }
        job_id, events = service.finish_job(spec)
        _, summary = service.get_json(f"/sweeps/{job_id}")
        assert summary["state"] == "done"
        assert summary["cells_total"] == 2
        status, cells = service.get_json(f"/sweeps/{job_id}/cells")
        assert status == 200
        assert all(c["total_ms"] > 0 for c in cells["cells"])


class TestSpecValidation:
    def test_round_trip(self):
        spec = SweepSpec.from_dict(SPEC)
        assert spec.app == "modula3"
        assert spec.subpage_sizes == (4096, 1024)
        assert spec.as_dict()["memory_fractions"] == {"1/2-mem": 0.5}
        assert SweepSpec.from_dict(spec.as_dict()) == spec

    def test_jobs_match_in_process_builders(self):
        from repro.sim.sweep import subpage_sweep_jobs

        spec = SweepSpec.from_dict(SPEC)
        trace = spec.build_trace()
        jobs = spec.build_jobs(trace)
        direct = subpage_sweep_jobs(
            trace,
            {"scheme": "eager"},
            [4096, 1024],
            {"1/2-mem": 0.5},
            include_baselines=False,
        )
        assert [j.key for j in jobs] == [j.key for j in direct]
        assert [j.config for j in jobs] == [j.config for j in direct]

    def test_string_include_baselines_is_rejected(self):
        with pytest.raises(ConfigError, match="include_baselines"):
            SweepSpec.from_dict({**SPEC, "include_baselines": "false"})

    def test_bool_seed_is_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            SweepSpec.from_dict({**SPEC, "seed": True})

    def test_bool_subpage_size_is_rejected(self):
        with pytest.raises(ConfigError, match="subpage_sizes"):
            SweepSpec.from_dict({**SPEC, "subpage_sizes": [4096, True]})

    def test_bool_scale_is_rejected(self):
        with pytest.raises(ConfigError, match="scale"):
            SweepSpec.from_dict({**SPEC, "scale": True})

    def test_bool_memory_fraction_is_rejected(self):
        with pytest.raises(ConfigError, match="memory_fractions"):
            SweepSpec.from_dict({**SPEC, "memory_fractions": {"x": True}})

    @pytest.mark.parametrize("value", ["true", 1, None])
    def test_non_boolean_batch_is_rejected(self, value):
        with pytest.raises(ConfigError, match="batch"):
            SweepSpec.from_dict({**SPEC, "batch": value})

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_batch_is_accepted_and_ignored(self, value):
        spec = SweepSpec.from_dict({**SPEC, "batch": value})
        assert spec == SweepSpec.from_dict(SPEC)
        assert "batch" not in spec.as_dict()

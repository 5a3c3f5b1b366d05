"""The Instrument hook protocol, the Recorder, and simulator wiring."""

import pytest

from repro.core.fault import KIND_CODES, FaultKind
from repro.errors import ConfigError
from repro.obs.instrument import (
    Instrument,
    Recorder,
    parse_observe_spec,
)
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulator, simulate

from tests.conftest import make_trace, page_addr


class TestParseObserveSpec:
    def test_valid_specs(self):
        assert parse_observe_spec("") == frozenset()
        assert parse_observe_spec("trace") == {"trace"}
        assert parse_observe_spec("metrics") == {"metrics"}
        assert parse_observe_spec("trace,metrics") == {"trace", "metrics"}
        assert parse_observe_spec(" metrics , trace ") == {
            "trace", "metrics",
        }

    def test_unknown_token_rejected(self):
        with pytest.raises(ConfigError, match="unknown observe token"):
            parse_observe_spec("trace,profile")

    def test_config_validate_checks_spec(self, base_config):
        bad = base_config.with_overrides(observe="bogus")
        with pytest.raises(ConfigError):
            bad.validate()
        base_config.with_overrides(observe="trace,metrics").validate()


class TestRecorder:
    def record(self, **kwargs):
        """``on_fault``'s arguments: the row ``FaultLog.append`` takes,
        then no eviction and no link transfer unless overridden."""
        base = dict(page=3, subpage=1, kind=FaultKind.REMOTE, time_ms=2.0,
                    sp_latency_ms=0.5, window_start_ms=0.0,
                    window_end_ms=0.0, cpu_overhead_ms=0.0,
                    overlapped_another=False,
                    evicted=None, evicted_dirty=False, cancelled=False,
                    demand_ready_ms=None, demand_wire_ms=0.0,
                    background_ready_ms=0.0, background_start_ms=None,
                    background_wire_ms=0.0)
        base.update(kwargs)
        base["kind"] = KIND_CODES[base["kind"]]
        return base

    def test_from_spec_selects_sinks(self):
        rec = Recorder.from_spec("trace")
        assert rec.trace is not None and rec.metrics is None
        rec = Recorder.from_spec("metrics")
        assert rec.trace is None and rec.metrics is not None

    def test_on_fault_counts_and_emits(self):
        rec = Recorder.from_spec("trace,metrics")
        rec.on_fault(**self.record())
        rec.on_fault(**self.record(overlapped_another=True))
        rec.on_fault(**self.record(kind=FaultKind.DISK, sp_latency_ms=8.0))
        assert rec.metrics.counters == {
            "faults_remote": 2, "faults_overlapped": 1, "faults_disk": 1,
        }
        types = [e["type"] for e in rec.trace.events]
        # Each fault emits an instant plus a stall span; the disk fault
        # adds a disk-track transfer span.
        assert types.count("fault") == 3
        assert types.count("stall") == 3
        assert types.count("transfer") == 1

    def test_publish_skips_non_numeric_stats(self):
        rec = Recorder.from_spec("metrics")
        rec.publish("link", {
            "demand_transfers": 4, "queueing_delay_ms": 1.5,
            "enabled": True, "label": "x",
        })
        assert rec.metrics.gauges == {
            "link_demand_transfers": 4, "link_queueing_delay_ms": 1.5,
        }

    def test_transfer_queue_delay_accumulates(self):
        rec = Recorder.from_spec("metrics")
        rec.on_fault(**self.record(
            demand_ready_ms=0.0, demand_wire_ms=0.5,
            background_ready_ms=0.5, background_start_ms=0.75,
            background_wire_ms=1.0,
        ))
        rec.on_fault(**self.record(
            demand_ready_ms=1.0, demand_wire_ms=0.5,
            background_ready_ms=1.5, background_start_ms=2.0,
            background_wire_ms=1.0,
        ))
        rec.on_fault(**self.record(demand_ready_ms=2.0, demand_wire_ms=1.0))
        assert rec.metrics.counters["transfers_background"] == 2
        assert rec.metrics.counters["transfers_demand"] == 3
        assert rec.metrics.counters["transfer_queue_delay_ms"] == (
            pytest.approx(0.75)
        )

    def test_one_call_emits_every_event_in_order(self):
        """A fault's one hook call carries its eviction and both its
        transfers; the recorder emits them before the fault itself, in
        the order they happened."""
        rec = Recorder.from_spec("trace,metrics")
        rec.on_fault(**self.record(
            evicted=7, evicted_dirty=True, cancelled=True,
            demand_ready_ms=2.25, demand_wire_ms=0.125,
            background_ready_ms=2.375, background_start_ms=2.5,
            background_wire_ms=0.875,
        ))
        events = [
            (e["type"], e.get("kind"), e["t_ms"], e.get("dur_ms"))
            for e in rec.trace.events
        ]
        assert events == [
            ("eviction", None, 2.0, 0.0),
            ("transfer", "demand", 2.25, 0.125),
            ("transfer", "background", 2.5, 0.875),
            ("fault", "remote", 2.0, 0.0),
            ("stall", "remote", 2.0, 0.5),
        ]
        eviction = rec.trace.events[0]
        assert eviction["page"] == 7
        assert eviction["dirty"] and eviction["cancelled"]
        assert rec.trace.events[1]["queue_delay_ms"] == 0.0
        assert rec.trace.events[2]["queue_delay_ms"] == 0.125
        assert rec.metrics.counters == {
            "evictions": 1, "evictions_dirty": 1, "transfers_cancelled": 1,
            "transfers_demand": 1, "transfers_background": 1,
            "transfer_queue_delay_ms": 0.125, "faults_remote": 1,
        }


def eviction_workload():
    """A write-heavy workload over 6 pages in 3 frames: remote faults,
    overlapped transfers, evictions (some dirty, some with in-flight
    arrivals), and page waits."""
    pages = [0, 1, 2, 3, 0, 4, 1, 5, 2, 0, 3, 1]
    addrs = [page_addr(p, 512 * (i % 3)) for i, p in enumerate(pages)]
    writes = [i % 2 == 0 for i in range(len(addrs))]
    return make_trace(addrs, writes)


class TestSimulatorWiring:
    def run_observed(self, base_config):
        config = base_config.with_overrides(
            memory_pages=3, congestion=True, observe="trace,metrics",
        )
        return simulate(eviction_workload(), config)

    def test_counters_match_result_fields_exactly(self, base_config):
        result = self.run_observed(base_config)
        counters = result.metrics["counters"]
        expected = {
            "faults_remote": result.remote_faults,
            "faults_disk": result.disk_faults,
            "faults_subpage": result.subpage_faults,
            "faults_overlapped": result.overlapped_faults,
            "evictions": result.evictions,
            "evictions_dirty": result.dirty_evictions,
            "transfers_cancelled": result.cancelled_transfers,
            "transfers_demand": result.link_stats["demand_transfers"],
            "transfers_background": (
                result.link_stats["background_transfers"]
            ),
        }
        for name, value in expected.items():
            assert counters.get(name, 0) == value, name
        # The workload actually exercises the interesting paths.
        assert result.evictions > 0
        assert result.dirty_evictions > 0
        assert result.overlapped_faults > 0

    def test_gauges_mirror_run_stats(self, base_config):
        result = self.run_observed(base_config)
        gauges = result.metrics["gauges"]
        assert gauges["sim_total_ms"] == pytest.approx(result.total_ms)
        assert gauges["sim_references"] == result.num_references
        for key, value in result.link_stats.items():
            assert gauges[f"link_{key}"] == pytest.approx(value)

    def test_waiting_histogram_covers_every_fault(self, base_config):
        result = self.run_observed(base_config)
        hist = result.metrics["histograms"]["fault_waiting_ms"]
        assert hist["count"] == len(result.fault_records)

    def test_trace_events_cover_fault_path(self, base_config):
        result = self.run_observed(base_config)
        types = {e["type"] for e in result.trace_events}
        assert {"fault", "stall", "transfer", "eviction"} <= types
        faults = [
            e for e in result.trace_events if e["type"] == "fault"
        ]
        assert len(faults) == result.total_faults

    def test_fault_events_follow_their_eviction_and_transfers(
        self, base_config
    ):
        """Each fault's eviction and transfers are emitted just before
        the fault itself: same time for the eviction, same page for the
        transfers."""
        result = self.run_observed(base_config)
        before = []
        seen = set()
        for event in result.trace_events:
            if event["type"] in ("eviction", "transfer"):
                before.append(event)
            elif event["type"] == "fault":
                for earlier in before:
                    seen.add((earlier["type"], earlier.get("kind")))
                    if earlier["type"] == "eviction":
                        assert earlier["t_ms"] == event["t_ms"]
                    else:
                        assert earlier["page"] == event["page"]
                before = []
        assert not before
        assert seen == {
            ("eviction", None), ("transfer", "demand"),
            ("transfer", "background"),
        }

    def test_disabled_by_default(self, base_config):
        config = base_config.with_overrides(memory_pages=3,
                                            congestion=True)
        result = simulate(eviction_workload(), config)
        assert result.metrics is None
        assert result.trace_events is None

    def test_observation_does_not_change_the_simulation(self, base_config):
        plain = simulate(
            eviction_workload(),
            base_config.with_overrides(memory_pages=3, congestion=True),
        )
        observed = self.run_observed(base_config)
        assert observed.total_ms == pytest.approx(plain.total_ms)
        assert observed.summary() == plain.summary()

    def test_external_instrument_wins_over_config(self, base_config):
        class Counting(Instrument):
            def __init__(self):
                self.faults = 0
                self.evictions = 0

            def on_fault(self, *args):
                self.faults += 1
                evicted = args[9]
                if evicted is not None:
                    self.evictions += 1

        counting = Counting()
        config = base_config.with_overrides(
            memory_pages=3, congestion=True, observe="metrics",
        )
        result = Simulator(config, instrument=counting).run(
            eviction_workload()
        )
        assert counting.faults == result.total_faults
        assert counting.evictions == result.evictions
        # The external instrument replaces the config-built recorder, so
        # no payloads are attached to the result.
        assert result.metrics is None


class TestParallelMetricsMerge:
    def test_run_cells_merges_per_cell_registries(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.sim.parallel import SweepJob, run_cells

        trace = eviction_workload()
        jobs = [
            SweepJob(
                key=pages,
                trace=trace,
                config=SimulationConfig(
                    memory_pages=pages, observe="metrics",
                ),
            )
            for pages in (3, 4)
        ]
        results = run_cells(jobs, workers=1)
        registry = MetricsRegistry()
        for result in results.values():
            registry.merge_dict(result.metrics)
        expected = sum(r.remote_faults for r in results.values())
        assert registry.counters["faults_remote"] == expected
        assert registry.histograms["fault_waiting_ms"].count == sum(
            len(r.fault_records) for r in results.values()
        )

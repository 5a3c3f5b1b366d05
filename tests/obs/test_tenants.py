"""Per-tenant tail-latency report and its JSON validator."""

import numpy as np
import pytest

from repro.obs.tenants import (
    TENANT_METRICS_SCHEMA,
    TenantLatencyReport,
    validate_tenant_metrics,
)


class FakeResult:
    """The slice of SimulationResult the report reads."""

    def __init__(self, samples, total_ms):
        self._samples = np.asarray(samples, dtype=float)
        self.total_ms = total_ms

    def waiting_times_ms(self):
        return self._samples


class TestReport:
    def test_quantiles_match_numpy(self):
        samples = [1.0, 2.0, 3.0, 4.0, 100.0]
        report = TenantLatencyReport.from_results(
            {"t0": FakeResult(samples, total_ms=500.0)}
        )
        tenant = report.tenants["t0"]
        assert tenant.faults == 5
        assert tenant.p50_ms == pytest.approx(np.percentile(samples, 50))
        assert tenant.p99_ms == pytest.approx(np.percentile(samples, 99))
        assert tenant.mean_ms == pytest.approx(22.0)
        assert tenant.max_ms == pytest.approx(100.0)
        assert tenant.histogram.count == 5

    def test_no_samples_at_all(self):
        report = TenantLatencyReport.from_results(
            {"t0": FakeResult([], total_ms=1.0)}
        )
        tenant = report.tenants["t0"]
        assert tenant.faults == 0
        assert tenant.p99_ms == 0.0

    def test_slowdown_against_baseline(self):
        report = TenantLatencyReport.from_results(
            {"t0": FakeResult([1.0], total_ms=30.0)},
            baselines={"t0": 10.0},
        )
        assert report.tenants["t0"].slowdown == pytest.approx(3.0)

    def test_missing_baseline_leaves_slowdown_none(self):
        report = TenantLatencyReport.from_results(
            {"t0": FakeResult([1.0], total_ms=30.0)}, baselines={}
        )
        assert report.tenants["t0"].slowdown is None


class TestFairness:
    def two_tenant_report(self, baselines=None):
        return TenantLatencyReport.from_results(
            {
                "a": FakeResult([1.0, 1.0], total_ms=20.0),
                "b": FakeResult([4.0, 4.0], total_ms=30.0),
            },
            baselines=baselines,
        )

    def test_max_over_min_slowdown(self):
        report = self.two_tenant_report(baselines={"a": 10.0, "b": 10.0})
        # Slowdowns 2.0 and 3.0 -> fairness 1.5.
        assert report.fairness() == pytest.approx(1.5)

    def test_falls_back_to_mean_latency_ratio(self):
        report = self.two_tenant_report()  # no baselines
        assert report.fairness() == pytest.approx(4.0)

    def test_single_tenant_is_fair(self):
        report = TenantLatencyReport.from_results(
            {"a": FakeResult([1.0], total_ms=1.0)}
        )
        assert report.fairness() == 1.0

    def test_zero_minimum_guarded(self):
        report = TenantLatencyReport.from_results(
            {
                "a": FakeResult([], total_ms=1.0),  # mean 0.0
                "b": FakeResult([5.0], total_ms=1.0),
            }
        )
        assert report.fairness() == 1.0


class TestValidator:
    def valid_summary(self):
        return TenantLatencyReport.from_results(
            {
                "a": FakeResult([1.0, 2.0], total_ms=10.0),
                "b": FakeResult([3.0], total_ms=12.0),
            },
            baselines={"a": 5.0, "b": 6.0},
        ).summary()

    def test_summary_validates_clean(self):
        summary = self.valid_summary()
        assert summary["schema"] == TENANT_METRICS_SCHEMA
        assert validate_tenant_metrics(summary) == []

    def test_rejects_non_object(self):
        assert validate_tenant_metrics([]) != []

    def test_rejects_wrong_schema(self):
        summary = self.valid_summary()
        summary["schema"] = "bogus/v0"
        assert any("schema" in p for p in
                   validate_tenant_metrics(summary))

    def test_rejects_empty_tenants(self):
        summary = self.valid_summary()
        summary["tenants"] = {}
        assert any("tenants" in p for p in
                   validate_tenant_metrics(summary))

    def test_rejects_inverted_tail(self):
        summary = self.valid_summary()
        summary["tenants"]["a"]["p99_ms"] = 0.5
        summary["tenants"]["a"]["p50_ms"] = 2.0
        assert any("p99_ms < p50_ms" in p for p in
                   validate_tenant_metrics(summary))

    def test_rejects_subunity_fairness(self):
        summary = self.valid_summary()
        summary["fairness"] = 0.8
        assert any("fairness" in p for p in
                   validate_tenant_metrics(summary))

    def test_rejects_bad_histogram(self):
        summary = self.valid_summary()
        summary["tenants"]["a"]["histogram"]["counts"] = "nope"
        assert validate_tenant_metrics(summary) != []

    def test_survives_json_round_trip(self):
        import json

        summary = json.loads(json.dumps(self.valid_summary()))
        assert validate_tenant_metrics(summary) == []

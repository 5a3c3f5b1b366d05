"""Per-tenant tail-latency and fairness reporting.

The multi-tenant scheduler (:mod:`repro.sim.multitenant`) judges
contention the way the disaggregation literature does (INDIGO, Leap —
PAPERS.md): not by mean slowdown but by the *tail* each tenant sees and
by how evenly the pain is spread.  This module turns a set of per-tenant
:class:`~repro.sim.results.SimulationResult` objects into:

* a per-tenant fault-latency :class:`~repro.obs.metrics.Histogram` plus
  exact p50/p99 quantiles, computed from the raw per-fault waiting
  times in the run's fault log;
* a per-tenant *slowdown* against a caller-supplied solo baseline;
* a cluster-wide **fairness** gauge — max/min slowdown (1.0 = perfectly
  fair), the figMT experiment's headline contention metric.

Everything serializes to a schema-tagged JSON dict
(:data:`TENANT_METRICS_SCHEMA`) validated by
``tools/validate_obs.py --tenant-metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.obs.metrics import DEFAULT_MS_BOUNDS, Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.results import SimulationResult

#: Schema tag written into tenant-metrics JSON files.
TENANT_METRICS_SCHEMA = "repro.obs.tenants/v1"


@dataclass(slots=True)
class TenantLatency:
    """One tenant's fault-latency distribution and slowdown."""

    tenant: str
    faults: int
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    total_ms: float
    #: ``total_ms`` relative to the tenant's solo baseline (None when no
    #: baseline was supplied).
    slowdown: float | None
    histogram: Histogram

    def as_dict(self) -> dict[str, Any]:
        return {
            "faults": self.faults,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "total_ms": self.total_ms,
            "slowdown": self.slowdown,
            "histogram": self.histogram.as_dict(),
        }


class TenantLatencyReport:
    """Fault-latency tails and fairness across one tenant set."""

    def __init__(self, tenants: list[TenantLatency]) -> None:
        self.tenants = {t.tenant: t for t in tenants}

    @classmethod
    def from_results(
        cls,
        results: Mapping[str, "SimulationResult"],
        baselines: Mapping[str, float] | None = None,
    ) -> "TenantLatencyReport":
        """Build the report from per-tenant simulation results.

        ``baselines`` maps tenant name to its *solo* run's ``total_ms``;
        tenants present there get a slowdown (and the fairness gauge
        prefers slowdowns over raw latencies).
        """
        tenants: list[TenantLatency] = []
        for name, result in results.items():
            samples = result.waiting_times_ms()
            histogram = Histogram(DEFAULT_MS_BOUNDS)
            for value in samples:
                histogram.add(float(value))
            if samples.size:
                p50 = float(np.percentile(samples, 50))
                p99 = float(np.percentile(samples, 99))
                mean = float(samples.mean())
                peak = float(samples.max())
            else:
                p50 = p99 = mean = peak = 0.0
            slowdown = None
            if baselines is not None and name in baselines:
                base = baselines[name]
                if base > 0:
                    slowdown = result.total_ms / base
            tenants.append(TenantLatency(
                tenant=name,
                faults=int(samples.size),
                p50_ms=p50,
                p99_ms=p99,
                mean_ms=mean,
                max_ms=peak,
                total_ms=result.total_ms,
                slowdown=slowdown,
                histogram=histogram,
            ))
        return cls(tenants)

    def fairness(self) -> float:
        """Max/min slowdown across tenants (1.0 = perfectly fair).

        Falls back to the max/min *mean latency* ratio when no tenant
        has a baseline; degenerate cases (one tenant, zero minimum)
        report 1.0 rather than dividing by zero.
        """
        slowdowns = [
            t.slowdown for t in self.tenants.values()
            if t.slowdown is not None
        ]
        values = slowdowns if len(slowdowns) == len(self.tenants) and (
            slowdowns
        ) else [t.mean_ms for t in self.tenants.values()]
        if len(values) < 2:
            return 1.0
        low = min(values)
        if low <= 0:
            return 1.0
        return max(values) / low

    def summary(self) -> dict[str, Any]:
        """Schema-tagged JSON dict: per-tenant tails + fairness gauge."""
        return {
            "schema": TENANT_METRICS_SCHEMA,
            "tenants": {
                name: tenant.as_dict()
                for name, tenant in self.tenants.items()
            },
            "fairness": self.fairness(),
        }


def validate_tenant_metrics(obj: Any) -> list[str]:
    """Structural checks for a tenant-metrics JSON object.

    Same contract as the other ``validate_*`` functions in
    :mod:`repro.obs.validate`: returns human-readable problems, empty
    means valid.
    """
    from repro.obs.validate import _is_number, _validate_histogram

    problems: list[str] = []
    if not isinstance(obj, dict):
        return ["top level must be a JSON object"]
    if obj.get("schema") != TENANT_METRICS_SCHEMA:
        problems.append(
            f"schema must be {TENANT_METRICS_SCHEMA!r}, "
            f"got {obj.get('schema')!r}"
        )
    tenants = obj.get("tenants")
    if not isinstance(tenants, dict) or not tenants:
        problems.append("tenants must be a non-empty object")
        tenants = {}
    for name, entry in tenants.items():
        where = f"tenant {name!r}"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        faults = entry.get("faults")
        if not isinstance(faults, int) or faults < 0:
            problems.append(
                f"{where}: faults must be a non-negative integer"
            )
        for key in ("p50_ms", "p99_ms", "mean_ms", "max_ms", "total_ms"):
            if not _is_number(entry.get(key)):
                problems.append(f"{where}: {key} must be a number")
        slowdown = entry.get("slowdown")
        if slowdown is not None and not _is_number(slowdown):
            problems.append(f"{where}: slowdown must be a number or null")
        if (
            _is_number(entry.get("p50_ms"))
            and _is_number(entry.get("p99_ms"))
            and entry["p99_ms"] < entry["p50_ms"]
        ):
            problems.append(f"{where}: p99_ms < p50_ms")
        problems.extend(
            _validate_histogram(f"{name}.histogram",
                                entry.get("histogram"))
        )
    fairness = obj.get("fairness")
    if not _is_number(fairness):
        problems.append("fairness must be a number")
    elif fairness < 1.0:
        problems.append("fairness (max/min slowdown) must be >= 1.0")
    return problems

"""Experiment-specific observability exporters.

Most experiments run the event-driven simulator, whose trace events and
metrics are harvested from each ``SimulationResult`` (see
``repro.experiments.common.harvest_observed_runs``).  A few experiments
produce other timing artifacts — Figure 2's :class:`FetchTimeline` span
model chief among them — and this module converts those into the same
normalized event stream, so ``--trace-out`` works uniformly across
experiment ids.  Figure MT runs its tenants through
:func:`~repro.sim.multitenant.run_multi_tenant`, outside the run cache,
so its exporter publishes the per-tenant figures as gauges instead.

:func:`experiment_observability` is the single entry point: given an
experiment id and its result object, it returns ``(groups, gauges)``
where ``groups`` is a list of ``(label, events)`` pairs (one Perfetto
process per group, see :func:`repro.obs.tracing.combine_groups`) and
``gauges`` maps metric names to values.
"""

from __future__ import annotations

from typing import Any, Callable

#: exp_id -> exporter(result) -> (groups, gauges)
Exporter = Callable[
    [Any], tuple[list[tuple[str, list[dict[str, Any]]]], dict[str, float]]
]

_EXPORTERS: dict[str, Exporter] = {}


def register_exporter(exp_id: str) -> Callable[[Exporter], Exporter]:
    def wrap(fn: Exporter) -> Exporter:
        _EXPORTERS[exp_id] = fn
        return fn
    return wrap


def experiment_observability(
    exp_id: str, result: Any
) -> tuple[list[tuple[str, list[dict[str, Any]]]], dict[str, float]]:
    """Trace-event groups and gauges for one experiment result.

    Returns ``([], {})`` for experiments without a dedicated exporter
    (their runs are harvested from the simulator run cache instead).
    """
    exporter = _EXPORTERS.get(exp_id)
    if exporter is None:
        return [], {}
    return exporter(result)


def timeline_events(timeline: Any, node: int = 0) -> list[dict[str, Any]]:
    """Normalized span events for one :class:`FetchTimeline`.

    Each Figure 2 resource row (Req-CPU, Req-DMA, Wire, Srv-DMA,
    Srv-CPU) becomes its own track via the ``track`` field.
    """
    events: list[dict[str, Any]] = []
    for span in timeline.spans:
        events.append({
            "type": "span",
            "t_ms": span.start_ms,
            "dur_ms": span.duration_ms,
            "node": node,
            "track": span.resource.value,
            "label": span.label,
        })
    events.append({
        "type": "resume",
        "t_ms": timeline.resume_ms,
        "dur_ms": 0.0,
        "node": node,
        "track": "Req-CPU",
        "label": "resume",
    })
    return events


@register_exporter("fig02")
def _fig02_exporter(
    result: Any,
) -> tuple[list[tuple[str, list[dict[str, Any]]]], dict[str, float]]:
    groups: list[tuple[str, list[dict[str, Any]]]] = []
    gauges: dict[str, float] = {}
    for label, timeline in result.timelines.items():
        groups.append((f"fig02: {label}", timeline_events(timeline)))
        gauges[f"fig02_resume_ms[{label}]"] = timeline.resume_ms
        gauges[f"fig02_completion_ms[{label}]"] = timeline.completion_ms
    return groups, gauges


@register_exporter("figMT")
def _figmt_exporter(
    result: Any,
) -> tuple[list[tuple[str, list[dict[str, Any]]]], dict[str, float]]:
    """Each tenant's tail latency and slowdown, each cell's fairness."""
    gauges: dict[str, float] = {}
    for row in result.rows:
        cell = f"{row.tenants}/{row.scheme}/{row.subpage_bytes}"
        tenant = f"{cell}/{row.tenant}"
        gauges[f"figMT_p50_ms[{tenant}]"] = row.p50_ms
        gauges[f"figMT_p99_ms[{tenant}]"] = row.p99_ms
        gauges[f"figMT_slowdown[{tenant}]"] = row.slowdown
        gauges[f"figMT_fairness[{cell}]"] = row.fairness
    return [], gauges

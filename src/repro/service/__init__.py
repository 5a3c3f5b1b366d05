"""The always-on sweep service: HTTP job API over the sweep engine.

``python -m repro.service`` turns the CLI batch tool into a
long-running system: an asyncio HTTP/JSON API that accepts sweep specs,
schedules their cells onto a persistent
:class:`~repro.sim.parallel.WorkerPool`, streams per-cell
:class:`~repro.sim.parallel.CellEvent` progress over SSE, and serves
every result from (and records it into) the sqlite-backed
:class:`~repro.store.SqliteResultStore` — so a resubmitted spec re-runs
only the cells whose content key changed.

See ``docs/SERVICE.md`` for the API, the store schema, and the
incremental-recompute semantics.
"""

from repro.service.jobs import Job, JobManager, SweepSpec
from repro.service.server import ServiceServer

__all__ = ["Job", "JobManager", "ServiceServer", "SweepSpec"]

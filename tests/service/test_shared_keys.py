"""One content key per Figure 3 cell, whoever computes it.

A store filled by the sweep service, or a flat result cache filled by
an in-process sweep, serves every cell of ``python -m repro.experiments
fig03``'s grid, because all three build their cells through the same
spec builder and key them by the same content key.
"""

import asyncio

import pytest

from repro.experiments import common, fig03_memsizes
from repro.service import JobManager, SweepSpec
from repro.sim.parallel import ExecutionOptions, ResultCache, cell_cache_key
from repro.sim.sweep import MEMORY_FRACTIONS, SUBPAGE_SIZES, run_subpage_sweep
from repro.store import SqliteResultStore

#: The service's default spec: the Figure 3 grid for modula3.
DEFAULT_SPEC = {"app": "modula3"}


@pytest.fixture(autouse=True)
def fresh_run_cache():
    common.clear_run_cache()
    yield
    common.clear_run_cache()


def run_service_job(manager, payload):
    """Submit ``payload`` to ``manager`` and wait for its terminal event."""

    async def submit_and_wait():
        job = manager.submit(payload)
        _, queue = manager.subscribe(job)
        while (await queue.get())["type"] not in ("done", "failed"):
            pass
        return job

    return asyncio.run(submit_and_wait())


def warm_fig03_statuses(cache):
    """The progress status of each fig03 cell warmed against ``cache``."""
    events = []
    options = ExecutionOptions(cache=cache, progress=events.append)
    with common.execution_scope(options):
        common.warm_runs(fig03_memsizes.grid_specs())
    return [event.status for event in events]


def test_fig03_grid_and_service_default_share_keys():
    spec = SweepSpec.from_dict(DEFAULT_SPEC)
    served = [
        cell_cache_key(job.trace, job.config)
        for job in spec.build_jobs(spec.build_trace())
    ]
    experiment = [
        common._cell(cell).key for cell in fig03_memsizes.grid_specs()
    ]
    assert len(experiment) == 21
    assert served == experiment


def test_service_store_serves_the_fig03_experiment(tmp_path):
    store = SqliteResultStore(tmp_path / "results.sqlite")
    manager = JobManager(store=store, workers=1)
    try:
        job = run_service_job(manager, DEFAULT_SPEC)
        assert job.state == "done", job.error
        assert job.cells_computed() == 21
        rows = store.stats()["rows"]
        assert warm_fig03_statuses(store) == ["cached"] * 21
        assert store.stats()["rows"] == rows
    finally:
        manager.close()


def test_in_process_sweep_cache_serves_the_fig03_experiment(tmp_path):
    cache = ResultCache(tmp_path)
    run_subpage_sweep(
        common.get_trace("modula3"),
        {"scheme": "eager"},
        list(SUBPAGE_SIZES),
        MEMORY_FRACTIONS,
        cache=cache,
    )
    assert len(list(tmp_path.rglob("*.pkl"))) == 21
    assert warm_fig03_statuses(cache) == ["cached"] * 21

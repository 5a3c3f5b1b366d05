"""Durable result persistence: the sqlite-backed sweep store.

:class:`SqliteResultStore` is a drop-in replacement for the flat-file
:class:`repro.sim.parallel.ResultCache`: same content keys (trace
fingerprint x config fingerprint x ``CACHE_VERSION``), same get/put
protocol, same never-fail contract (:mod:`repro.atomicfile`) — but
backed by a single sqlite database in WAL mode, so many concurrent
readers (service requests, parallel sweeps, other processes) share one
durable repository with per-row provenance.
``REPRO_STORE=/path/results.sqlite`` adopts it everywhere the flat-file
cache is used today;
:mod:`repro.service` builds its incremental-recompute job service on
top of it.
"""

from repro.store.sqlite import StoredProvenance, SqliteResultStore

__all__ = ["SqliteResultStore", "StoredProvenance"]

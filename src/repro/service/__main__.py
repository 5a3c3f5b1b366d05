"""Run the sweep service.

Usage::

    python -m repro.service --port 8177 --workers 4 \\
        --store ~/.cache/repro/results.sqlite

    # then, from any HTTP client:
    curl -X POST localhost:8177/sweeps -d \\
        '{"app": "modula3", "subpage_sizes": [4096, 1024]}'
    curl localhost:8177/sweeps/job-0001/events   # SSE progress
    curl localhost:8177/sweeps/job-0001/csv      # the grid

Environment knobs (flags win): ``REPRO_SERVICE_PORT``,
``REPRO_WORKERS``, ``REPRO_STORE``.  The service announces its bound
address on stdout (``listening on http://host:port``) once it accepts
connections — with ``--port 0`` the kernel picks a free port and the
announcement is how callers learn it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import sys

from repro.envknobs import env_int, env_str
from repro.service.jobs import JobManager
from repro.service.server import ServiceServer
from repro.sim.parallel import ENV_STORE, default_workers

#: Environment variable naming the default service port.
ENV_SERVICE_PORT = "REPRO_SERVICE_PORT"

#: Default port when neither the flag nor the environment names one.
DEFAULT_PORT = 8177


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=(
            "Long-running sweep service: HTTP/JSON job API with SSE "
            "progress over the parallel sweep engine and the sqlite "
            "result store."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=None,
        help=(
            "bind port; 0 picks a free one "
            f"(default: $REPRO_SERVICE_PORT, else {DEFAULT_PORT})"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "persistent worker-pool size for sweep cells "
            "(default: $REPRO_WORKERS, else serial)"
        ),
    )
    parser.add_argument(
        "--store",
        metavar="FILE",
        default=None,
        help=(
            "sqlite result-store path; results persist across "
            "restarts and power incremental recompute "
            "(default: $REPRO_STORE, else in-memory only)"
        ),
    )
    return parser


async def serve(args: argparse.Namespace) -> int:
    store = None
    store_path = args.store or env_str(ENV_STORE)
    if store_path:
        from repro.store import SqliteResultStore

        store = SqliteResultStore(store_path)
    workers = (
        max(1, args.workers) if args.workers is not None
        else default_workers()
    )
    port = (
        args.port if args.port is not None
        else env_int(ENV_SERVICE_PORT, DEFAULT_PORT, minimum=0)
    )
    manager = JobManager(store=store, workers=workers)
    server = ServiceServer(manager, host=args.host, port=port)
    await server.start()
    print(
        f"repro service listening on http://{args.host}:{server.port} "
        f"(workers={workers}, store={store_path or 'none'})",
        flush=True,
    )
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()
        manager.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with contextlib.suppress(KeyboardInterrupt):
        return asyncio.run(serve(args))
    print("interrupted, shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

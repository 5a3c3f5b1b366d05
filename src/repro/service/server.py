"""The sweep service's HTTP/JSON front end (stdlib asyncio only).

A deliberately small HTTP/1.1 server — request line, headers, optional
``Content-Length`` body, one response, close — because the repo vendors
no web framework and the API is five routes:

========  ==============================  =======================================
method    path                            meaning
========  ==============================  =======================================
GET       ``/healthz``                    liveness + substrate summary
GET       ``/store``                      result-store stats (rows, hits, misses)
POST      ``/sweeps``                     submit a sweep spec -> ``201`` + job id
GET       ``/sweeps``                     list submitted jobs
GET       ``/sweeps/{id}``                job summary (state, counts, timings)
GET       ``/sweeps/{id}/events``         **SSE** stream of progress events
GET       ``/sweeps/{id}/cells``          per-cell headline numbers (done only)
GET       ``/sweeps/{id}/csv``            the sweep grid as CSV (done only)
========  ==============================  =======================================

The events route speaks ``text/event-stream``: each event is one
``data: {json}`` frame; history replays first (late subscribers see the
whole run), then live events stream until the job's terminal
``done``/``failed`` frame.  Errors map to JSON bodies with ``error``
set — 400 for malformed specs, 404 for unknown jobs/routes, 409 for
results requested before the job finished.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import ConfigError
from repro.service.jobs import Job, JobManager

#: Largest request body accepted (a sweep spec is well under this).
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    500: "Internal Server Error",
}


def _response_head(
    status: int, content_type: str, extra: str = ""
) -> bytes:
    return (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
        f"Content-Type: {content_type}\r\n"
        "Cache-Control: no-store\r\n"
        "Connection: close\r\n"
        f"{extra}"
    ).encode()


def _body_response(
    status: int, content_type: str, body: bytes
) -> bytes:
    return (
        _response_head(
            status, content_type, f"Content-Length: {len(body)}\r\n"
        )
        + b"\r\n"
        + body
    )


def json_response(status: int, payload: Any) -> bytes:
    body = (json.dumps(payload, indent=2) + "\n").encode()
    return _body_response(status, "application/json", body)


def error_response(status: int, message: str) -> bytes:
    return json_response(status, {"error": message})


class ServiceServer:
    """Bind, route, and serve the job manager over HTTP."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    # -- request plumbing ---------------------------------------------------

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, ValueError,
                    asyncio.LimitOverrunError):
                writer.write(error_response(400, "malformed request"))
                return
            try:
                await self._route(method, path, body, writer)
            except ConfigError as exc:
                writer.write(error_response(400, str(exc)))
            except Exception as exc:  # never kill the accept loop
                writer.write(
                    error_response(
                        500, f"{type(exc).__name__}: {exc}"
                    )
                )
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1")
        parts = request_line.split()
        if len(parts) < 3:
            raise ValueError("bad request line")
        method, target = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length > MAX_BODY_BYTES:
            raise ValueError("body too large")
        body = (
            await reader.readexactly(content_length)
            if content_length else b""
        )
        path = target.split("?", 1)[0]
        return method, path, body

    # -- routing ------------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        segments = [s for s in path.split("/") if s]
        if path == "/healthz" and method == "GET":
            writer.write(json_response(200, self._health()))
            return
        if path == "/store" and method == "GET":
            writer.write(json_response(200, self._store_stats()))
            return
        if segments[:1] == ["sweeps"]:
            if len(segments) == 1:
                if method == "POST":
                    self._submit(body, writer)
                elif method == "GET":
                    writer.write(
                        json_response(
                            200, {"jobs": self.manager.list_jobs()}
                        )
                    )
                else:
                    writer.write(
                        error_response(405, f"{method} not allowed")
                    )
                return
            try:
                job = self.manager.get(segments[1])
            except ConfigError as exc:
                writer.write(error_response(404, str(exc)))
                return
            if method != "GET":
                writer.write(
                    error_response(405, f"{method} not allowed")
                )
                return
            if len(segments) == 2:
                writer.write(json_response(200, job.summary()))
            elif segments[2] == "events":
                await self._stream_events(job, writer)
            elif segments[2] == "cells":
                self._cells(job, writer)
            elif segments[2] == "csv":
                self._csv(job, writer)
            else:
                writer.write(
                    error_response(404, f"no route {path!r}")
                )
            return
        writer.write(error_response(404, f"no route {path!r}"))

    # -- handlers -----------------------------------------------------------

    def _health(self) -> dict[str, Any]:
        store = self.manager.store
        return {
            "status": "ok",
            "workers": self.manager.workers,
            "jobs": len(self.manager.jobs),
            "store": str(store.root) if store is not None else None,
        }

    def _store_stats(self) -> dict[str, Any]:
        store = self.manager.store
        if store is None:
            return {"store": None}
        if hasattr(store, "stats"):
            return store.stats()
        return {
            "path": str(store.root),
            "hits": store.hits,
            "misses": store.misses,
            "puts_failed": store.puts_failed,
        }

    def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            writer.write(error_response(400, f"bad JSON: {exc}"))
            return
        job = self.manager.submit(payload)
        writer.write(json_response(201, job.summary()))

    def _cells(self, job: Job, writer: asyncio.StreamWriter) -> None:
        if not job.finished:
            writer.write(
                error_response(
                    409, f"job {job.id} is {job.state}, not finished"
                )
            )
            return
        writer.write(
            json_response(
                200, {"id": job.id, "cells": job.cell_totals()}
            )
        )

    def _csv(self, job: Job, writer: asyncio.StreamWriter) -> None:
        if not job.finished:
            writer.write(
                error_response(
                    409, f"job {job.id} is {job.state}, not finished"
                )
            )
            return
        if job.sweep is None:
            writer.write(
                error_response(
                    409,
                    f"job {job.id} has no grid to render "
                    f"(state {job.state}, kind {job.spec.kind})",
                )
            )
            return
        body = job.sweep.to_csv().encode()
        writer.write(_body_response(200, "text/csv", body))

    async def _stream_events(
        self, job: Job, writer: asyncio.StreamWriter
    ) -> None:
        """Server-sent events: full history, then live to completion."""
        writer.write(
            _response_head(200, "text/event-stream") + b"\r\n"
        )
        history, queue = self.manager.subscribe(job)
        try:
            terminal = False
            for event in history:
                writer.write(_sse_frame(event))
                terminal = terminal or event["type"] in (
                    "done", "failed"
                )
            await writer.drain()
            while not terminal:
                event = await queue.get()
                writer.write(_sse_frame(event))
                await writer.drain()
                terminal = event["type"] in ("done", "failed")
        finally:
            self.manager.unsubscribe(job, queue)


def _sse_frame(event: dict[str, Any]) -> bytes:
    return f"data: {json.dumps(event)}\n\n".encode()

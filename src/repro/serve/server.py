"""The asyncio front door: a stdlib HTTP/1.1 server over ServeState.

``asyncio.start_server`` gives one coroutine per connection;
keep-alive is honoured so a load generator can push many requests down
each socket.  Request handling itself is synchronous against the warm
:class:`~repro.serve.state.ServeState` -- every endpoint is a dict
lookup or a cube slice, so there is nothing worth awaiting -- which
keeps responses strictly ordered per connection.

Routes (all ``GET``):

- ``/healthz`` -- liveness + model identity
- ``/v1/risk?node=N`` -- one node's warm score
- ``/v1/risk/top?k=K`` -- the K highest-risk nodes
- ``/v1/alerts?since=SEQ&limit=N`` -- incremental alert feed
- ``/v1/query?select=...`` -- rollup cube passthrough
- ``/v1/stats`` -- serving counters + provenance

Errors are always JSON: 400 for a bad request, 404 for an unknown
route/entity, 405 for a non-GET method, 500 (with the exception class,
not a traceback) if a handler blows up -- the chaos tests assert that a
client sees a clean status line, never a hung or half-written socket.

``port=0`` binds an ephemeral port; pass ``ready_file`` to have the
bound address written as JSON once the server is accepting, which is
how the bench harness and the tests discover the port race-free.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

from repro._util import atomic_write
from repro.predict.errors import PredictError
from repro.serve.state import (
    SERVE_SCHEMA_VERSION,
    NotFound,
    ServeError,
    ServeState,
)

_MAX_REQUEST_BYTES = 16384


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode()


def _response(status: int, reason: str, body: bytes, keep_alive: bool) -> bytes:
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode() + body


def _error_body(status: int, message: str) -> bytes:
    # Errors ride the same envelope as success bodies, so one schema
    # (schemas/serve.schema.json) validates anything the server says.
    return _json_bytes(
        {
            "schema_version": SERVE_SCHEMA_VERSION,
            "error": {"status": status, "message": message},
        }
    )


class Server:
    """Lifecycle wrapper: bind, serve, drain, close."""

    def __init__(
        self,
        state: ServeState,
        host: str = "127.0.0.1",
        port: int = 0,
        ready_file=None,
    ):
        self.state = state
        self.host = host
        self.port = port
        self.ready_file = None if ready_file is None else Path(ready_file)
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    def _single_param(self, params: dict, name: str, default=None) -> str:
        value = params.get(name, default)
        if value is None:
            raise ServeError(f"missing required parameter {name!r}")
        return value

    def handle(self, method: str, target: str) -> tuple[int, str, bytes]:
        """Route one request; returns (status, reason, body bytes)."""
        self.state.requests += 1
        parts = urlsplit(target)
        path = parts.path
        params = dict(parse_qsl(parts.query))
        try:
            if method != "GET":
                return 405, "Method Not Allowed", _error_body(
                    405, f"{method} not supported; all endpoints are GET"
                )
            if path == "/healthz":
                doc = self.state.health()
            elif path == "/v1/risk":
                node = self._single_param(params, "node")
                doc = self.state.risk(int(node))
            elif path == "/v1/risk/top":
                doc = self.state.top(int(params.get("k", "10")))
            elif path == "/v1/alerts":
                doc = self.state.alerts_since(
                    since=int(params.get("since", "-1")),
                    limit=int(params.get("limit", "100")),
                )
            elif path == "/v1/query":
                doc = self.state.query(params)
            elif path == "/v1/stats":
                doc = self.state.stats()
            else:
                return 404, "Not Found", _error_body(
                    404,
                    f"unknown path {path!r}; hint: /healthz, /v1/risk, "
                    f"/v1/risk/top, /v1/alerts, /v1/query, /v1/stats",
                )
            return 200, "OK", _json_bytes(doc)
        except NotFound as exc:
            return 404, "Not Found", _error_body(404, str(exc))
        except (ServeError, PredictError, ValueError) as exc:
            return 400, "Bad Request", _error_body(400, str(exc))
        except Exception as exc:  # noqa: BLE001 -- clean 500, never a hang
            return 500, "Internal Server Error", _error_body(
                500, f"{type(exc).__name__}: {exc}"
            )

    # ------------------------------------------------------------------
    async def _connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break  # client closed between requests
                except asyncio.LimitOverrunError:
                    writer.write(
                        _response(
                            431, "Request Header Fields Too Large",
                            _error_body(431, "request head too large"), False,
                        )
                    )
                    await writer.drain()
                    break
                if len(head) > _MAX_REQUEST_BYTES:
                    writer.write(
                        _response(
                            431, "Request Header Fields Too Large",
                            _error_body(431, "request head too large"), False,
                        )
                    )
                    await writer.drain()
                    break
                lines = head.decode("latin-1").split("\r\n")
                request_line = lines[0].split(" ")
                if len(request_line) != 3:
                    writer.write(
                        _response(
                            400, "Bad Request",
                            _error_body(400, "malformed request line"), False,
                        )
                    )
                    await writer.drain()
                    break
                method, target, _version = request_line
                headers = {}
                for line in lines[1:]:
                    if ":" in line:
                        k, v = line.split(":", 1)
                        headers[k.strip().lower()] = v.strip()
                # GET bodies are ignored but must be drained to keep the
                # framing honest on keep-alive connections.
                length = int(headers.get("content-length", "0") or 0)
                if length:
                    await reader.readexactly(length)
                keep = headers.get("connection", "keep-alive").lower() != "close"
                status, reason, body = self.handle(method, target)
                writer.write(_response(status, reason, body, keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._connection, self.host, self.port,
            limit=_MAX_REQUEST_BYTES,
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.port = port
        if self.ready_file is not None:
            # Blocking here stalls no request: no client can know the
            # port before this file lands.
            ready = {"host": host, "port": port, "pid": os.getpid(),
                     "model_id": self.state.model.model_id}
            atomic_write(self.ready_file, (json.dumps(ready) + "\n").encode())
        return host, port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


def run(
    state: ServeState,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_file=None,
) -> None:
    """Blocking entry point: serve until SIGINT/SIGTERM."""
    server = Server(state, host=host, port=port, ready_file=ready_file)

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover -- non-POSIX
                pass
        bound_host, bound_port = await server.start()
        print(
            f"serving on http://{bound_host}:{bound_port} "
            f"(model {state.model.model_id}, "
            f"{state.nodes.size} nodes scored)",
            flush=True,
        )
        assert server._server is not None
        async with server._server:
            await stop.wait()
        await server.close()

    asyncio.run(_main())


__all__ = ["Server", "run"]

"""A minimal HTTP/1.1 JSON API over asyncio streams (stdlib only).

The benchmark-as-a-service front door.  Four routes, all speaking the
versioned v1 contract (:mod:`repro.serve.translate`):

========  ==============================  =======================================
method    path                            answers
========  ==============================  =======================================
POST      ``/sessions``                   202 + session doc (or 400/403/429/503)
GET       ``/sessions/{id}``              session status; ``?wait=s`` long-polls
GET       ``/sessions/{id}/report``       NAVG+ report once the session is done
GET       ``/healthz``                    server stats (queue depth, breakers)
GET       ``/tenants/{name}/report``      per-tenant aggregate report
GET       ``/metrics``                    Prometheus text exposition
========  ==============================  =======================================

Error mapping is part of the contract:

* :class:`TranslationError` → **400** with every contract violation listed,
* :class:`UnknownTenant` → **403** (closed enrollment),
* :class:`AdmissionRejected` → **429** with ``Retry-After`` (reasons
  ``queue-full`` / ``tenant-quota`` / ``rate-limited`` / ``draining``),
* :class:`CircuitOpenError` → **503** with ``Retry-After`` (the tenant's
  breaker is open after repeated session failures),
* :class:`SessionNotFound` → **404** (also for *another tenant's*
  session id: existence is not leaked across tenants).

The parser is deliberately small — request line, headers,
``Content-Length`` body — because the server only ever talks to
benchmark tooling, not browsers.  One connection serves one request
(``Connection: close``): virtual clients in a storm are cheap
short-lived sockets, exactly like the open-loop arrival model assumes.
"""

from __future__ import annotations

import asyncio
import json
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    AdmissionRejected,
    CircuitOpenError,
    ServeError,
    SessionNotFound,
    TranslationError,
    UnknownTenant,
)
from repro.observability.export import export_prometheus
from repro.serve.manager import SessionManager
from repro.serve.translate import report_to_json, session_to_json
from repro.toolsuite.monitor import Monitor

#: Refuse request bodies beyond this (a v1 session doc is ~300 bytes).
MAX_BODY = 64 * 1024
#: Refuse a request head with more header lines than this (431).
MAX_HEADERS = 100
#: Upper bound on one long-poll (``?wait=`` is clamped to this).
MAX_WAIT_S = 60.0

REASONS = {
    404: "Not Found",
    405: "Method Not Allowed",
    400: "Bad Request",
    403: "Forbidden",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    200: "OK",
    202: "Accepted",
}


class _HttpError(Exception):
    """Internal: unwind request handling straight into a JSON error."""

    def __init__(self, status: int, message: str, **extra):
        super().__init__(message)
        self.status = status
        self.doc = {"error": message, **extra}
        self.headers: dict[str, str] = {}


def _json_response(
    status: int, doc, headers: dict[str, str] | None = None
) -> bytes:
    body = (json.dumps(doc, sort_keys=True) + "\n").encode()
    lines = [
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _text_response(status: int, text: str) -> bytes:
    body = text.encode()
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: text/plain; version=0.0.4\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body


async def _readline(reader: asyncio.StreamReader) -> bytes:
    """One line; a line over the reader's limit is a 431, not a 500."""
    try:
        return await reader.readline()
    except ValueError:  # the stream's LimitOverrunError, re-raised
        raise _HttpError(431, "request line or header line too long")


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request → (method, target, headers, body)."""
    request_line = await _readline(reader)
    if not request_line:
        return None
    try:
        method, target, _version = request_line.decode("latin-1").split()
    except ValueError:
        raise _HttpError(400, "malformed request line")
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = await _readline(reader)
        if line in (b"\r\n", b"\n", b""):
            break
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon:
            raise _HttpError(400, f"header line without ':': {line[:64]!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(431, f"more than {MAX_HEADERS} header lines")
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _HttpError(
            400, f"Content-Length is not a non-negative integer: {raw_length!r}"
        )
    length = int(raw_length)
    if length > MAX_BODY:
        raise _HttpError(413, f"body exceeds {MAX_BODY} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, target, headers, body


class HttpServer:
    """The asyncio front-end; owns nothing but routing and encoding."""

    def __init__(self, manager: SessionManager):
        self.manager = manager
        self._server: asyncio.AbstractServer | None = None
        self.host = ""
        self.port = 0

    # -- lifecycle ----------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and serve; ``port=0`` picks a free port (see :attr:`port`)."""
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting, then drain (or abort) the session pipeline."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.shutdown(drain=drain)

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServeError("server not started")
        await self._server.serve_forever()

    # -- connection handling ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
                if request is None:
                    return
                response = await self._route(*request)
            except _HttpError as exc:
                response = _json_response(exc.status, exc.doc, exc.headers)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except Exception as exc:  # noqa: BLE001 - boundary backstop
                response = _json_response(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            writer.write(response)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _route(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ) -> bytes:
        url = urlsplit(target)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        tenant = headers.get("x-tenant", "")

        if parts == ["healthz"] and method == "GET":
            return _json_response(200, self.manager.stats())
        if parts == ["metrics"] and method == "GET":
            return _text_response(
                200, export_prometheus(self.manager.metrics)
            )
        if parts == ["sessions"] and method == "POST":
            return self._post_session(headers, body)
        if len(parts) == 2 and parts[0] == "sessions" and method == "GET":
            return await self._get_session(parts[1], tenant, query)
        if (
            len(parts) == 3
            and parts[0] == "sessions"
            and parts[2] == "report"
            and method == "GET"
        ):
            return await self._get_report(parts[1], tenant, query)
        if (
            len(parts) == 3
            and parts[0] == "tenants"
            and parts[2] == "report"
            and method == "GET"
        ):
            return _json_response(
                200, self.manager.tenant_report(parts[1])
            )
        if parts and parts[0] in ("sessions", "healthz", "metrics", "tenants"):
            raise _HttpError(405, f"{method} not supported on /{url.path.strip('/')}")
        raise _HttpError(404, f"no route for {method} /{url.path.strip('/')}")

    # -- routes -------------------------------------------------------------------

    def _post_session(self, headers: dict[str, str], body: bytes) -> bytes:
        try:
            doc = json.loads(body.decode() or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}")
        try:
            session = self.manager.submit(
                doc, default_tenant=headers.get("x-tenant") or None
            )
        except TranslationError as exc:
            raise _HttpError(400, str(exc), problems=exc.problems)
        except UnknownTenant as exc:
            raise _HttpError(403, str(exc))
        except AdmissionRejected as exc:
            error = _HttpError(429, str(exc), reason=exc.reason)
            error.headers["Retry-After"] = f"{max(1, round(exc.retry_after))}"
            raise error
        except CircuitOpenError as exc:
            error = _HttpError(503, str(exc), reason="circuit-open")
            error.headers["Retry-After"] = (
                f"{max(1, round(self.manager.config.breaker.reset_timeout))}"
            )
            raise error
        return _json_response(202, session_to_json(session))

    def _lookup(self, session_id: str, tenant: str):
        if not tenant:
            raise _HttpError(400, "X-Tenant header required")
        try:
            return self.manager.store.get(session_id, tenant)
        except SessionNotFound as exc:
            raise _HttpError(404, str(exc))

    @staticmethod
    def _wait_seconds(query: dict) -> float | None:
        raw = query.get("wait", [None])[0]
        if raw is None:
            return None
        try:
            return min(max(float(raw), 0.0), MAX_WAIT_S)
        except ValueError:
            raise _HttpError(400, f"wait: not a number: {raw!r}")

    async def _get_session(
        self, session_id: str, tenant: str, query: dict
    ) -> bytes:
        session = self._lookup(session_id, tenant)
        wait = self._wait_seconds(query)
        if wait:
            await self.manager.wait(session, timeout=wait)
        return _json_response(200, session_to_json(session))

    async def _get_report(
        self, session_id: str, tenant: str, query: dict
    ) -> bytes:
        session = self._lookup(session_id, tenant)
        wait = self._wait_seconds(query)
        if wait:
            await self.manager.wait(session, timeout=wait)
        if not session.terminal:
            error = _HttpError(
                409, f"session {session_id} is {session.state}; "
                     f"retry with ?wait= or poll the session",
            )
            error.headers["Retry-After"] = "1"
            raise error
        monitor = Monitor.merged([session.outcome]) if session.outcome else Monitor()
        return _json_response(200, report_to_json(session, monitor))


async def serve(
    manager: SessionManager, host: str = "127.0.0.1", port: int = 0
) -> HttpServer:
    """Start one :class:`HttpServer` over ``manager``; caller stops it."""
    server = HttpServer(manager)
    await server.start(host=host, port=port)
    return server

"""The HTTP front door: stdlib ``ThreadingHTTPServer`` over tenants.

Request handling is split in two so everything interesting is testable
without sockets: :class:`Gateway` maps ``(method, path, body)`` to
``(status, payload)`` using only the tenant registry, and the thin
``BaseHTTPRequestHandler`` subclass does I/O.  One handler thread per
in-flight request (``ThreadingHTTPServer``); per-tenant session pools
bound how many of those threads actually execute concurrently.

Routes::

    POST /v1/query    {"tenant", "query", "budget"?: {max_ops, deadline_ms, max_rows}}
    POST /v1/prepare  {"tenant", "query"}
    POST /v1/update   {"tenant", "updates": ["+R 1,2", ...], "sync"?: bool}
    POST /v1/script   {"tenant", "script": "..."}
    POST /v1/admin/shutdown
    GET  /healthz     liveness + tenant ids
    GET  /stats       the registry stats tree (JSON)
    GET  /metrics     Prometheus exposition 0.0.4 (shared registry +
                      the stats tree as ``repro_stat`` gauges)

Failures map to the PR 9 resilience taxonomy as structured HTTP codes,
each with a typed JSON payload (``{"error": <class>, ...fields}``):
429 ``BudgetExceeded`` / ``IngestBackpressure``, 504 ``QueryTimeout``,
503 ``ShardFailure`` (breaker state attached) / ``PoolSaturated``,
404 ``UnknownTenantError``, 400 parse/validation/script errors.  A
``Content-Length`` that is not a plain decimal is a 400
``BadContentLength`` and one over :data:`MAX_BODY_BYTES` a 413
``PayloadTooLarge`` — both answered before any body byte is read.

Connections are persistent (HTTP/1.1 keep-alive): one handler thread
serves every request a connection carries.  Each connection's socket
has a :data:`HANDLER_TIMEOUT_S` timeout, so an idle keep-alive
connection or a stalled request body frees its thread instead of
holding it forever, and :meth:`QueryServer.server_close` shuts down
every connection still open so no handler thread outlives the server.
``http_connections_total`` / ``http_connections_open`` beside
``http_requests_total`` show how well clients reuse connections.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from repro.core.resilience import (
    BudgetExceeded,
    ExecutionError,
    QueryTimeout,
    ShardFailure,
)
from repro.dynamic.log import Update, parse_update
from repro.lang.ast import QueryError
from repro.net.ingest import IngestBackpressure
from repro.net.pool import PoolSaturated
from repro.net.tenants import Tenant, TenantRegistry, UnknownTenantError
from repro.obs import stats_to_prometheus
from repro.serve.script import ScriptError, ScriptRunner
from repro.serve.session import ExecResult

JSON_CONTENT = "application/json"
PROM_CONTENT = "text/plain; version=0.0.4; charset=utf-8"
#: Largest request body the front door reads; a bigger declared
#: ``Content-Length`` is refused unread.
MAX_BODY_BYTES = 32 * 1024 * 1024
#: Seconds a connection may sit idle between requests, or stall
#: mid-request, before the server closes it and frees its thread.
HANDLER_TIMEOUT_S = 30.0

Response = Tuple[int, bytes, str]


def error_payload(exc: BaseException) -> Tuple[int, Dict[str, object]]:
    """Map an exception to ``(http_status, typed JSON payload)``."""
    name = type(exc).__name__
    if isinstance(exc, BudgetExceeded):
        return 429, {
            "error": name,
            "message": str(exc),
            "resource": exc.resource,
            "limit": exc.limit,
            "used": exc.used,
        }
    if isinstance(exc, IngestBackpressure):
        return 429, {
            "error": name,
            "message": str(exc),
            "tenant": exc.tenant,
            "depth": exc.depth,
            "limit": exc.limit,
        }
    if isinstance(exc, QueryTimeout):
        return 504, {
            "error": name,
            "message": str(exc),
            "deadline_ms": int(exc.deadline_s * 1000),
            "where": exc.where,
        }
    if isinstance(exc, ShardFailure):
        return 503, {
            "error": name,
            "message": str(exc),
            "shard": exc.index,
            "attempts": exc.attempts,
            "faults": exc.faults,
        }
    if isinstance(exc, PoolSaturated):
        return 503, {
            "error": name,
            "message": str(exc),
            "tenant": exc.tenant,
        }
    if isinstance(exc, UnknownTenantError):
        return 404, {"error": name, "tenant": exc.tenant_id,
                     "message": str(exc)}
    if isinstance(exc, ScriptError):
        return 400, {"error": name, "line": exc.lineno,
                     "message": str(exc)}
    if isinstance(exc, (QueryError, KeyError, ValueError)):
        return 400, {"error": name, "message": str(exc)}
    if isinstance(exc, ExecutionError):
        return 500, {"error": name, "message": str(exc)}
    return 500, {"error": "InternalError", "message": str(exc)}


def _result_payload(
    tenant_id: str, result: ExecResult
) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "tenant": tenant_id,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "cached_plan": result.cached_plan,
        "engine": result.plan.engine,
        "ops": dict(result.ops),
        "elapsed_ms": round(result.seconds * 1000.0, 3),
    }
    if result.statement.is_aggregate():
        payload["value"] = result.value
    return payload


class Gateway:
    """Transport-free request handling over a tenant registry."""

    def __init__(self, registry: TenantRegistry) -> None:
        self.registry = registry
        self._shutdown_cb: Optional[Any] = None
        self._metrics = registry.metrics

    def on_shutdown(self, callback: Any) -> None:
        """Register what ``POST /v1/admin/shutdown`` triggers."""
        self._shutdown_cb = callback

    # -- dispatch ------------------------------------------------------

    def handle(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Response:
        """Route one request; never raises (errors become payloads)."""
        try:
            status, payload, content = self._route(method, path, body)
        except Exception as exc:  # noqa: BLE001 — edge of the process
            status, error = error_payload(exc)
            payload, content = error, JSON_CONTENT
        return self._respond(method, path, status, payload, content)

    def reject(
        self, method: str, path: str, status: int, error: str, message: str
    ) -> Response:
        """A typed refusal decided before routing (the handler's
        framing checks), counted like every other request."""
        return self._respond(
            method, path, status,
            {"error": error, "message": message}, JSON_CONTENT,
        )

    def _respond(
        self, method: str, path: str, status: int, payload: object,
        content: str,
    ) -> Response:
        self._metrics.counter(
            "http_requests_total",
            "HTTP requests served, by route and status code.",
            labels={"route": _route_label(method, path),
                    "code": status},
        ).inc()
        if isinstance(payload, (bytes, bytearray)):
            raw = bytes(payload)
        else:
            raw = (json.dumps(payload, sort_keys=True) + "\n").encode()
        return status, raw, content

    def _route(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, object, str]:
        if method == "GET":
            if path == "/healthz":
                return 200, {
                    "status": "ok",
                    "tenants": self.registry.tenant_ids(),
                }, JSON_CONTENT
            if path == "/stats":
                return 200, self.registry.stats(), JSON_CONTENT
            if path == "/metrics":
                return 200, self.render_metrics().encode(), PROM_CONTENT
            return 404, {"error": "NotFound", "path": path}, JSON_CONTENT
        if method == "POST":
            request = self._parse_body(body)
            if path == "/v1/query":
                return (*self._query(request), JSON_CONTENT)
            if path == "/v1/prepare":
                return (*self._prepare(request), JSON_CONTENT)
            if path == "/v1/update":
                return (*self._update(request), JSON_CONTENT)
            if path == "/v1/script":
                return (*self._script(request), JSON_CONTENT)
            if path == "/v1/admin/shutdown":
                return (*self._shutdown(), JSON_CONTENT)
            return 404, {"error": "NotFound", "path": path}, JSON_CONTENT
        return 405, {"error": "MethodNotAllowed", "method": method}, \
            JSON_CONTENT

    @staticmethod
    def _parse_body(body: Optional[bytes]) -> Dict[str, object]:
        if not body:
            return {}
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}")
        if not isinstance(parsed, dict):
            raise ValueError("request body must be a JSON object")
        return parsed

    def _tenant(self, request: Dict[str, object]) -> Tenant:
        tenant_id = request.get("tenant")
        if not isinstance(tenant_id, str) or not tenant_id:
            raise ValueError("request needs a string 'tenant' field")
        return self.registry.get(tenant_id)

    @staticmethod
    def _text_field(
        request: Dict[str, object], field: str
    ) -> str:
        value = request.get(field)
        if not isinstance(value, str) or not value.strip():
            raise ValueError(f"request needs a string {field!r} field")
        return value

    # -- routes --------------------------------------------------------

    def _query(
        self, request: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        tenant = self._tenant(request)
        text = self._text_field(request, "query")
        override = request.get("budget")
        if override is not None and not isinstance(override, dict):
            raise ValueError("'budget' must be a JSON object")
        with tenant.pool.lease() as session:
            previous = session.budget
            if override:
                session.budget = tenant.spec.effective_budget(
                    max_ops=_opt_int(override, "max_ops"),
                    deadline_ms=_opt_int(override, "deadline_ms"),
                    max_rows=_opt_int(override, "max_rows"),
                )
            try:
                with session.obs.tracer.span(
                    "request",
                    tenant=tenant.spec.tenant_id,
                    path="/v1/query",
                ):
                    with tenant.lock.read():
                        result = session.execute(text)
            finally:
                session.budget = previous
        return 200, _result_payload(tenant.spec.tenant_id, result)

    def _prepare(
        self, request: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        tenant = self._tenant(request)
        text = self._text_field(request, "query")
        with tenant.pool.lease() as session:
            with session.obs.tracer.span(
                "request",
                tenant=tenant.spec.tenant_id,
                path="/v1/prepare",
            ):
                with tenant.lock.read():
                    prepared = session.prepare(text)
                    plan, cached = prepared.plan()
        return 200, {
            "tenant": tenant.spec.tenant_id,
            "signature": prepared.signature,
            "engine": plan.engine,
            "cached_plan": cached,
        }

    def _update(
        self, request: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        tenant = self._tenant(request)
        lines = request.get("updates")
        if not isinstance(lines, list) or not lines:
            raise ValueError(
                "request needs a non-empty 'updates' list of "
                "'+R v1,v2' / '-R v1,v2' strings"
            )
        updates: List[Update] = []
        for lineno, line in enumerate(lines, 1):
            if not isinstance(line, str):
                raise ValueError(f"update {lineno} is not a string")
            updates.append(parse_update(line.strip(), lineno))
        tenant.validate_updates(updates)
        if request.get("sync"):
            report = tenant.apply_sync(updates)
            return 200, {
                "tenant": tenant.spec.tenant_id,
                "applied": report.updates_applied,
                "generation": tenant.catalog.generation,
            }
        ticket = tenant.ingest.submit(updates)
        return 202, {
            "tenant": tenant.spec.tenant_id,
            "ticket": ticket,
            "queued": tenant.ingest.stats()["depth"],
        }

    def _script(
        self, request: Dict[str, object]
    ) -> Tuple[int, Dict[str, object]]:
        tenant = self._tenant(request)
        text = self._text_field(request, "script")
        with tenant.pool.lease() as session:
            with session.obs.tracer.span(
                "request",
                tenant=tenant.spec.tenant_id,
                path="/v1/script",
            ):
                # Scripts mix reads and mutations; run the whole thing
                # under the exclusive lock (they are admin/batch tools,
                # not the hot path).
                with tenant.lock.write():
                    output = ScriptRunner(session).run(
                        text.splitlines()
                    )
        return 200, {
            "tenant": tenant.spec.tenant_id,
            "output": output,
        }

    def _shutdown(self) -> Tuple[int, Dict[str, object]]:
        callback = self._shutdown_cb
        if callback is None:
            return 501, {
                "error": "NotImplemented",
                "message": "no shutdown callback registered",
            }
        # Respond first, then shut down: the callback runs off-thread
        # so this handler can finish writing its response.
        threading.Thread(
            target=callback, name="shutdown", daemon=True
        ).start()
        return 200, {"status": "shutting-down"}

    # -- exposition ----------------------------------------------------

    def render_metrics(self) -> str:
        """The shared registry + the stats tree as one exposition."""
        return (
            self._metrics.render_prometheus()
            + stats_to_prometheus(self.registry.stats())
        )


def _route_label(method: str, path: str) -> str:
    known = {
        "/healthz", "/stats", "/metrics", "/v1/query", "/v1/prepare",
        "/v1/update", "/v1/script", "/v1/admin/shutdown",
    }
    return f"{method} {path if path in known else 'other'}"


def _opt_int(payload: Dict[str, object], key: str) -> Optional[int]:
    value = payload.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"budget field {key!r} must be an integer")
    return value


class _Handler(BaseHTTPRequestHandler):
    """Thin I/O shim: everything interesting lives in the Gateway."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    # One segment per response: with the stock unbuffered wfile the
    # headers and the body leave as two small writes, and on a
    # keep-alive connection Nagle holds the second until the client's
    # delayed ACK of the first (~40 ms per request).  Buffer the
    # response, flush it once, and switch Nagle off for bodies larger
    # than the buffer.
    wbufsize = -1
    disable_nagle_algorithm = True
    # Socket timeout (StreamRequestHandler): a read or write that
    # waits longer closes the connection.
    timeout = HANDLER_TIMEOUT_S

    def _dispatch(self, method: str) -> None:
        server = self.server
        assert isinstance(server, QueryServer)
        gateway = server.gateway
        body: Optional[bytes] = None
        refusal: Optional[Response] = None
        if method == "POST":
            declared = (self.headers.get("Content-Length") or "0").strip()
            # RFC 9110 §8.6: 1*DIGIT.  int() alone would also take "-1"
            # (which makes rfile.read block until the peer hangs up),
            # "+5", "1_0" and non-ASCII digits.
            plain = declared.isascii() and declared.isdigit()
            length = int(declared) if plain else -1
            if length < 0:
                refusal = gateway.reject(
                    method, self.path, 400, "BadContentLength",
                    "Content-Length must be a non-negative decimal "
                    f"integer, got {declared!r}",
                )
            elif length > MAX_BODY_BYTES:
                refusal = gateway.reject(
                    method, self.path, 413, "PayloadTooLarge",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                )
            else:
                body = self.rfile.read(length)
                if len(body) < length:
                    # The peer hung up mid-body: nobody to answer.
                    self.close_connection = True
                    return
        if refusal is not None:
            # The unread body would be parsed as the next request.
            self.close_connection = True
        status, raw, content = refusal or gateway.handle(
            method, self.path, body
        )
        self.send_response(status)
        self.send_header("Content-Type", content)
        self.send_header("Content-Length", str(len(raw)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(raw)
        self.wfile.flush()

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")

    def log_message(self, format: str, *args: object) -> None:
        # Per-request stderr chatter off; /stats and the request
        # counter are the observable surface.
        pass


class QueryServer(ThreadingHTTPServer):
    """ThreadingHTTPServer + the gateway and registry it serves.

    Tracks each open connection with its handler thread, so
    :meth:`server_close` can wake and reap them all.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: Tuple[str, int], gateway: Gateway
    ) -> None:
        super().__init__(address, _Handler)
        self.gateway = gateway
        gateway.on_shutdown(self.shutdown)
        metrics = gateway.registry.metrics
        self._accepted = metrics.counter(
            "http_connections_total", "HTTP connections accepted."
        )
        self._open_gauge = metrics.gauge(
            "http_connections_open", "HTTP connections open now."
        )
        self._open: Dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()

    def process_request(
        self, request: Any, client_address: Any
    ) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"repro-http:{self.port}",
            daemon=True,
        )
        with self._open_lock:
            self._open[request] = thread
        self._accepted.inc()
        self._open_gauge.inc()
        thread.start()

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            del self._open[request]
        self._open_gauge.inc(-1)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Stop listening, end every open connection, reap handlers.

        Shutting down the read side wakes a handler blocked waiting
        for the next request (it sees EOF and exits) while one still
        answering a request can finish writing its response.
        """
        super().server_close()
        with self._open_lock:
            open_now = list(self._open.items())
        for sock, _ in open_now:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already gone
        for _, thread in open_now:
            if thread is not threading.current_thread():
                thread.join(HANDLER_TIMEOUT_S)

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        host = str(self.server_address[0])
        return f"http://{host}:{self.port}"


def serve_http(
    registry: TenantRegistry,
    host: str = "127.0.0.1",
    port: int = 0,
) -> QueryServer:
    """Bind (``port=0`` = ephemeral) — call ``serve_forever()`` next."""
    return QueryServer((host, port), Gateway(registry))

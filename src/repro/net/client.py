"""A stdlib-only HTTP client for the serving subsystem.

JSON in, JSON out, over :mod:`http.client` against
:mod:`repro.net.server`.  Each thread that uses a :class:`Client` keeps
one persistent HTTP/1.1 connection to the server and reuses it for
every request, so a round trip costs one send and one receive — no
TCP handshake and no new server handler thread per request.  Before
reuse an idle connection is checked; one the server has closed (its
idle timeout, a ``Connection: close`` answer) is reopened.

Retry rule: a request that fails on a *reused* connection is retried
once, on a fresh one, only where the retry cannot apply a write twice
— a failure while sending (the server never saw a whole request) or a
``GET``.  A ``POST`` whose connection dies after it was fully written
raises: a ``/v1/update`` may already have been applied.

Non-2xx responses raise :class:`ClientError` carrying the HTTP status
and the server's typed error payload (``{"error": "BudgetExceeded",
...}``), so callers branch on real fields instead of parsing message
strings — and the ``repro client`` CLI can translate policy aborts
(429/504) to exit code 4, matching the in-process CLI contract for
:class:`ExecutionError`.  Transport failures raise ``OSError``
subclasses (``ConnectionRefusedError``, ``TimeoutError``, ...).
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple, Union

JsonDict = Dict[str, object]


class ClientError(RuntimeError):
    """A non-2xx response, with the server's typed payload attached."""

    def __init__(self, status: int, payload: JsonDict) -> None:
        error = payload.get("error", "error")
        message = payload.get("message", "")
        super().__init__(f"HTTP {status} {error}: {message}")
        self.status = status
        self.payload = payload

    @property
    def error(self) -> str:
        return str(self.payload.get("error", ""))

    @property
    def is_policy_abort(self) -> bool:
        """True for admission/QoS aborts (429 budget/backpressure,
        504 deadline) — the HTTP face of ``ExecutionError``."""
        return self.status in (429, 504)


class _Connection(http.client.HTTPConnection):
    """One thread's persistent connection.

    ``http.client`` switches Nagle off (``TCP_NODELAY``) on connect, so
    a request's header and body writes leave at once instead of the
    second waiting for the server's delayed ACK of the first.  A closed
    connection reopens on the next request.
    """

    def stale(self) -> bool:
        """True if the idle socket is readable: the server closed it
        (EOF or reset) or sent bytes nobody asked for — either way it
        cannot carry the next request."""
        sock = self.sock
        if sock is None:
            return False
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))

    def __del__(self) -> None:
        # The owning thread exited: close rather than leave the socket
        # to the collector.
        self.close()


#: Failures that mean the connection broke (reset, EOF, garbage) —
#: retryable under the rule above.  Timeouts are not among them.
_BROKEN = (ConnectionError, http.client.HTTPException)


class Client:
    """One server endpoint, optionally pinned to a default tenant.

    Safe to share between threads: each thread gets its own
    connection.  :meth:`close` (or leaving a ``with`` block) closes
    all of them; a later request simply opens a new one.
    """

    def __init__(
        self,
        base_url: str,
        tenant: Optional[str] = None,
        timeout_s: float = 30.0,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.tenant = tenant
        self.timeout_s = timeout_s
        scheme, sep, rest = self.base_url.partition("://")
        if not sep or scheme.lower() != "http":
            raise ValueError(
                f"expected an http:// server URL, got {base_url!r}"
            )
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: "weakref.WeakSet[_Connection]" = weakref.WeakSet()

    def close(self) -> None:
        """Close every thread's connection to the server."""
        with self._lock:
            connections = list(self._open)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- transport -----------------------------------------------------

    def _connection(self) -> _Connection:
        conn: Optional[_Connection] = getattr(self._local, "conn", None)
        if conn is None:
            conn = _Connection(self._netloc, timeout=self.timeout_s)
            self._local.conn = conn
            with self._lock:
                self._open.add(conn)
        elif conn.stale():
            conn.close()
        return conn

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[JsonDict] = None,
    ) -> Tuple[int, bytes]:
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (1, 2):
            conn = self._connection()
            reused = conn.sock is not None
            written = False
            try:
                conn.request(
                    method, self._prefix + path, body=body,
                    headers=headers,
                )
                written = True
                response = conn.getresponse()
                raw = response.read()
            except BaseException as exc:
                conn.close()  # mid-exchange: the framing is lost
                retry = (
                    attempt == 1 and reused and isinstance(exc, _BROKEN)
                    and (method == "GET" or not written)
                )
                if not retry:
                    raise
                continue
            if response.will_close:
                conn.close()
            break
        if not 200 <= response.status < 300:
            raise ClientError(
                response.status, _error_payload(response, raw)
            )
        return response.status, raw

    def _json(
        self,
        method: str,
        path: str,
        payload: Optional[JsonDict] = None,
    ) -> JsonDict:
        _, body = self._request(method, path, payload)
        parsed = json.loads(body.decode("utf-8"))
        if not isinstance(parsed, dict):
            raise ClientError(0, {"error": "BadResponse"})
        return parsed

    def _with_tenant(
        self, payload: JsonDict, tenant: Optional[str]
    ) -> JsonDict:
        tenant_id = tenant if tenant is not None else self.tenant
        if not tenant_id:
            raise ValueError(
                "no tenant: pass tenant=... or set a client default"
            )
        payload["tenant"] = tenant_id
        return payload

    # -- the API surface -----------------------------------------------

    def query(
        self,
        text: str,
        tenant: Optional[str] = None,
        budget: Optional[Dict[str, int]] = None,
    ) -> JsonDict:
        payload: JsonDict = {"query": text}
        if budget:
            payload["budget"] = dict(budget)
        return self._json(
            "POST", "/v1/query", self._with_tenant(payload, tenant)
        )

    def rows(
        self,
        text: str,
        tenant: Optional[str] = None,
        budget: Optional[Dict[str, int]] = None,
    ) -> List[Tuple[int, ...]]:
        """Query and return rows as tuples (the Session-shaped view)."""
        result = self.query(text, tenant=tenant, budget=budget)
        raw = result.get("rows")
        assert isinstance(raw, list)
        return [tuple(int(v) for v in row) for row in raw]

    def prepare(
        self, text: str, tenant: Optional[str] = None
    ) -> JsonDict:
        return self._json(
            "POST", "/v1/prepare",
            self._with_tenant({"query": text}, tenant),
        )

    def update(
        self,
        updates: Union[str, Sequence[str]],
        tenant: Optional[str] = None,
        sync: bool = False,
    ) -> JsonDict:
        lines = (
            [u for u in updates.splitlines() if u.strip()]
            if isinstance(updates, str) else list(updates)
        )
        payload: JsonDict = {"updates": lines}
        if sync:
            payload["sync"] = True
        return self._json(
            "POST", "/v1/update", self._with_tenant(payload, tenant)
        )

    def script(
        self, text: str, tenant: Optional[str] = None
    ) -> JsonDict:
        return self._json(
            "POST", "/v1/script",
            self._with_tenant({"script": text}, tenant),
        )

    def healthz(self) -> JsonDict:
        return self._json("GET", "/healthz")

    def stats(self) -> JsonDict:
        return self._json("GET", "/stats")

    def metrics(self) -> str:
        _, body = self._request("GET", "/metrics")
        return body.decode("utf-8")

    def shutdown(self) -> JsonDict:
        return self._json("POST", "/v1/admin/shutdown", {})

    def wait_healthy(self, timeout_s: float = 10.0) -> bool:
        """Poll ``/healthz`` until the server answers (startup races)."""
        deadline = time.monotonic() + timeout_s  # lint: disable=determinism -- startup polling only; never feeds results
        while True:
            try:
                self.healthz()
                return True
            except (ClientError, OSError, http.client.HTTPException):
                if time.monotonic() > deadline:  # lint: disable=determinism -- startup polling only; never feeds results
                    return False
                time.sleep(0.05)

    def __repr__(self) -> str:
        return f"Client({self.base_url!r}, tenant={self.tenant!r})"


def _error_payload(
    response: http.client.HTTPResponse, raw: bytes
) -> JsonDict:
    try:
        parsed = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        parsed = None
    if isinstance(parsed, dict):
        return parsed
    return {
        "error": "HTTPError",
        "message": f"HTTP Error {response.status}: {response.reason}",
    }

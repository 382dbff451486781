"""Multi-tenant network serving over the session machinery.

The serving subsystem stacks five pieces over :mod:`repro.serve`:

* :mod:`repro.net.pool` — a bounded per-tenant :class:`Session` pool
  plus a tenant-scoped view of one process-wide (lock-guarded)
  :class:`~repro.planner.cache.PlanCache`;
* :mod:`repro.net.ingest` — an async ingestion queue: update batches
  enqueue, a single writer thread per tenant applies them off the
  read path (WAL-before-mutate preserved; cached plans survive the
  write), with typed backpressure when full;
* :mod:`repro.net.tenants` — the tenant registry: tenant id → durable
  catalog (per-tenant data-dir subdirectory), per-tenant QoS defaults
  (:class:`~repro.core.resilience.QueryBudget`), a reader/writer lock
  so reads share and mutations exclude;
* :mod:`repro.net.server` — the HTTP front door (stdlib
  ``ThreadingHTTPServer``): ``POST /v1/query|prepare|update|script``,
  ``GET /healthz|/stats|/metrics``, failures mapped to the resilience
  taxonomy as structured HTTP codes (429 budget/backpressure, 504
  deadline, 503 shard failure / saturation);
* :mod:`repro.net.client` — a stdlib-only client for scripted
  round-trips (``repro client``).

Concurrency contract: concurrent results are byte-identical to
sequential execution.  Each leased session is confined to one thread,
queries hold a tenant's shared read lock, and every mutation (sync
update, ingest writer, script) holds the exclusive write lock, and a
write has finished splicing (or rebuilding) its relation's index when
it returns — so the read path never races a view rebuild.
"""

from repro.net.client import Client, ClientError
from repro.net.ingest import IngestBackpressure, IngestQueue
from repro.net.pool import PoolSaturated, ScopedPlanCache, SessionPool
from repro.net.server import Gateway, QueryServer, serve_http
from repro.net.tenants import (
    ReadWriteLock,
    Tenant,
    TenantRegistry,
    TenantSpec,
    UnknownTenantError,
)

__all__ = [
    "Client",
    "ClientError",
    "Gateway",
    "IngestBackpressure",
    "IngestQueue",
    "PoolSaturated",
    "QueryServer",
    "ReadWriteLock",
    "ScopedPlanCache",
    "SessionPool",
    "serve_http",
    "Tenant",
    "TenantRegistry",
    "TenantSpec",
    "UnknownTenantError",
]

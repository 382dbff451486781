"""The tenant registry: id → catalog, QoS, pool, ingest, locks.

A tenant is the serving layer's isolation unit:

* **State** — its own :class:`~repro.dynamic.catalog.Catalog`, durable
  under ``<data_dir>/<tenant_id>/`` when the registry has a data dir
  (WAL + snapshots wired through :func:`repro.dynamic.durable.open_catalog`,
  exactly the single-caller durable path).
* **QoS** — per-tenant :class:`~repro.core.resilience.QueryBudget`
  defaults (max_ops / deadline_ms / max_rows) stamped onto every
  pooled session, enforced at admission; a request may *tighten* its
  budget, never loosen it (see :meth:`TenantSpec.effective_budget`).
* **Concurrency** — a writer-preferring :class:`ReadWriteLock`:
  queries hold the shared read side, every mutation (sync update,
  ingest writer, script) the exclusive write side.  A write has
  finished updating its relations' indexes when it releases the lock,
  which makes per-tenant execution linearizable — what the
  byte-identical-to-sequential guarantee rests on.

Observability wiring deserves a note: the
:class:`~repro.obs.trace.Tracer` is strictly nested over a stack and
deliberately not thread-safe, so tenants never share one.  Each pooled
session gets its *own* ``Observability`` bundle (leases confine it to
one thread at a time) whose metrics registry is replaced by the one
shared, lock-guarded process registry — so ``/metrics`` aggregates
every tenant while spans stay thread-confined.  The catalog is bound
to a separate writer-side bundle (trace off, shared metrics): catalog
mutations happen on whichever thread holds the write lock, which is
generally not the thread that created the last session.
"""

from __future__ import annotations

import os
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.resilience import QueryBudget, RetryPolicy
from repro.dynamic.catalog import BatchReport, Catalog
from repro.dynamic.durable import RecoveryReport, open_catalog
from repro.dynamic.log import Update
from repro.net.ingest import IngestQueue
from repro.net.pool import ScopedPlanCache, SessionPool
from repro.obs import MetricsRegistry, Observability
from repro.planner.cache import PlanCache
from repro.planner.planner import PlannerConfig
from repro.serve.session import Session

_TENANT_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")

#: ``TenantSpec.parse`` override keys (``--tenant name,key=value,...``).
_SPEC_KEYS = ("max_ops", "deadline_ms", "max_rows", "pool_size",
              "queue_depth")


class UnknownTenantError(KeyError):
    """No such tenant id in the registry (HTTP 404)."""

    def __init__(self, tenant_id: str) -> None:
        super().__init__(tenant_id)
        self.tenant_id = tenant_id

    def __str__(self) -> str:
        return f"unknown tenant {self.tenant_id!r}"


class ReadWriteLock:
    """A writer-preferring reader/writer lock.

    Readers share; a writer excludes everyone.  Waiting writers block
    new readers (writer preference), so a steady query stream cannot
    starve ingestion.  Not reentrant on the write side — the serving
    layer never nests acquisitions.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextmanager
    def read(self) -> Iterator[None]:
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self) -> Iterator[None]:
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass(frozen=True)
class TenantSpec:
    """Declarative per-tenant configuration (id + QoS knobs)."""

    tenant_id: str
    max_ops: Optional[int] = None
    deadline_ms: Optional[int] = None
    max_rows: Optional[int] = None
    pool_size: int = 4
    queue_depth: int = 64

    def __post_init__(self) -> None:
        if not _TENANT_ID_RE.match(self.tenant_id):
            raise ValueError(
                f"invalid tenant id {self.tenant_id!r} (must match "
                f"{_TENANT_ID_RE.pattern} — it names a data directory)"
            )
        if self.pool_size < 1:
            raise ValueError(
                f"pool_size must be >= 1, got {self.pool_size}"
            )
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )

    def budget(self) -> Optional[QueryBudget]:
        """The tenant's default admission budget (None = unbounded)."""
        if (
            self.max_ops is None
            and self.deadline_ms is None
            and self.max_rows is None
        ):
            return None
        return QueryBudget(
            max_ops=self.max_ops,
            deadline_ms=self.deadline_ms,
            max_rows=self.max_rows,
        )

    def effective_budget(
        self,
        max_ops: Optional[int] = None,
        deadline_ms: Optional[int] = None,
        max_rows: Optional[int] = None,
    ) -> Optional[QueryBudget]:
        """The tenant budget tightened by per-request overrides.

        A request can only lower limits: the minimum of the tenant
        default and the override wins per knob, so no caller escapes
        its tenant's QoS by asking nicely.
        """

        def tighter(a: Optional[int], b: Optional[int]) -> Optional[int]:
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        ops = tighter(self.max_ops, max_ops)
        deadline = tighter(self.deadline_ms, deadline_ms)
        rows = tighter(self.max_rows, max_rows)
        if ops is None and deadline is None and rows is None:
            return None
        return QueryBudget(
            max_ops=ops, deadline_ms=deadline, max_rows=rows
        )

    @classmethod
    def parse(cls, text: str, **defaults: Any) -> "TenantSpec":
        """Parse ``name[,key=value,...]`` (the ``--tenant`` flag).

        ``defaults`` are field values for the knobs ``text`` leaves
        unset (the CLI-level flags); an override in ``text`` wins.
        """
        parts = [p.strip() for p in text.split(",")]
        tenant_id = parts[0]
        kwargs: Dict[str, int] = {}
        for part in parts[1:]:
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in _SPEC_KEYS:
                raise ValueError(
                    f"bad tenant override {part!r} (expected one of "
                    f"{', '.join(_SPEC_KEYS)}=<int>)"
                )
            try:
                kwargs[key] = int(value.strip())
            except ValueError:
                raise ValueError(
                    f"bad tenant override {part!r}: non-integer value"
                ) from None
        return cls(tenant_id, **{**defaults, **kwargs})


class Tenant:
    """One tenant's runtime: catalog, locks, session pool, ingest."""

    def __init__(
        self,
        spec: TenantSpec,
        *,
        metrics: MetricsRegistry,
        plan_cache: PlanCache,
        config: Optional[PlannerConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
        data_dir: Optional[str] = None,
        fsync: str = "batch",
        trace: bool = False,
        slow_query_ms: Optional[float] = None,
    ) -> None:
        self.spec = spec
        self.lock = ReadWriteLock()
        self._metrics = metrics
        self._shared_cache = plan_cache
        self._config = config
        self._retry_policy = retry_policy
        self._trace = trace
        self._slow_query_ms = slow_query_ms
        self.data_dir: Optional[str] = None
        self.recovery: Optional[RecoveryReport] = None
        if data_dir is not None:
            self.data_dir = os.path.join(data_dir, spec.tenant_id)
            self.catalog, self.recovery = open_catalog(
                self.data_dir, fsync=fsync
            )
        else:
            self.catalog = Catalog()
        # Writer-side bundle: catalog spans stay off (mutations run on
        # whichever thread holds the write lock), metrics shared.
        self.catalog.bind_obs(self._make_obs(trace=False))
        self.pool = SessionPool(
            self._make_session,
            spec.pool_size,
            name=spec.tenant_id,
        )
        self.ingest = IngestQueue(
            spec.tenant_id,
            self.catalog,
            self.lock,
            maxsize=spec.queue_depth,
        )
        self._closed = False

    def _make_obs(self, trace: bool) -> Observability:
        obs = Observability(
            trace=trace, slow_query_ms=self._slow_query_ms
        )
        # One process-wide, lock-guarded registry behind every bundle:
        # tenants and sessions aggregate into a single /metrics page.
        obs.metrics = self._metrics
        return obs

    def _make_session(self) -> Session:
        # owns_wal=False: the catalog stays bound to the writer-side
        # bundle, so catalog spans never land on a session tracer owned
        # by some other thread.
        return Session(
            catalog=self.catalog,
            config=self._config,
            obs=self._make_obs(trace=self._trace),
            budget=self.spec.budget(),
            retry_policy=self._retry_policy,
            plan_cache=ScopedPlanCache(
                self._shared_cache, self.spec.tenant_id
            ),
            owns_wal=False,
        )

    # -- mutation ------------------------------------------------------

    def apply_sync(self, updates: Sequence[Update]) -> BatchReport:
        """Apply a batch on the caller's thread (the ingest writer's
        write body, under the exclusive lock)."""
        return self.ingest.apply(updates)

    def validate_updates(self, updates: Sequence[Update]) -> None:
        """Admission-time schema check so bad async batches fail the
        *request* (HTTP 400), not the background writer."""
        with self.lock.read():
            for update in updates:
                relation = self.catalog.relation(update.relation)
                arity = len(relation.attributes)
                if len(update.row) != arity:
                    raise ValueError(
                        f"update {update.relation}{update.row} has "
                        f"arity {len(update.row)}, relation expects "
                        f"{arity}"
                    )

    # -- teardown / introspection --------------------------------------

    def close(self, snapshot: bool = False) -> None:
        """Drain ingestion, optionally snapshot, close pool + WAL."""
        if self._closed:
            return
        self._closed = True
        self.ingest.close()
        self.pool.close()
        if snapshot and self.data_dir is not None:
            with self.lock.write():
                self.catalog.snapshot(truncate_wal=True)
        wal = self.catalog.wal
        if wal is not None:
            wal.close()

    def stats(self) -> Dict[str, object]:
        qos: Dict[str, object] = {
            "pool_size": self.spec.pool_size,
            "queue_depth": self.spec.queue_depth,
        }
        for knob in ("max_ops", "deadline_ms", "max_rows"):
            value = getattr(self.spec, knob)
            if value is not None:
                qos[knob] = value
        sessions = self.pool.sessions
        return {
            "qos": qos,
            "pool": self.pool.stats(),
            "ingest": self.ingest.stats(),
            "sessions": {
                "queries_executed": sum(
                    s.queries_executed for s in sessions
                ),
                "statements_prepared": sum(
                    s.statements_prepared for s in sessions
                ),
            },
            "catalog": {
                "generation": self.catalog.generation,
                "relations": len(self.catalog.relation_names()),
                "durable": 1 if self.data_dir is not None else 0,
            },
        }

    def __repr__(self) -> str:
        return (
            f"Tenant({self.spec.tenant_id!r}, "
            f"generation={self.catalog.generation}, "
            f"durable={self.data_dir is not None})"
        )


class TenantRegistry:
    """Every tenant this server process hosts, plus shared resources."""

    def __init__(
        self,
        specs: Sequence[TenantSpec] = (),
        *,
        data_dir: Optional[str] = None,
        config: Optional[PlannerConfig] = None,
        retry_policy: Optional[RetryPolicy] = None,
        fsync: str = "batch",
        cache_capacity: int = 512,
        trace: bool = False,
        slow_query_ms: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.metrics = (
            metrics if metrics is not None
            else MetricsRegistry(namespace="repro")
        )
        self.plan_cache = PlanCache(cache_capacity)
        self._data_dir = data_dir
        self._config = config
        self._retry_policy = retry_policy
        self._fsync = fsync
        self._trace = trace
        self._slow_query_ms = slow_query_ms
        self._tenants: Dict[str, Tenant] = {}
        self._lock = threading.Lock()
        self._closed = False
        for spec in specs:
            self.add(spec)

    def add(self, spec: TenantSpec) -> Tenant:
        with self._lock:
            if spec.tenant_id in self._tenants:
                raise ValueError(
                    f"tenant {spec.tenant_id!r} already registered"
                )
            tenant = Tenant(
                spec,
                metrics=self.metrics,
                plan_cache=self.plan_cache,
                config=self._config,
                retry_policy=self._retry_policy,
                data_dir=self._data_dir,
                fsync=self._fsync,
                trace=self._trace,
                slow_query_ms=self._slow_query_ms,
            )
            self._tenants[spec.tenant_id] = tenant
            return tenant

    def get(self, tenant_id: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise UnknownTenantError(tenant_id)
        return tenant

    def tenant_ids(self) -> List[str]:
        with self._lock:
            return list(self._tenants)

    def tenants(self) -> List[Tuple[str, Tenant]]:
        with self._lock:
            return list(self._tenants.items())

    def close(self, snapshot: bool = False) -> None:
        """Close every tenant (drain ingest → snapshot? → close WAL)."""
        if self._closed:
            return
        self._closed = True
        for _, tenant in self.tenants():
            tenant.close(snapshot=snapshot)

    def stats(self) -> Dict[str, object]:
        return {
            "tenants": {
                tid: tenant.stats() for tid, tenant in self.tenants()
            },
            "plan_cache": self.plan_cache.stats(),
        }

    def __repr__(self) -> str:
        return (
            f"TenantRegistry({len(self.tenant_ids())} tenants, "
            f"durable={self._data_dir is not None})"
        )

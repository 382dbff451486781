"""Session pooling and the shared, tenant-scoped plan cache.

The plan cache is keyed by renaming-invariant signature, so sharing
one process-wide cache across every session is sound once the cache is
locked (it is — see :class:`~repro.planner.cache.PlanCache`).  What
signatures alone do NOT disambiguate is the *tenant*: two tenants'
catalogs hold unrelated data (and possibly different schemas), so an
identical query text must not collide — neither on a cached plan nor
on a plan being built.  :class:`ScopedPlanCache` namespaces every key
with the tenant id — plans stay in the one shared LRU (one capacity
knob, one set of counters) and single-flight election happens per
(tenant, signature), so the sessions of one tenant's pool coalesce on
each other's cold plans and never on another tenant's.

:class:`SessionPool` bounds how many :class:`~repro.serve.session.Session`
objects a tenant runs concurrently.  Sessions are created lazily up to
the bound, leased to exactly one thread at a time (the tracer and op
counters inside a session are deliberately not thread-safe — the pool
is what confines them), recycled on success *and* on typed policy
aborts (a ``BudgetExceeded`` leaves a session perfectly consistent),
and discarded on anything unexpected.
"""

from __future__ import annotations

import queue
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.resilience import ExecutionError
from repro.lang.ast import QueryError
from repro.planner.cache import PlanCache
from repro.planner.plan import Plan
from repro.serve.session import Session


class PoolSaturated(ExecutionError):
    """No session became free within the lease timeout."""

    def __init__(self, tenant: str, size: int, timeout_s: float) -> None:
        super().__init__(
            f"session pool for tenant {tenant!r} saturated "
            f"({size} sessions, waited {timeout_s:g}s)"
        )
        self.tenant = tenant
        self.size = size
        self.timeout_s = timeout_s


class ScopedPlanCache(PlanCache):
    """A tenant-namespaced view of one shared :class:`PlanCache`.

    ``resolve``/``clear`` delegate to the shared cache with every key
    prefixed by the tenant id (NUL-separated: tenant ids cannot contain
    NUL, so prefixes never collide).  Hit/miss/eviction counters are
    process-wide by design — capacity is a process resource, so its
    pressure is a process-level signal.
    """

    def __init__(self, shared: PlanCache, scope: str) -> None:
        super().__init__(capacity=shared.capacity)
        self._shared = shared
        self._prefix = scope + "\x00"

    def _key(self, signature: str) -> str:
        return self._prefix + signature

    def resolve(
        self,
        signature: str,
        sizes: Mapping[str, int],
        build: Callable[[], Plan],
    ) -> Tuple[Plan, str]:
        return self._shared.resolve(self._key(signature), sizes, build)

    def clear(self) -> None:
        with self._shared._lock:
            stale = [
                k for k in self._shared._entries
                if k.startswith(self._prefix)
            ]
            for k in stale:
                del self._shared._entries[k]

    def __len__(self) -> int:
        with self._shared._lock:
            return sum(
                1 for k in self._shared._entries
                if k.startswith(self._prefix)
            )

    def __contains__(self, signature: str) -> bool:
        return self._key(signature) in self._shared

    def stats(self) -> Dict[str, int]:
        out = self._shared.stats()
        out["entries"] = len(self)
        out["shared_entries"] = len(self._shared)
        return out

    def __repr__(self) -> str:
        return (
            f"ScopedPlanCache({self._prefix[:-1]!r}, {len(self)} scoped "
            f"of {len(self._shared)} shared entries)"
        )


class SessionPool:
    """A bounded pool of sessions, leased one thread at a time."""

    def __init__(
        self,
        factory: Callable[[], Session],
        size: int,
        name: str = "",
        lease_timeout_s: float = 30.0,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._factory = factory
        self.size = size
        self.name = name
        self.lease_timeout_s = lease_timeout_s
        self._idle: "queue.LifoQueue[Session]" = queue.LifoQueue()
        self._lock = threading.Lock()
        #: Every session ever created (for stats aggregation; discarded
        #: sessions stay listed but closed).
        self._sessions: List[Session] = []
        self.created = 0
        self.leases = 0
        self.waits = 0
        self.discards = 0
        self._closed = False

    # -- lease lifecycle ----------------------------------------------

    def _acquire(self, timeout_s: Optional[float]) -> Session:
        with self._lock:
            if self._closed:
                raise RuntimeError(f"session pool {self.name!r} is closed")
            self.leases += 1
        try:
            return self._idle.get_nowait()
        except queue.Empty:
            pass
        make = False
        with self._lock:
            if self.created < self.size:
                self.created += 1
                make = True
        if make:
            try:
                session = self._factory()
            except BaseException:
                with self._lock:
                    self.created -= 1
                raise
            with self._lock:
                self._sessions.append(session)
            return session
        with self._lock:
            self.waits += 1
        wait_s = (
            timeout_s if timeout_s is not None else self.lease_timeout_s
        )
        try:
            return self._idle.get(timeout=wait_s)
        except queue.Empty:
            raise PoolSaturated(self.name, self.size, wait_s) from None

    def _release(self, session: Session) -> None:
        with self._lock:
            if self._closed:
                session.close()
                return
        self._idle.put(session)

    def _discard(self, session: Session) -> None:
        session.close()
        with self._lock:
            self.discards += 1
            self.created -= 1

    @contextmanager
    def lease(
        self, timeout_s: Optional[float] = None
    ) -> Iterator[Session]:
        """Borrow a session for the calling thread.

        Typed policy aborts (:class:`ExecutionError`: budget, deadline,
        shard failure) and query-language errors leave a session
        consistent, so it is recycled; any other exception discards it
        (a replacement is created lazily on demand).
        """
        session = self._acquire(timeout_s)
        try:
            yield session
        except (ExecutionError, QueryError):
            self._release(session)
            raise
        except BaseException:
            self._discard(session)
            raise
        else:
            self._release(session)

    # -- teardown / introspection -------------------------------------

    def close(self) -> None:
        """Close every idle session and refuse further leases."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        while True:
            try:
                self._idle.get_nowait().close()
            except queue.Empty:
                break

    @property
    def sessions(self) -> List[Session]:
        with self._lock:
            return list(self._sessions)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": self.size,
                "created": self.created,
                "idle": self._idle.qsize(),
                "leases": self.leases,
                "waits": self.waits,
                "discards": self.discards,
            }

    def __repr__(self) -> str:
        return (
            f"SessionPool({self.name!r}, {self.created}/{self.size} "
            f"created, {self.leases} leases)"
        )

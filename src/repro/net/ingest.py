"""Async ingestion: update batches applied off the read path.

One :class:`IngestQueue` per tenant.  HTTP update requests enqueue a
parsed batch and return a ticket immediately (202); a single writer
thread drains the queue in submission order, applying each batch under
the tenant's exclusive write lock via ``catalog.apply_batch``
(:meth:`IngestQueue.apply`, which synchronous writes call too) — so the
WAL-before-mutate ordering, crashpoint placement, and generation bump
are exactly the ones the durable path already tests.  A write splices
its batch into the relation's index (or rebuilds an index the batch
outgrew) before ``apply_batch`` returns, *while still holding the write
lock*, so concurrent readers never pay (or race) a splice or build:
the read path stays genuinely read-only.

Backpressure is a typed error, not a blocking put: when the queue is
at capacity, :meth:`IngestQueue.submit` raises
:class:`IngestBackpressure` (HTTP 429) — the caller sheds load instead
of tying up a handler thread.

A failed batch (e.g. an unknown relation that slipped past admission
validation) does not kill the writer: the error is recorded against
the ticket, the applied watermark still advances (so ``wait`` always
terminates), and subsequent batches proceed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.resilience import ExecutionError
from repro.dynamic.catalog import BatchReport, Catalog
from repro.dynamic.log import Update

if TYPE_CHECKING:
    from repro.net.tenants import ReadWriteLock

#: How many per-ticket error messages are retained for /stats.
ERROR_HISTORY = 100


class IngestBackpressure(ExecutionError):
    """The tenant's ingestion queue is full — shed load (HTTP 429)."""

    def __init__(self, tenant: str, depth: int, limit: int) -> None:
        super().__init__(
            f"ingest queue for tenant {tenant!r} is full "
            f"({depth}/{limit} batches pending)"
        )
        self.tenant = tenant
        self.depth = depth
        self.limit = limit


class IngestQueue:
    """Bounded batch queue + the single writer thread that drains it."""

    def __init__(
        self,
        tenant_id: str,
        catalog: Catalog,
        lock: "ReadWriteLock",
        maxsize: int = 64,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"queue depth must be >= 1, got {maxsize}")
        self.tenant_id = tenant_id
        self.maxsize = maxsize
        self._catalog = catalog
        self._rwlock = lock
        self._cond = threading.Condition()
        self._pending: Deque[Tuple[int, List[Update]]] = deque()
        self._errors: "OrderedDict[int, str]" = OrderedDict()
        self.submitted = 0
        self.applied = 0
        self.failed = 0
        self.rejected = 0
        self.updates_applied = 0
        #: Highest ticket the writer has finished (applied or failed).
        self.applied_seq = 0
        self._stopping = False
        self._thread = threading.Thread(
            target=self._run, name=f"ingest-{tenant_id}", daemon=True
        )
        self._thread.start()

    # -- producer side -------------------------------------------------

    def submit(self, updates: Sequence[Update]) -> int:
        """Enqueue one batch; returns its ticket (1-based, ordered)."""
        batch = list(updates)
        with self._cond:
            if self._stopping:
                raise RuntimeError(
                    f"ingest queue for tenant {self.tenant_id!r} is closed"
                )
            if len(self._pending) >= self.maxsize:
                self.rejected += 1
                raise IngestBackpressure(
                    self.tenant_id, len(self._pending), self.maxsize
                )
            self.submitted += 1
            ticket = self.submitted
            self._pending.append((ticket, batch))
            self._cond.notify_all()
            return ticket

    def wait(self, ticket: int, timeout_s: Optional[float] = None) -> bool:
        """Block until the writer has processed ``ticket``."""
        with self._cond:
            return self._cond.wait_for(
                lambda: self.applied_seq >= ticket, timeout=timeout_s
            )

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Block until everything submitted so far has been processed."""
        with self._cond:
            target = self.submitted
            return self._cond.wait_for(
                lambda: self.applied_seq >= target, timeout=timeout_s
            )

    def error(self, ticket: int) -> Optional[str]:
        """The failure message for ``ticket``, or ``None`` if it
        applied cleanly (or its record aged out of the history)."""
        with self._cond:
            return self._errors.get(ticket)

    # -- the write body ------------------------------------------------

    def apply(self, updates: Sequence[Update]) -> BatchReport:
        """Apply one batch now, on the calling thread, under the
        tenant's exclusive write lock — the body of every tenant
        write, queued (the writer thread) or synchronous
        (``Tenant.apply_sync``)."""
        with self._rwlock.write():
            return self._catalog.apply_batch(updates)

    # -- the writer thread ---------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopping:
                    self._cond.wait()
                if not self._pending:
                    return  # stopping and fully drained
                ticket, batch = self._pending.popleft()
            failure: Optional[str] = None
            applied_count = 0
            try:
                applied_count = self.apply(batch).updates_applied
            except Exception as exc:  # noqa: BLE001 — writer must survive
                failure = f"{type(exc).__name__}: {exc}"
            with self._cond:
                if failure is None:
                    self.applied += 1
                    self.updates_applied += applied_count
                else:
                    self.failed += 1
                    self._errors[ticket] = failure
                    while len(self._errors) > ERROR_HISTORY:
                        self._errors.popitem(last=False)
                self.applied_seq = ticket
                self._cond.notify_all()

    # -- teardown / introspection --------------------------------------

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Drain outstanding batches, then stop the writer thread."""
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        self._thread.join(timeout=timeout_s)

    def stats(self) -> Dict[str, int]:
        with self._cond:
            return {
                "depth": len(self._pending),
                "capacity": self.maxsize,
                "submitted": self.submitted,
                "applied": self.applied,
                "failed": self.failed,
                "rejected": self.rejected,
                "updates_applied": self.updates_applied,
            }

    def __repr__(self) -> str:
        with self._cond:
            return (
                f"IngestQueue({self.tenant_id!r}, "
                f"{len(self._pending)}/{self.maxsize} pending, "
                f"{self.applied} applied, {self.rejected} rejected)"
            )

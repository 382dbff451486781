"""The plan cache: one plan per signature, rebuilt only on data drift.

Planning costs engine runs (candidate scoring) and possible relation
re-indexing, so repeated traffic must not pay it twice — and a write
must not make it pay again.  A plan is a GAO plus an engine choice, and
every GAO computes the same rows (the paper's Ex. B.6 is about cost,
never correctness), so a plan built before a write is still a correct
plan after it.  The cache therefore keys plans by the statement's
renaming-invariant signature alone and calls an entry stale only when
:meth:`Plan.drifted <repro.planner.plan.Plan.drifted>` says the data
has moved far enough (some body relation 2× bigger or smaller, or to
or from empty) to change what a cost-based planner would pick: a
Minesweeper GAO, or any engine picked by comparing measured weighted
work.  Plans whose engine a structural rule picked never go stale.

:meth:`PlanCache.resolve` is the whole lifecycle — look up, validate,
build, publish — so that it can make two promises per key:

* **single-flight**: concurrent lookups that find no plan elect one
  leader to build it; the rest wait for the leader's plan, or for its
  exception, instead of each paying the cold plan;
* **stale-while-revalidate**: the reader that finds a drifted plan
  rebuilds it on its own thread, and everyone who arrives meanwhile is
  served the old (still correct) plan without waiting.

LRU-bounded.  Every ``resolve`` bumps exactly one of ``hits`` (served
from the cache), ``misses`` (went on to build: one per plan built) or
``coalesced`` (served by another reader's build); ``invalidated``
counts drift detections and ``drift_replans`` the rebuilds that
followed.  The serving layer's stats, the ledger and the tests read
them.

Thread safety: one ``RLock`` guards the ``OrderedDict``, the in-flight
table and the counters, and is never held while a plan is built or
waited for, so the cache can be shared across the serving layer's
concurrent sessions (``repro.net``) without one tenant's cold plan
stalling another's hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Mapping, Optional, Tuple

from repro.planner.plan import Plan

#: How ``resolve`` came by the plan it returned (``explain()`` prints
#: it as ``plan origin``).
ORIGIN_CACHED = "cached"
ORIGIN_PLANNED = "planned now"
ORIGIN_COALESCED = "coalesced"
ORIGIN_REFRESHED = "refreshed (drift)"

#: The origins under which the caller itself ran the planner.
BUILT_ORIGINS = (ORIGIN_PLANNED, ORIGIN_REFRESHED)


class _Flight:
    """One build in progress, and what its waiters will be handed."""

    __slots__ = ("done", "plan", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.plan: Optional[Plan] = None
        self.error: Optional[BaseException] = None

    def result(self) -> Plan:
        """Block until the build lands; its plan, or its exception."""
        self.done.wait()
        if self.error is not None:
            raise self.error
        assert self.plan is not None
        return self.plan


class PlanCache:
    """LRU cache of :class:`Plan` objects keyed by query signature."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, Plan]" = OrderedDict()
        #: key -> the build under way for it (cold plan or drift refresh).
        self._flights: Dict[str, _Flight] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.invalidated = 0
        self.drift_replans = 0
        self.evicted = 0

    def resolve(
        self,
        signature: str,
        sizes: Mapping[str, int],
        build: Callable[[], Plan],
    ) -> Tuple[Plan, str]:
        """The plan for ``signature`` and its origin, building at most once.

        ``sizes`` maps each body relation to its current row count (the
        drift check); ``build`` plans from scratch and runs on the
        calling thread, outside the cache lock, only when this caller
        is the one elected to build.  An exception from ``build``
        propagates to the caller and to every waiter, and leaves
        nothing in flight: the next lookup plans normally.
        """
        with self._lock:
            stale = self._entries.get(signature)
            pending = self._flights.get(signature)
            if stale is not None and (
                pending is not None or not stale.drifted(sizes)
            ):
                # Current — or drifted, but someone is already on it.
                self._entries.move_to_end(signature)
                self.hits += 1
                return stale, ORIGIN_CACHED
            if pending is None:
                flight = self._flights[signature] = _Flight()
                self.misses += 1
                if stale is not None:
                    self.invalidated += 1
            else:
                self.coalesced += 1
        if pending is not None:
            return pending.result(), ORIGIN_COALESCED
        try:
            plan = flight.plan = build()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                del self._flights[signature]
                if flight.plan is not None:
                    self._entries[signature] = flight.plan
                    self._entries.move_to_end(signature)
                    while len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
                        self.evicted += 1
                    if stale is not None:
                        self.drift_replans += 1
            flight.done.set()
        return plan, ORIGIN_PLANNED if stale is None else ORIGIN_REFRESHED

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        with self._lock:
            return signature in self._entries

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "in_flight": len(self._flights),
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "invalidated": self.invalidated,
                "drift_replans": self.drift_replans,
                "evicted": self.evicted,
            }

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"PlanCache({len(self._entries)}/{self.capacity} entries, "
                f"{self.hits} hits, {self.misses} misses, "
                f"{self.coalesced} coalesced)"
            )

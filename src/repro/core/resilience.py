"""Admission control and resilience policy for query execution.

The paper's certificate bound says Minesweeper does work proportional
to the *instance's* difficulty — but a serving layer cannot rely on
every query being reasonably bounded, and a pooled shard run adds a
whole new failure plane (worker death, hangs, poisoned results).  This
module holds the vocabulary both concerns share:

* :class:`QueryBudget` — declarative per-query limits (max CDS ops,
  wall-clock deadline, max output rows).  ``admit()`` pins the deadline
  to an absolute clock instant and returns the :class:`AdmittedQuery`
  the engines consult cooperatively.
* The typed error taxonomy — :class:`BudgetExceeded`,
  :class:`QueryTimeout`, and :class:`ShardFailure`, all under one
  :class:`ExecutionError` base, so callers (CLI exit code 4, script
  per-line attribution) can catch "the query was aborted by policy"
  without pattern-matching message strings.
* :class:`RetryPolicy` — how the shard supervisor responds to a failed
  shard attempt: bounded retries with exponential backoff, an optional
  per-attempt timeout, and a deterministic in-process fallback.
* :class:`CircuitBreaker` — repeated pool-attempt failures across
  queries trip it open, downgrading the session to in-process
  execution (``workers=0``) with a recorded reason.
* :class:`ResilienceStats` — plain counters the supervisor increments
  and the session exports through the unified stats tree / Prometheus.

Everything here is engine-agnostic plain data; ``core``, ``parallel``,
``serve``, and the CLI all import it without layering violations.

Note the distinction from :class:`~repro.core.minesweeper.MinesweeperError`:
that error means the *engine* detected a problem (progress bug, probe
safety valve) and stays internal; the errors here mean *policy*
aborted a healthy engine and are part of the serving API.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

from repro.util.counters import OpCounters


class ExecutionError(RuntimeError):
    """Base of every policy-originated query abort (typed taxonomy)."""


class BudgetExceeded(ExecutionError):
    """The query hit its :class:`QueryBudget` ops or rows limit."""

    def __init__(self, resource: str, limit: int, used: int) -> None:
        super().__init__(
            f"query budget exceeded: {resource} limit {limit} "
            f"(used {used})"
        )
        self.resource = resource
        self.limit = limit
        self.used = used

    def __reduce__(
        self,
    ) -> Tuple[Type[BudgetExceeded], Tuple[str, int, int]]:
        # Default exception pickling would re-call __init__ with the
        # formatted message as ``resource``; shard workers ship these
        # through a Pipe, so round-trip the real fields.
        return (BudgetExceeded, (self.resource, self.limit, self.used))


class QueryTimeout(ExecutionError):
    """The query's wall-clock deadline passed before it finished."""

    def __init__(self, deadline_s: float, where: str = "driver") -> None:
        super().__init__(
            f"query deadline of {deadline_s * 1000:.0f} ms exceeded "
            f"({where})"
        )
        self.deadline_s = deadline_s
        self.where = where

    def __reduce__(
        self,
    ) -> Tuple[Type[QueryTimeout], Tuple[float, str]]:
        return (QueryTimeout, (self.deadline_s, self.where))


class ShardFailure(ExecutionError):
    """A shard could not produce a result after the retry policy and
    the in-process fallback were exhausted.

    Carries the shard's identity (plan index, leading-attribute range)
    and the per-attempt fault history (``crash`` / ``timeout`` /
    ``poison`` / ``error``) so operators can see *how* it died, not
    just that it did.
    """

    def __init__(
        self,
        index: int,
        lo: int,
        hi: int,
        attempts: int,
        faults: List[str],
        detail: str = "",
    ) -> None:
        suffix = f": {detail}" if detail else ""
        super().__init__(
            f"shard {index} [{lo}, {hi}] failed after {attempts} "
            f"attempt(s) (faults: {', '.join(faults) or 'none'})"
            f"{suffix}"
        )
        self.index = index
        self.lo = lo
        self.hi = hi
        self.attempts = attempts
        self.faults = list(faults)
        self.detail = detail

    def __reduce__(
        self,
    ) -> Tuple[
        Type[ShardFailure], Tuple[int, int, int, int, List[str], str]
    ]:
        return (
            ShardFailure,
            (
                self.index,
                self.lo,
                self.hi,
                self.attempts,
                self.faults,
                self.detail,
            ),
        )


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryBudget:
    """Declarative per-query limits (all optional, ``None`` = unbounded).

    ``max_ops`` bounds tallied work, measured the same way for every
    engine as ``interval_ops + constraints + comparisons``: CDS work
    for Minesweeper and the triangle engine (which tally no
    ``comparisons``), hash/compare units for Yannakakis (which tallies
    nothing else).  It needs counting counters: under
    :class:`~repro.util.counters.NullCounters` the tallies stay zero
    and the cap never fires.  ``deadline_ms`` is wall-clock from
    :meth:`admit`; ``max_rows`` bounds output tuples.  Every engine
    checks all three from its own loop (:meth:`AdmittedQuery.tick`)
    and raises :class:`BudgetExceeded` / :class:`QueryTimeout`.
    """

    max_ops: Optional[int] = None
    deadline_ms: Optional[int] = None
    max_rows: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_ops", "deadline_ms", "max_rows"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def bounded(self) -> bool:
        return (
            self.max_ops is not None
            or self.deadline_ms is not None
            or self.max_rows is not None
        )

    def admit(self) -> "AdmittedQuery":
        """Start the clock: pin the deadline to an absolute instant."""
        return AdmittedQuery(self)


class AdmittedQuery:
    """One query's live budget: absolute deadline plus check methods.

    The engines call :meth:`tick` cooperatively from their hot loop;
    the deadline is only read every ``DEADLINE_STRIDE`` ticks so an
    unbounded-deadline budget costs two integer compares per probe.
    """

    DEADLINE_STRIDE = 64

    def __init__(self, budget: QueryBudget) -> None:
        self.budget = budget
        self.deadline: Optional[float] = None
        if budget.deadline_ms is not None:
            self.deadline = (
                time.monotonic()  # lint: disable=determinism -- abort timing only; never feeds result values
                + budget.deadline_ms / 1000.0
            )
        self._ticks = 0

    # -- individual checks ---------------------------------------------

    def check_ops(self, ops: int) -> None:
        max_ops = self.budget.max_ops
        if max_ops is not None and ops > max_ops:
            raise BudgetExceeded("ops", max_ops, ops)

    def check_rows(self, rows: int) -> None:
        max_rows = self.budget.max_rows
        if max_rows is not None and rows > max_rows:
            raise BudgetExceeded("rows", max_rows, rows)

    def check_deadline(self, where: str = "driver") -> None:
        if self.deadline is not None and (
            time.monotonic() > self.deadline  # lint: disable=determinism -- abort timing only; never feeds result values
        ):
            assert self.budget.deadline_ms is not None
            raise QueryTimeout(self.budget.deadline_ms / 1000.0, where)

    def remaining_s(self) -> Optional[float]:
        """Seconds until the deadline (``None`` = unbounded) — what a
        shard payload ships so pool workers can self-cancel."""
        if self.deadline is None:
            return None
        return max(
            0.0,
            self.deadline - time.monotonic(),  # lint: disable=determinism -- abort timing only; never feeds result values
        )

    def expired(self) -> bool:
        return self.deadline is not None and (
            time.monotonic() > self.deadline  # lint: disable=determinism -- abort timing only; never feeds result values
        )

    # -- the engine hot-loop entry -------------------------------------

    def tick(self, counters: OpCounters, where: str = "engine") -> None:
        """One cooperative checkpoint from an engine loop, on the run's
        tallies so far: the ops measure of :class:`QueryBudget` and the
        rows output."""
        self.check_ops(
            counters.interval_ops + counters.constraints + counters.comparisons
        )
        self.check_rows(counters.output_tuples)
        self._ticks += 1
        if self._ticks % self.DEADLINE_STRIDE == 0:
            self.check_deadline(where)


def admit(budget: Optional[QueryBudget]) -> Optional[AdmittedQuery]:
    """``budget.admit()`` through an Optional (the common call shape)."""
    if budget is None or not budget.bounded:
        return None
    return budget.admit()


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the shard supervisor treats a failed shard attempt.

    A failed *pooled* attempt (worker death, per-attempt timeout,
    poisoned result, worker exception) is retried up to ``retries``
    times with exponential backoff (``backoff_s * 2**k``), then — when
    ``fallback`` is on — re-executed deterministically in-process, so
    a transiently faulty pool still returns rows byte-identical to the
    sequential mode.  Only when all of that is exhausted does the run
    raise :class:`ShardFailure`.
    """

    retries: int = 2
    backoff_s: float = 0.05
    #: Per-attempt wall-clock limit (None = no per-shard timeout; the
    #: query deadline, when set, still bounds the whole run).
    shard_timeout_s: Optional[float] = None
    fallback: bool = True

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ValueError(
                f"backoff_s must be >= 0, got {self.backoff_s}"
            )
        if self.shard_timeout_s is not None and self.shard_timeout_s <= 0:
            raise ValueError(
                f"shard_timeout_s must be positive, got "
                f"{self.shard_timeout_s}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based retry index)."""
        return self.backoff_s * (2 ** max(0, attempt - 1))


DEFAULT_RETRY_POLICY = RetryPolicy()


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------


class CircuitBreaker:
    """Trips open after ``threshold`` consecutive pool-attempt failures.

    Owned by the session (failures accumulate *across* queries — a
    flaky pool shows up as a drizzle, not a burst); once open, the
    session downgrades pooled plans to ``workers=0`` with the recorded
    reason, trading parallelism for certainty.  The breaker stays open
    until :meth:`reset` — a degraded host rarely heals mid-session,
    and the in-process mode is always correct.
    """

    def __init__(self, threshold: int = 5) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.threshold = threshold
        self.consecutive_failures = 0
        self.trips = 0
        self.reason: Optional[str] = None
        self._open = False

    @property
    def open(self) -> bool:
        return self._open

    def allow_pool(self) -> bool:
        """May the next run use a worker pool?"""
        return not self._open

    def record_success(self) -> None:
        if not self._open:
            self.consecutive_failures = 0

    def record_failure(self, reason: str) -> None:
        self.consecutive_failures += 1
        if not self._open and self.consecutive_failures >= self.threshold:
            self._open = True
            self.trips += 1
            self.reason = (
                f"{self.consecutive_failures} consecutive pool failures "
                f"(last: {reason})"
            )

    def reset(self) -> None:
        self._open = False
        self.consecutive_failures = 0
        self.reason = None

    def stats(self) -> Dict[str, object]:
        return {
            "open": self._open,
            "trips": self.trips,
            "consecutive_failures": self.consecutive_failures,
            "threshold": self.threshold,
            "reason": self.reason or "",
        }

    def __repr__(self) -> str:
        state = "open" if self._open else "closed"
        return (
            f"CircuitBreaker({state}, "
            f"failures={self.consecutive_failures}/{self.threshold})"
        )


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------


@dataclass
class ResilienceStats:
    """Plain counters the supervisor increments (session-cumulative).

    Exported under ``execution.resilience`` in the unified stats tree
    and mirrored into native Prometheus counters per query (see
    ``Session._observe_resilience``).
    """

    attempts: int = 0
    retries: int = 0
    worker_deaths: int = 0
    timeouts: int = 0
    poisoned: int = 0
    worker_errors: int = 0
    fallbacks: int = 0
    shards_discarded: int = 0
    downgrades: int = 0
    #: retries by fault kind, e.g. {"crash": 3, "timeout": 1}.
    retries_by_fault: Dict[str, int] = field(default_factory=dict)

    def record_retry(self, fault: str) -> None:
        self.retries += 1
        self.retries_by_fault[fault] = (
            self.retries_by_fault.get(fault, 0) + 1
        )

    def snapshot(self) -> Dict[str, int]:
        flat = {
            "attempts": self.attempts,
            "retries": self.retries,
            "worker_deaths": self.worker_deaths,
            "timeouts": self.timeouts,
            "poisoned": self.poisoned,
            "worker_errors": self.worker_errors,
            "fallbacks": self.fallbacks,
            "shards_discarded": self.shards_discarded,
            "downgrades": self.downgrades,
        }
        for fault, count in sorted(self.retries_by_fault.items()):
            flat[f"retries_{fault}"] = count
        return flat

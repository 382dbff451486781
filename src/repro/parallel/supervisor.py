"""Supervised shard execution: retries, timeouts, fallback, breaker.

The :class:`ShardSupervisor` is the only code in the package that
starts worker processes: sharded joins (``executor.run_sharded``) and
sharded certificate runs (``certify.certify_sharded``) both hand it
their payloads and a per-shard runner.  A bare ``multiprocessing.Pool``
stalls or dies with one dead worker (OOM kill, segfault, interpreter
crash), with no retry and no diagnosis; the supervisor runs one
supervised process per shard *attempt* instead:

* **Death detection** — each attempt reports through its own
  ``Pipe``; a worker that exits without sending (its pipe end closing
  wakes the driver immediately) is a detected crash, not a hang.
* **Timeouts** — an optional per-attempt wall limit
  (:class:`~repro.core.resilience.RetryPolicy.shard_timeout_s`) and
  the query-wide admission deadline are both enforced by the driver
  with ``terminate()`` — a hung worker cannot outlive either.
* **Bounded retries with exponential backoff** — a failed attempt
  (crash, timeout, poisoned result, worker exception) is re-dispatched
  up to ``retries`` times; then the shard is re-executed
  **in-process** (the deterministic fallback — the same runner the
  sequential mode runs, so results stay byte-identical).  Only when
  all of that fails does the run raise a structured
  :class:`~repro.core.resilience.ShardFailure`.
* **Result validation** — a shard's rows must lead within its
  ``[lo, hi]`` range and be ordered; a poisoned result is treated as a
  failed attempt, never silently merged.
* **Circuit breaker** — pool-attempt outcomes feed the session's
  :class:`~repro.core.resilience.CircuitBreaker`; repeated failures
  trip it and the *next* query runs ``workers=0``.

The supervisor also runs the ``workers=0`` mode (sequential in-process
attempts) through the same retry/fallback policy, so the fault
injection suite can traverse every resilience code path — including
the ``shard.dispatch`` / ``shard.merge`` / ``shard.retry`` /
``shard.fallback`` crash points — without spawning a single process.
With no faults armed, an in-process run is exactly one attempt per
shard: byte-identical rows and op counts to the pre-resilience
executor, which the parity tests pin.

Worker-raised :class:`~repro.core.resilience.ExecutionError` subclasses
(a shard's cooperative deadline, a budget trip), ``InjectedCrash``
(crash-point parity), and ``KeyboardInterrupt`` re-raise immediately —
retrying a policy abort would only delay it.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from multiprocessing.connection import Connection, wait as connection_wait
from multiprocessing.process import BaseProcess
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.engine import ExecSpec
from repro.core.resilience import (
    AdmittedQuery,
    CircuitBreaker,
    ExecutionError,
    QueryTimeout,
    ResilienceStats,
    RetryPolicy,
    ShardFailure,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.planner import Shard
from repro.storage.relation import Relation
from repro.testing.faults import (
    InjectedCrash,
    InjectedWorkerFault,
    WorkerFault,
    apply_worker_fault,
    claim_worker_fault,
    crashpoint,
    install_from_env,
    poison_result,
)

Row = Tuple[int, ...]


class ShardPayload(NamedTuple):
    """What one worker needs to run one shard — all plain picklable data."""

    relations: List[Relation]
    #: The run's resolved spec, shipped unchanged to every shard.
    spec: ExecSpec
    #: Whether the shard tallies into real counters or ``NullCounters``.
    count: bool
    #: The shard's leading-attribute range (result validation +
    #: cooperative checks).
    lo: int
    hi: int
    #: Remaining query deadline fraction (None = unbounded).
    deadline_s: Optional[float]


#: One completed shard: its rows and what the runner reports beside
#: them — per-shard counters for a join, a ``ShardCertificate`` for a
#: certificate run.  Only the rows are validated; the second element
#: passes through untouched.
ShardResult = Tuple[List[Row], Any]

#: The per-shard runner (``executor._run_shard`` or
#: ``certify._certify_shard``), injected so this module never imports
#: its callers (which import it).
RunShard = Callable[[ShardPayload], ShardResult]


def _attempt_main(
    run_shard: RunShard,
    payload: ShardPayload,
    fault: Optional[WorkerFault],
    lo: int,
    arity: int,
    conn: Connection,
) -> None:
    """Pool-worker entry for one shard attempt.

    Sends ``("ok", rows, extra)`` or ``("err", exc)`` through the
    pipe; an armed ``crash`` fault (or a real death) sends nothing —
    the closed pipe end is the driver's signal.  ``install_from_env``
    re-arms env-configured crash points under spawn start methods
    (fork inherits the parent's injector anyway).
    """
    install_from_env()
    try:
        apply_worker_fault(fault, in_pool_worker=True)
        rows, extra = run_shard(payload)
        rows = poison_result(fault, rows, lo, arity)
        conn.send(("ok", rows, extra))
    except BaseException as exc:  # classified driver-side
        try:
            conn.send(("err", exc))
        except Exception:
            # Unpicklable exception: ship a description instead.
            conn.send(("err", RuntimeError(repr(exc))))
    finally:
        conn.close()


def _valid_result(rows: List[Row], shard: Shard) -> bool:
    """Sentinel check against poisoned results: a shard's rows must
    lead within its range and be ordered (O(1) — first/last row)."""
    if not rows:
        return True
    first, last = rows[0], rows[-1]
    return (
        shard.lo <= first[0] <= shard.hi
        and shard.lo <= last[0] <= shard.hi
        and first <= last
    )


class _Attempt(NamedTuple):
    """One live pooled attempt: process, pipe, and its wall deadline."""

    index: int
    attempt: int
    proc: BaseProcess
    conn: Connection
    started: float
    deadline: Optional[float]


class ShardSupervisor:
    """Run shard payloads under a retry/timeout/fallback policy.

    :meth:`results` yields each shard's :data:`ShardResult` in plan
    order; the caller merges and may abandon the generator (an early
    ``limit`` exit of ``run_sharded``) — :meth:`shutdown` then reaps
    every live child.  ``workers=0`` runs attempts sequentially
    in-process under the same policy (no processes, no pipes).
    """

    def __init__(
        self,
        run_shard: RunShard,
        payloads: List[ShardPayload],
        plan: List[Shard],
        workers: int,
        policy: Optional[RetryPolicy] = None,
        admission: Optional[AdmittedQuery] = None,
        stats: Optional[ResilienceStats] = None,
        breaker: Optional[CircuitBreaker] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.run_shard = run_shard
        self.payloads = payloads
        self.plan = plan
        self.workers = workers
        self.policy = policy if policy is not None else RetryPolicy()
        self.admission = admission
        self.stats = stats if stats is not None else ResilienceStats()
        self.breaker = breaker
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._live: Dict[int, _Attempt] = {}
        self._attempts_used: Dict[int, int] = {}
        self._faults_seen: Dict[int, List[str]] = {}
        self._done: Dict[int, ShardResult] = {}
        self.consumed = 0

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    def results(self) -> Iterator[ShardResult]:
        """Yield shard results in plan order (see class docstring)."""
        try:
            if self.workers:
                yield from self._pooled_results()
            else:
                yield from self._inline_results()
        except BaseException:
            self.shutdown()
            raise

    def shutdown(self) -> None:
        """Terminate and reap every live child (idempotent)."""
        for state in list(self._live.values()):
            self._reap(state)

    def _reap(self, state: _Attempt) -> None:
        """Stop one attempt's process and close its pipe: terminate it
        if it still runs, kill a straggler, join it either way."""
        self._live.pop(state.index, None)
        proc = state.proc
        if proc.is_alive():
            proc.terminate()
        proc.join(timeout=2.0)
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=2.0)
        state.conn.close()

    # ------------------------------------------------------------------
    # In-process mode (workers=0) — same policy, no processes
    # ------------------------------------------------------------------

    def _inline_results(self) -> Iterator[ShardResult]:
        for index in range(len(self.payloads)):
            result = self._run_inline_with_policy(index)
            crashpoint("shard.merge")
            self.consumed += 1
            yield result

    def _run_inline_with_policy(self, index: int) -> ShardResult:
        policy = self.policy
        faults: List[str] = []
        for attempt in range(1, policy.retries + 2):
            if attempt > 1:
                crashpoint("shard.retry")
                backoff = policy.backoff_for(attempt - 1)
                self.stats.record_retry(faults[-1])
                if backoff:
                    time.sleep(backoff)
            crashpoint("shard.dispatch")
            self.stats.attempts += 1
            started = time.monotonic()  # lint: disable=determinism -- reporting-only timing; never feeds results
            try:
                result = self._attempt_inline(index)
            except InjectedWorkerFault as exc:
                # Only *injected* faults are retryable inline — a real
                # engine error in the driver's own process is
                # deterministic and propagates unchanged, exactly as
                # the pre-supervisor sequential mode behaved.
                faults.append(exc.kind)
                self.stats.worker_errors += 1
                self._record_attempt(
                    index, attempt, started, "fault:" + exc.kind
                )
                continue
            if result is None:
                faults.append("poison")
                self.stats.poisoned += 1
                self._record_attempt(index, attempt, started, "poison")
                continue
            self._record_attempt(index, attempt, started, "ok")
            return result
        return self._fallback(index, faults, None)

    def _attempt_inline(self, index: int) -> Optional[ShardResult]:
        """One in-process attempt: claim an armed fault, fire it, run
        the shard, let a ``poison`` fault corrupt the rows; ``None``
        when the result fails validation.  Whatever the attempt raises
        propagates — each caller classifies it."""
        payload = self.payloads[index]
        shard = self.plan[index]
        fault = claim_worker_fault(pooled=False)
        apply_worker_fault(fault, in_pool_worker=False)
        rows, extra = self.run_shard(payload)
        rows = poison_result(fault, rows, shard.lo, len(payload.spec.gao))
        return (rows, extra) if _valid_result(rows, shard) else None

    # ------------------------------------------------------------------
    # Pooled mode — one supervised process per attempt
    # ------------------------------------------------------------------

    def _pooled_results(self) -> Iterator[ShardResult]:
        n = len(self.payloads)
        pending: Deque[int] = deque(range(n))
        next_yield = 0
        window = min(self.workers, n)
        while next_yield < n:
            while pending and len(self._live) < window:
                self._dispatch(pending.popleft())
            if self._live:
                self._wait_and_classify(pending)
            while next_yield in self._done:
                crashpoint("shard.merge")
                result = self._done.pop(next_yield)
                self.consumed += 1
                next_yield += 1
                yield result
        self.shutdown()

    def _dispatch(self, index: int) -> None:
        crashpoint("shard.dispatch")
        attempt = self._attempts_used.get(index, 0) + 1
        self._attempts_used[index] = attempt
        self.stats.attempts += 1
        shard = self.plan[index]
        fault = claim_worker_fault(pooled=True)
        ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_attempt_main,
            args=(
                self.run_shard,
                self.payloads[index],
                fault,
                shard.lo,
                len(self.payloads[index].spec.gao),
                child_conn,
            ),
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the worker holds the only write end now
        started = time.monotonic()  # lint: disable=determinism -- reporting-only timing; never feeds results
        deadline = None
        if self.policy.shard_timeout_s is not None:
            deadline = started + self.policy.shard_timeout_s
        self._live[index] = _Attempt(
            index, attempt, proc, parent_conn, started, deadline
        )

    def _wait_and_classify(self, pending: Deque[int]) -> None:
        """One supervision step: wait for results, deaths, timeouts."""
        admission = self.admission
        if admission is not None and admission.expired():
            assert admission.budget.deadline_ms is not None
            raise QueryTimeout(
                admission.budget.deadline_ms / 1000.0, "supervisor"
            )
        now = time.monotonic()  # lint: disable=determinism -- reporting-only timing; never feeds results
        horizon = now + 1.0
        for state in self._live.values():
            if state.deadline is not None:
                horizon = min(horizon, state.deadline)
        if admission is not None and admission.deadline is not None:
            horizon = min(horizon, admission.deadline)
        timeout = max(0.0, horizon - now)
        ready = connection_wait(
            [state.conn for state in self._live.values()], timeout=timeout
        )
        # ``connection_wait`` returns the same objects it was given.
        by_conn: Dict[int, _Attempt] = {
            id(state.conn): state for state in self._live.values()
        }
        for conn in ready:
            state = by_conn.get(id(conn))
            if state is not None and state.index in self._live:
                self._classify_ready(state, pending)
        self._reap_timeouts(pending)

    def _classify_ready(
        self, state: _Attempt, pending: Deque[int]
    ) -> None:
        try:
            message = state.conn.recv()
        except (EOFError, OSError):
            # Pipe closed with no message: the worker died abruptly.
            self._reap(state)
            self.stats.worker_deaths += 1
            self._attempt_failed(state, "crash", pending)
            return
        self._reap(state)
        kind = message[0]
        if kind == "ok":
            rows, extra = message[1], message[2]
            if not _valid_result(rows, self.plan[state.index]):
                self.stats.poisoned += 1
                self._attempt_failed(state, "poison", pending)
                return
            self._record_attempt(
                state.index, state.attempt, state.started, "ok"
            )
            if self.breaker is not None:
                self.breaker.record_success()
            self._done[state.index] = (rows, extra)
            return
        exc = message[1]
        if isinstance(exc, KeyboardInterrupt):
            raise KeyboardInterrupt()
        if isinstance(exc, (ExecutionError, InjectedCrash)):
            # Policy aborts and injected crash points propagate with
            # their type intact — retrying would not change them.
            raise exc
        self.stats.worker_errors += 1
        self._attempt_failed(state, "error", pending, detail=repr(exc))

    def _reap_timeouts(self, pending: Deque[int]) -> None:
        now = time.monotonic()  # lint: disable=determinism -- reporting-only timing; never feeds results
        for state in list(self._live.values()):
            if state.deadline is not None and now > state.deadline:
                if state.conn.poll():
                    # Result arrived while we were reaping; let the
                    # next wait round classify it normally.
                    continue
                self._reap(state)
                self.stats.timeouts += 1
                self._attempt_failed(state, "timeout", pending)

    def _attempt_failed(
        self,
        state: _Attempt,
        fault: str,
        pending: Deque[int],
        detail: str = "",
    ) -> None:
        index = state.index
        self._faults_seen.setdefault(index, []).append(fault)
        self._record_attempt(
            index, state.attempt, state.started, fault, detail=detail
        )
        if self.breaker is not None:
            self.breaker.record_failure(fault)
        if state.attempt <= self.policy.retries:
            crashpoint("shard.retry")
            self.stats.record_retry(fault)
            backoff = self.policy.backoff_for(state.attempt)
            if backoff:
                time.sleep(backoff)
            pending.appendleft(index)
            return
        self._done[index] = self._fallback(
            index, self._faults_seen[index], detail or None
        )

    def _fallback(
        self,
        index: int,
        faults: List[str],
        detail: Optional[str],
    ) -> ShardResult:
        """Deterministic in-process re-execution, the last resort."""
        shard = self.plan[index]
        attempts = self._attempts_used.get(
            index, self.policy.retries + 1
        )
        if not self.policy.fallback:
            raise ShardFailure(
                index, shard.lo, shard.hi, attempts, faults,
                detail or "retries exhausted; fallback disabled",
            )
        crashpoint("shard.fallback")
        self.stats.fallbacks += 1
        self.stats.attempts += 1
        started = time.monotonic()  # lint: disable=determinism -- reporting-only timing; never feeds results
        try:
            result = self._attempt_inline(index)
        except (InjectedCrash, ExecutionError):
            raise
        except Exception as exc:
            self._record_attempt(
                index, attempts + 1, started, "fallback-failed"
            )
            raise ShardFailure(
                index, shard.lo, shard.hi, attempts + 1,
                faults + ["fallback"], repr(exc),
            ) from exc
        if result is None:
            self.stats.poisoned += 1
            raise ShardFailure(
                index, shard.lo, shard.hi, attempts + 1,
                faults + ["poison"], "fallback result failed validation",
            )
        self._record_attempt(index, attempts + 1, started, "fallback-ok")
        return result

    def _record_attempt(
        self,
        index: int,
        attempt: int,
        started: float,
        outcome: str,
        detail: str = "",
    ) -> None:
        """One closed ``shard.attempt`` span per attempt (observability
        only; recorded after the fact so strict span nesting holds no
        matter which shard's span is currently open)."""
        if not self.tracer.enabled:
            return
        seconds = time.monotonic() - started  # lint: disable=determinism -- reporting-only timing; never feeds results
        backoff_ms = 0.0
        if outcome not in ("ok", "fallback-ok") and (
            attempt <= self.policy.retries
        ):
            backoff_ms = self.policy.backoff_for(attempt) * 1000.0
        attrs: Dict[str, object] = {
            "index": index,
            "attempt": attempt,
            "outcome": outcome,
            "backoff_ms": backoff_ms,
        }
        if detail:
            attrs["detail"] = detail
        self.tracer.record_span("shard.attempt", seconds, **attrs)

"""Sharded Minesweeper execution: a pool of per-range engines.

Each shard of a :func:`repro.parallel.planner.plan_shards` plan is an
independent Minesweeper instance over the sliced relations; the
executor runs them either

* **in-process** (``workers=0``) — the deterministic sequential mode:
  shards run one after another on this interpreter, byte-identical to
  the pooled run (same plan, same per-shard engines), so tests can
  assert op-count parity without multiprocessing in the loop; or
* **pooled** (``workers >= 1``) — one supervised ``multiprocessing``
  process per shard attempt (see
  :class:`~repro.parallel.supervisor.ShardSupervisor`: death
  detection, per-attempt timeouts, bounded retries with backoff, and a
  deterministic in-process fallback).  Payloads are the sliced
  relations themselves: the FlatTrie CSR arrays are plain lists and
  pickle cheaply, so workers deserialize ready-built indexes instead
  of rebuilding tries.

Per-shard :class:`~repro.util.counters.OpCounters` tallies are merged
with ``OpCounters.merge``; the merged tally is identical between the
two modes.  Shard outputs are GAO-ordered within each range and ranges
are ascending and disjoint, so concatenation in plan order *is* the
global GAO order — results are invariant in the shard count and in the
worker count.

Note the merged tally is the cost of the *plan*, not of the unsharded
run: each shard pays a couple of boundary probes, and gaps discovered
in relations that do not contain the leading attribute (shared across
the whole domain in a single sequential run) are rediscovered once per
shard.

Admission control (:class:`~repro.core.resilience.QueryBudget`)
threads through here: the driver checks ops/rows/deadline after every
shard merge, and each payload ships the remaining deadline fraction so
pool workers cancel themselves cooperatively mid-shard.
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.engine import ExecSpec, stream_rows
from repro.core.query import PreparedQuery
from repro.core.resilience import (
    AdmittedQuery,
    CircuitBreaker,
    QueryBudget,
    ResilienceStats,
    RetryPolicy,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.planner import Shard, plan_and_slice
from repro.parallel.supervisor import (
    ShardPayload,
    ShardResult,
    ShardSupervisor,
)
from repro.storage.relation import Relation
from repro.util.counters import NullCounters, OpCounters

Row = Tuple[int, ...]


class ShardedRun(NamedTuple):
    """What :func:`run_sharded` returns (unpacks like the old tuple,
    plus the early-exit discard count)."""

    rows: List[Row]
    counters: OpCounters
    shards_run: int
    #: Planned shards whose results were never merged because an early
    #: ``limit`` exit stopped consumption first (pooled: possibly
    #: in-flight and terminated; in-process: never started).
    shards_discarded: int


def _run_shard(payload: ShardPayload) -> ShardResult:
    """Run one shard to completion (executed inside a supervised pool
    worker, or inline for the ``workers=0`` sequential mode and the
    supervisor's deterministic fallback)."""
    counters = OpCounters() if payload.count else NullCounters()
    for r in payload.relations:
        r.rebind_counters(counters)
    prepared = PreparedQuery(payload.relations, payload.spec.gao, counters)
    admission = None
    if payload.deadline_s is not None:
        # Re-pin the shipped deadline fraction to this process's clock:
        # the worker cancels itself cooperatively from the engine loop.
        admission = QueryBudget(
            deadline_ms=max(1, int(payload.deadline_s * 1000))
        ).admit()
    return list(stream_rows(prepared, payload.spec, admission)), counters


def plan_payloads(
    relations: Sequence[Relation],
    spec: ExecSpec,
    count: bool,
    admission: Optional[AdmittedQuery] = None,
) -> Tuple[List[Shard], List[ShardPayload]]:
    """The shard plan of ``spec`` over ``relations`` and one payload
    per shard, each carrying the unchanged ``spec`` and the remaining
    deadline fraction of ``admission``."""
    plan, slices = plan_and_slice(relations, spec.gao[0], spec.shards or 1)
    deadline_s = admission.remaining_s() if admission is not None else None
    return plan, [
        ShardPayload(shard_rels, spec, count, shard.lo, shard.hi, deadline_s)
        for shard, shard_rels in zip(plan, slices)
    ]


def run_sharded(
    relations: Sequence[Relation],
    spec: ExecSpec,
    counters: OpCounters,
    tracer: Optional[Tracer] = None,
    admission: Optional[AdmittedQuery] = None,
    retry_policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    resilience: Optional[ResilienceStats] = None,
) -> ShardedRun:
    """Plan, execute, and merge a sharded run over prepared relations.

    ``spec`` must be resolved (:meth:`ExecSpec.resolve`) and
    ``relations`` already indexed consistently with ``spec.gao`` — the
    caller, :func:`repro.core.engine.run_join`, guarantees both; the
    spec is shipped unchanged to every shard, so all of them (and the
    unsharded engine) agree on GAO and strategy.  Returns a
    :class:`ShardedRun`; ``rows`` are in global GAO order and
    ``counters`` is the provided counters object with every shard's
    tally merged in.  ``spec.workers == 0`` runs the shards
    sequentially in-process; the merged rows and counters are identical
    either way.

    Under ``spec.limit``, shard results are consumed in plan (range)
    order and consumption stops as soon as the global prefix is full,
    so the merged counters reflect only the shards whose certificate
    was actually consumed — in both modes (a pool may have later shards
    in flight when consumption stops; their work is terminated,
    discarded untallied, and counted in ``shards_discarded``).

    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records one child
    span per shard consumed.  In-process the span brackets the shard's
    actual engine run; pooled, the driver cannot observe the worker's
    clock, so the span brackets the wait for that shard's result to
    arrive in plan order (attribute ``mode=pooled`` marks the
    distinction).  Rows and op counts are invariant in the tracer — it
    only ever reads the clock.

    ``admission`` / ``retry_policy`` / ``breaker`` / ``resilience``
    are the resilience plumbing (see :mod:`repro.core.resilience`):
    budget checks run after every shard merge, the retry policy
    governs failed pooled attempts, and attempt outcomes feed the
    breaker and the stats object.
    """
    if tracer is None:
        tracer = NULL_TRACER
    limit, workers = spec.limit, spec.workers or 0
    plan, payloads = plan_payloads(
        relations, spec, counters.enabled, admission
    )
    if limit == 0 or not plan:
        # Nothing to run: limit=0 consumes no certificate at all, and an
        # empty leading domain proves emptiness from the stored tries
        # alone (an output value must occur in some leading relation).
        return ShardedRun([], counters, len(plan), 0)
    rows: List[Row] = []
    stats = resilience if resilience is not None else ResilienceStats()
    supervisor = ShardSupervisor(
        _run_shard,
        payloads,
        plan,
        workers,
        policy=retry_policy,
        admission=admission,
        stats=stats,
        breaker=breaker,
        tracer=tracer,
    )
    mode = "pooled" if workers else "in-process"

    def consume(results: Iterator[ShardResult]) -> bool:
        """Merge results in plan order; True once ``limit`` is reached.

        Each shard is pulled *inside* its span, so in-process mode
        times the shard's actual engine run (the generator is lazy)
        and pooled mode times the plan-order wait for that worker.
        """
        for index, shard in enumerate(plan):
            with tracer.span(
                "shard", index=index, lo=shard.lo, hi=shard.hi, mode=mode
            ) as span:
                shard_rows, shard_counters = next(results)
                rows.extend(shard_rows)
                counters.merge(shard_counters)
                span.set("rows", len(shard_rows))
                span.set_ops(shard_counters.snapshot())
            if admission is not None:
                admission.check_ops(
                    counters.interval_ops + counters.constraints
                )
                admission.check_rows(len(rows))
                admission.check_deadline("driver")
            if limit is not None and len(rows) >= limit:
                return True
        return False

    try:
        consume(supervisor.results())
    finally:
        supervisor.shutdown()
    discarded = len(payloads) - supervisor.consumed
    if discarded:
        stats.shards_discarded += discarded
        tracer.record_span(
            "shard.early_exit", 0.0, shards_discarded=discarded
        )
    # In-process shard runs rebind the pass-through relations' counters;
    # leave every original relation tallying into the merged object, not
    # a discarded per-shard one.
    for r in relations:
        r.rebind_counters(counters)
    if limit is not None:
        rows = rows[:limit]
    return ShardedRun(rows, counters, len(payloads), discarded)


__all__ = ["ShardPayload", "ShardedRun", "plan_payloads", "run_sharded"]

"""The serving session: prepared statements over a live catalog.

A :class:`Session` wires the three query-subsystem layers together:
text in (:mod:`repro.lang`), plan resolution through the
:class:`~repro.planner.cache.PlanCache` (:mod:`repro.planner`), and
execution against the catalog's live relations.  The session owns

* the plan cache — a second execution of the same query text (or any
  renaming of it) skips planning entirely, and keeps skipping it
  across writes: every GAO is a correct plan, so an entry is rebuilt
  only when its data has drifted (see :mod:`repro.planner.cache`);
* per-session stats — queries served, cache hit/miss/coalesced/drift
  counts, planner call counters, and cumulative engine op counters;
* aggregate evaluation that avoids materializing the full join output
  where the plan allows: every plan's rows arrive as one stream
  (:func:`~repro.planner.planner.engine_rows`), ``COUNT`` tallies it
  without storing it, and ``MIN`` of the leading GAO attribute stops
  after the first streamed row.  Minesweeper, generic join and the
  triangle engine yield rows as they find them, so an early stop ends
  their work too (the §6.3 top-k property); Yannakakis and a sharded
  Minesweeper plan finish their run before the first row.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.engine import run_join
from repro.core.resilience import (
    AdmittedQuery,
    CircuitBreaker,
    QueryBudget,
    ResilienceStats,
    RetryPolicy,
    admit,
)
from repro.dynamic.catalog import Catalog
from repro.lang.ast import Aggregate, QueryStatement
from repro.lang.lower import LoweredQuery, lower, validate
from repro.lang.parser import parse
from repro.obs import NULL_OBS, unified_stats
from repro.planner.cache import (
    BUILT_ORIGINS,
    ORIGIN_CACHED,
    ORIGIN_PLANNED,
    ORIGIN_REFRESHED,
    PlanCache,
)
from repro.planner.plan import ENGINE_MINESWEEPER, Plan
from repro.planner.planner import Planner, PlannerConfig, engine_rows
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


@dataclass
class ExecResult:
    """One query execution: rows (or an aggregate), plan, and cost."""

    statement: QueryStatement
    plan: Plan
    #: Result column names: head variables, or the aggregate label.
    columns: Tuple[str, ...]
    #: Result rows, sorted; for aggregates, one row holding the value
    #: (empty for MIN/MAX over an empty join — the SQL NULL analogue).
    rows: List[Row] = field(default_factory=list)
    #: The aggregate value, when the head is an aggregate.
    value: Optional[int] = None
    #: How the plan was come by — one of the ``ORIGIN_*`` strings of
    #: :mod:`repro.planner.cache`.
    plan_origin: str = ORIGIN_PLANNED
    #: Op-counter snapshot for this execution only.
    ops: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0
    #: The root :class:`~repro.obs.trace.Span` of this execution when
    #: the session was tracing, else ``None`` (render with
    #: :func:`repro.obs.render_tree` — the ``--trace`` stage tree).
    trace: Optional[object] = None

    @property
    def cached_plan(self) -> bool:
        """True when this execution skipped planning: the plan came
        from the cache, or from another reader's build it coalesced
        onto."""
        return self.plan_origin not in BUILT_ORIGINS

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def plan_summary(self) -> str:
        """``plan.knobs()`` rendered in this statement's variable names."""
        return self.plan.knobs(self.statement.canonical_rename())

    def __repr__(self) -> str:
        what = (
            f"{self.columns[0]}={self.value}"
            if self.statement.is_aggregate()
            else f"{len(self.rows)} rows"
        )
        return (
            f"ExecResult({what}, plan={self.plan_summary()}, "
            f"cached={self.cached_plan})"
        )


@dataclass
class PreparedStatement:
    """A parsed + schema-validated statement bound to a session."""

    session: "Session"
    statement: QueryStatement
    signature: str

    def execute(self) -> ExecResult:
        return self.session._execute_statement(
            self.statement, self.signature
        )

    def plan(self) -> Tuple[Plan, bool]:
        """(plan, planning_skipped) against the catalog's current data."""
        plan, origin = self.session._plan_for(self.statement, self.signature)
        return plan, origin not in BUILT_ORIGINS

    def explain(self) -> str:
        """The plan report, its age, and where the plan came from.

        A surviving plan's evidence describes the data as of plan
        time, so the report carries the generation and cardinalities
        then and now; the Minesweeper board a plan never scored (a
        structural pick, or a triangle-shaped query's measured pick) is
        scored here, against the current data.
        """
        session, statement = self.session, self.statement
        plan, origin = session._plan_for(statement, self.signature)
        comparison = (
            session.planner.comparison_board(
                lower(statement.canonicalize(), session.catalog)
            )
            if all(c.engine != ENGINE_MINESWEEPER for c in plan.scoreboard)
            else ()
        )
        # Render in the statement's own variable names, not the
        # canonical v0/v1/... the cached plan is stored in.
        report = plan.explain(
            statement.canonical_rename(),
            comparison=comparison,
            generation=session.catalog.generation,
            sizes=session._sizes(statement),
        )
        return f"{report}\nplan origin      : {origin}"

    def __repr__(self) -> str:
        return f"PreparedStatement({self.statement.unparse()!r})"


class Session:
    """Prepared-statement serving over a (possibly shared) catalog."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        config: Optional[PlannerConfig] = None,
        cache_capacity: int = 256,
        obs=None,
        budget: Optional[QueryBudget] = None,
        retry_policy: Optional[RetryPolicy] = None,
        plan_cache: Optional[PlanCache] = None,
        owns_wal: bool = True,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self.planner = Planner(config)
        #: The plan cache — private by default; the serving layer
        #: (``repro.net``) injects a shared, tenant-scoped view of one
        #: process-wide cache instead (PlanCache is lock-guarded, so
        #: sharing across sessions is sound).
        self.cache = (
            plan_cache if plan_cache is not None
            else PlanCache(cache_capacity)
        )
        #: Cumulative engine ops across every execution in the session.
        self.counters = OpCounters()
        self.queries_executed = 0
        self.statements_prepared = 0
        #: Per-statement admission budget — every execute() admits the
        #: statement against a fresh :class:`AdmittedQuery` carved from
        #: this budget (None / unbounded = no admission checks).
        self.budget = budget
        #: Retry/timeout/backoff policy the sharded supervisor runs
        #: under (None = :data:`DEFAULT_RETRY_POLICY`).
        self.retry_policy = retry_policy
        #: Pool-health circuit breaker: repeated pooled shard failures
        #: trip it and the session downgrades to ``workers=0``.
        self.breaker = CircuitBreaker()
        #: Cumulative supervisor counters (attempts, retries, deaths,
        #: timeouts, fallbacks, downgrades ...) across the session.
        self.resilience = ResilienceStats()
        #: The :class:`~repro.dynamic.durable.RecoveryReport` when the
        #: session was opened with :meth:`durable`, else ``None``.
        self.recovery = None
        #: The attached :class:`~repro.obs.Observability` (NULL_OBS
        #: when un-instrumented — the free path).
        self.obs = NULL_OBS
        #: False for pooled sessions over a tenant-owned catalog: the
        #: tenant (not any one session) instruments the catalog and
        #: closes the shared WAL.
        self._owns_wal = owns_wal
        self._closed = False
        self.attach_obs(obs if obs is not None else NULL_OBS)

    def attach_obs(self, obs) -> None:
        """Attach an observability bundle to every layer the session
        owns: the planner (candidate-scoring spans), the catalog
        (batch/flush/compact/snapshot spans and histograms), and the
        catalog's WAL when durable (append/fsync timings).  A session
        over someone else's catalog (``owns_wal=False``) leaves the
        catalog and WAL bound to their owner's bundle: mutations run
        on the owner's threads, not on this session's tracer."""
        self.obs = obs
        self.planner.tracer = obs.tracer
        if self._owns_wal:
            self.catalog.bind_obs(obs)

    @classmethod
    def durable(
        cls,
        data_dir: str,
        config: Optional[PlannerConfig] = None,
        cache_capacity: int = 256,
        fsync: str = "batch",
        verify: bool = True,
        obs=None,
        budget: Optional[QueryBudget] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> "Session":
        """A session over a crash-recoverable catalog at ``data_dir``.

        Recovers whatever the directory holds (newest valid snapshot +
        WAL replay; an empty directory is a fresh catalog) and keeps
        the WAL attached, so every mutation this session applies is
        durable.  Inspect ``session.recovery`` for what recovery did;
        call :meth:`close` (or ``catalog.snapshot()`` first) when done.
        """
        from repro.dynamic.durable import open_catalog

        catalog, recovery = open_catalog(
            data_dir,
            fsync=fsync,
            verify=verify,
        )
        session = cls(
            catalog, config=config, cache_capacity=cache_capacity, obs=obs,
            budget=budget, retry_policy=retry_policy,
        )
        session.recovery = recovery
        if session.obs.enabled:
            # Recovery ran before the tracer attached; bridge its
            # measured duration in as a synthetic closed span plus a
            # histogram sample, so durable startups are on the books.
            session.obs.tracer.record_span(
                "recover",
                recovery.seconds,
                records_replayed=recovery.records_replayed,
                snapshot_id=recovery.snapshot_id,
                last_lsn=recovery.last_lsn,
            )
            session.obs.metrics.histogram(
                "recovery_seconds",
                "Durable-catalog recovery wall time.",
            ).observe(recovery.seconds)
        return session

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return self._closed

    def close(self) -> None:
        """Flush and close the attached WAL (no-op when not durable).

        Idempotent: a second ``close()`` does nothing, so the serving
        pool can discard a session on request failure without tracking
        whether anything closed it first.  Sessions constructed with
        ``owns_wal=False`` (pooled sessions over a tenant-owned
        catalog) never close the shared WAL — the tenant does.
        """
        if self._closed:
            return
        self._closed = True
        if not self._owns_wal:
            return
        wal = self.catalog.wal
        if wal is not None:
            wal.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The prepare / execute surface
    # ------------------------------------------------------------------

    def prepare(self, text: str) -> PreparedStatement:
        """Parse and schema-validate; planning is deferred to execute
        time (the data may drift in between)."""
        statement = parse(text)
        validate(statement, self.catalog)
        self.statements_prepared += 1
        return PreparedStatement(self, statement, statement.signature())

    def execute(
        self, query: Union[str, PreparedStatement]
    ) -> ExecResult:
        """Run a query text (or a prepared statement) to completion."""
        if isinstance(query, PreparedStatement):
            return query.execute()
        statement = parse(query)
        validate(statement, self.catalog)
        return self._execute_statement(statement, statement.signature())

    def explain(self, text: str) -> str:
        """The plan report for a query text (no execution)."""
        return self.prepare(text).explain()

    # ------------------------------------------------------------------
    # Plan resolution
    # ------------------------------------------------------------------

    def _sizes(self, statement: QueryStatement) -> Dict[str, int]:
        """Current row count of each stored relation in the body."""
        catalog = self.catalog
        return {
            atom.relation: len(catalog.relation(atom.relation))
            for atom in statement.body
        }

    def _plan_for(
        self, statement: QueryStatement, signature: str
    ) -> Tuple[Plan, str]:
        """(plan, origin) — built here only if the cache elects us."""

        def build() -> Plan:
            # Plan in *canonical* variable space (the signature's v0,
            # v1, ...): the cached plan is shared by every renaming of
            # the statement, so its GAO must not be spelled in any one
            # renaming's variable names.  Execution localizes it back
            # (see _localize).
            return self.planner.plan(
                lower(statement.canonicalize(), self.catalog),
                signature=signature,
                generation=self.catalog.generation,
            )

        plan, origin = self.cache.resolve(
            signature, self._sizes(statement), build
        )
        if origin != ORIGIN_CACHED and self.obs.enabled:
            self._observe_plan(origin)
        return plan, origin

    def _observe_plan(self, origin: str) -> None:
        """Count a lookup the cache could not serve from an entry."""
        metrics = self.obs.metrics
        if origin in BUILT_ORIGINS:
            metrics.counter(
                "planner_plans_built_total",
                "Plans built, by what made the cache ask for one.",
                labels={
                    "reason": "drift" if origin == ORIGIN_REFRESHED
                    else "cold"
                },
            ).inc()
        else:
            metrics.counter(
                "planner_plan_coalesced_total",
                "Lookups served by another reader's in-flight plan.",
            ).inc()

    @staticmethod
    def _localize(
        statement: QueryStatement, plan: Plan
    ) -> Tuple[str, ...]:
        """The plan's GAO in the statement's variables.

        The canonical mapping is by first appearance in the body, which
        the signature fixes, so any statement sharing the signature
        inverts it the same way.  Atom aliases need no translation:
        lowering derives them from relation names and body order alone
        — which is also why the plan's triangle mapping serves every
        renaming as it is (the engine reads only its atoms and flips).
        """
        rename = statement.canonical_rename()
        return tuple(rename[v] for v in plan.gao)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_statement(
        self, statement: QueryStatement, signature: str
    ) -> ExecResult:
        obs = self.obs
        tracer = obs.tracer
        t0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
        with tracer.span("query", text=statement.unparse()) as qspan:
            with tracer.span("plan", signature=signature) as pspan:
                plan, origin = self._plan_for(statement, signature)
                cached = origin not in BUILT_ORIGINS
                pspan.set("cache", "hit" if cached else "miss")
                pspan.set("origin", origin)
                pspan.set("engine", plan.engine)
                pspan.set("gao", ",".join(plan.gao))
            gao = self._localize(statement, plan)
            lowered = lower(statement, self.catalog)
            counters = OpCounters()
            aggregate = statement.aggregate
            # Admission: each statement gets a fresh AdmittedQuery
            # carved from the session budget (the deadline clock starts
            # here, after planning).  Typed ExecutionErrors propagate
            # to the caller with this statement on the stack — the
            # script/CLI layers attach line/statement attribution.
            admission = admit(self.budget)
            resilience_before = self.resilience.snapshot()
            with tracer.span(
                "execute",
                engine=plan.engine,
                shards=plan.shards,
                workers=plan.workers,
            ) as espan:
                if aggregate is not None:
                    result = self._execute_aggregate(
                        lowered, plan, gao, aggregate, counters, admission
                    )
                else:
                    result = self._execute_rows(
                        lowered, plan, gao, counters, admission
                    )
                espan.set("rows", len(result.rows))
                espan.set_ops(counters.snapshot())
            qspan.set("cached_plan", cached)
            qspan.set_ops(counters.snapshot())
        result.plan_origin = origin
        result.ops = counters.snapshot()
        result.seconds = time.perf_counter() - t0  # lint: disable=determinism -- reporting-only timing; never feeds results
        # NULL_SPAN (tracing off) has an empty name; a real query span
        # becomes the result's renderable trace tree.
        result.trace = qspan if qspan.name else None
        self.counters.merge(counters)
        self.queries_executed += 1
        if obs.enabled:
            self._observe_query(statement, plan, result, cached)
            self._observe_resilience(resilience_before)
        return result

    def _observe_query(
        self, statement: QueryStatement, plan: Plan, result: ExecResult,
        cached: bool,
    ) -> None:
        """Metrics + slow-query bookkeeping for one execution."""
        from repro.obs import DEFAULT_OP_BUCKETS

        metrics = self.obs.metrics
        metrics.counter(
            "queries_total",
            "Queries executed, by plan-cache outcome.",
            labels={"cache": "hit" if cached else "miss"},
        ).inc()
        metrics.histogram(
            "query_seconds", "End-to-end query execution wall time."
        ).observe(result.seconds)
        metrics.histogram(
            "query_findgap",
            "FindGap operations per query (the certificate proxy).",
            buckets=DEFAULT_OP_BUCKETS,
        ).observe(result.ops.get("findgap", 0))
        metrics.histogram(
            "query_output_rows",
            "Output rows per query.",
            buckets=DEFAULT_OP_BUCKETS,
        ).observe(len(result.rows))
        self.obs.record_query(
            statement.unparse(),
            result.seconds,
            signature=plan.signature,
            engine=plan.engine,
            cached_plan=cached,
            rows=len(result.rows),
            ops=dict(result.ops),
        )

    def _observe_resilience(self, before: Dict[str, int]) -> None:
        """Export per-query supervisor-counter deltas as metrics."""
        after = self.resilience.snapshot()
        metrics = self.obs.metrics
        for key in (
            "retries", "worker_deaths", "timeouts", "fallbacks",
            "shards_discarded", "downgrades",
        ):
            delta = after.get(key, 0) - before.get(key, 0)
            if delta:
                metrics.counter(
                    f"execution_{key}_total",
                    f"Supervisor {key.replace('_', ' ')} across queries.",
                ).inc(delta)
        metrics.gauge(
            "execution_breaker_open",
            "1 when the pool circuit breaker is open (pooled plans "
            "downgraded to workers=0).",
        ).set(1 if self.breaker.open else 0)

    def _row_stream(
        self,
        lowered: LoweredQuery,
        plan: Plan,
        gao: Tuple[str, ...],
        counters: OpCounters,
        admission: Optional[AdmittedQuery] = None,
    ) -> Iterator[Row]:
        """The plan's output rows over the localized ``gao`` order,
        ascending, as a stream (:func:`engine_rows`): a consumer that
        stops early pays only for the work so far.  Only a sharded
        Minesweeper plan runs to completion first, under the session's
        breaker, retry policy and tracer.  Every engine checks
        ``admission`` from its own loop.
        """
        spec = plan.spec(gao)
        if spec.workers and not self.breaker.allow_pool():
            # Breaker open: repeated pooled shard failures downgraded
            # the session to in-process execution (byte-identical rows;
            # only the pool is bypassed).  Reason is kept on the
            # breaker and exported through stats()/metrics.
            self.resilience.downgrades += 1
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.record_span(
                    "pool.downgrade", 0.0,
                    reason=self.breaker.reason or "breaker open",
                )
            spec = replace(spec, workers=0)
        if not spec.sharded:
            return engine_rows(
                plan.engine, lowered.query, spec, plan.triangle, counters,
                admission,
            )
        return iter(
            run_join(
                lowered.query,
                spec,
                counters,
                tracer=self.obs.tracer,
                admission=admission,
                retry_policy=self.retry_policy,
                breaker=self.breaker,
                resilience=self.resilience,
            ).rows
        )

    def _execute_rows(
        self,
        lowered: LoweredQuery,
        plan: Plan,
        gao: Tuple[str, ...],
        counters: OpCounters,
        admission: Optional[AdmittedQuery] = None,
    ) -> ExecResult:
        head = tuple(lowered.statement.head_vars)
        stream = self._row_stream(lowered, plan, gao, counters, admission)
        if head == gao:
            rows = list(stream)
        else:
            # Project as the rows stream by; a projection that drops
            # variables can repeat rows, so those pass through a set.
            positions = [gao.index(v) for v in head]
            projected = (
                tuple(row[p] for p in positions) for row in stream
            )
            rows = sorted(
                set(projected) if len(head) < len(gao) else projected
            )
        return ExecResult(lowered.statement, plan, head, rows=rows)

    def _execute_aggregate(
        self,
        lowered: LoweredQuery,
        plan: Plan,
        gao: Tuple[str, ...],
        aggregate: Aggregate,
        counters: OpCounters,
        admission: Optional[AdmittedQuery] = None,
    ) -> ExecResult:
        column = aggregate.unparse().replace(" ", "").lower()
        value = self._fold(
            aggregate,
            gao,
            self._row_stream(lowered, plan, gao, counters, admission),
        )
        rows = [] if value is None else [(value,)]
        return ExecResult(
            lowered.statement,
            plan,
            (column,),
            rows=rows,
            value=value,
        )

    @staticmethod
    def _fold(
        aggregate: Aggregate, gao: Tuple[str, ...], iterator
    ) -> Optional[int]:
        """Fold the row stream without materializing it."""
        if aggregate.func == "COUNT":
            return sum(1 for _ in iterator)
        index = gao.index(aggregate.var)
        if aggregate.func == "MIN" and index == 0:
            # Rows stream in GAO-lexicographic order, so the first
            # row's leading value is the global minimum: stop there.
            first = next(itertools.islice(iterator, 1), None)
            return None if first is None else first[0]
        values = (row[index] for row in iterator)
        if aggregate.func == "MIN":
            return min(values, default=None)
        return max(values, default=None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """The unified stats tree (see :mod:`repro.obs.stats`).

        One schema for every consumer: the script layer's ``STATS``
        statement, the Prometheus exposition, and programmatic callers
        all read this tree — the session's own counters under
        ``session.*``, the catalog's under ``catalog.*``.
        """
        return unified_stats(self)

    def __repr__(self) -> str:
        return (
            f"Session({self.queries_executed} queries, "
            f"cache={self.cache.stats()['entries']} plans, "
            f"generation={self.catalog.generation})"
        )

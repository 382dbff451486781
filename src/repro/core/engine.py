"""High-level entry points: one-call joins with automatic GAO selection.

How a run is configured lives in exactly one place: :class:`ExecSpec`.
:func:`join` is the keyword facade over it; everything below the facade
(the serial engine, the sharded executor, pool workers, live views, WAL
records, snapshot manifests) receives the spec itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.minesweeper import Minesweeper
from repro.core.query import PreparedQuery, Query
from repro.core.resilience import (
    AdmittedQuery,
    CircuitBreaker,
    ResilienceStats,
    RetryPolicy,
)
from repro.hypergraph.elimination import is_nested_elimination_order
from repro.obs.trace import Tracer
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


def resolve_strategy(query: Query, gao: Sequence[str], strategy: str) -> str:
    """Resolve ``"auto"`` by the paper's rule: chain iff the GAO is a
    nested elimination order (Thm 2.7), else general (Thm 5.1)."""
    if strategy != "auto":
        return strategy
    nested = is_nested_elimination_order(query.hypergraph(), gao)
    return "chain" if nested else "general"


@dataclass(frozen=True)
class ExecSpec:
    """Everything that configures one Minesweeper run.

    A frozen, picklable value: built once (by :func:`join`'s keywords,
    :meth:`repro.planner.plan.Plan.spec`, a CLI command, or
    :meth:`from_record`), resolved once against its query, and shipped
    as-is to whatever executes it — including pool workers and the
    WAL/snapshot records of live views.  Rows are invariant in every
    field but ``gao`` (column order) and ``limit`` (prefix length); op
    counts are additionally invariant in ``workers``.  No field picks a
    tier: every run uses the arena CDS over the relations' flat tries,
    and only tests and the E13 ablation build the plain tier, directly
    (see :class:`~repro.core.minesweeper.Minesweeper`'s ``cds``).
    """

    #: Global attribute order; empty = chosen per the paper (a nested
    #: elimination order for beta-acyclic queries, else min-fill).
    gao: Tuple[str, ...] = ()
    #: ``"auto"`` / ``"chain"`` (Thm 2.7) / ``"general"`` (Thm 5.1).
    strategy: str = "auto"
    #: False disables Algorithm 4/7 gap memoization (ablation E12).
    memoize: bool = True
    #: Stop after this many output tuples (GAO order); the counters
    #: then reflect only the certificate actually consumed (§6.3).
    limit: Optional[int] = None
    #: Contiguous ranges of the first GAO attribute, one engine each
    #: (see :mod:`repro.parallel`); ``None`` = ``workers``, else 1.
    shards: Optional[int] = None
    #: ``multiprocessing`` pool size; 0 / ``None`` runs the shards
    #: sequentially in-process (byte-identical rows and merged counts).
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        # Callers hand over lists (CLI flags, JSON records); the stored
        # value must be hashable and compare equal to PreparedQuery.gao.
        object.__setattr__(self, "gao", tuple(self.gao))

    def resolve(self, query: Optional[Query] = None) -> "ExecSpec":
        """The fully-decided spec for ``query`` (idempotent).

        The one place that range-checks ``limit`` / ``workers`` /
        ``shards``, defaults ``shards`` from ``workers``, picks the GAO
        and turns ``strategy="auto"`` into ``chain`` / ``general``.
        Without a ``query`` only the query-independent half runs (how
        the CLI validates flags before any relation is loaded).
        """
        if self.limit is not None and self.limit < 0:
            raise ValueError(
                f"limit must be non-negative, got {self.limit}"
            )
        workers = self.workers or 0
        if workers < 0:
            raise ValueError(f"workers must be non-negative, got {workers}")
        shards = self.shards if self.shards is not None else workers or 1
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        gao, strategy = self.gao, self.strategy
        if query is not None:
            if gao:
                query.check_gao(gao)
            else:
                gao = tuple(query.choose_gao()[0])
            strategy = resolve_strategy(query, gao, strategy)
        return replace(
            self,
            gao=gao,
            strategy=strategy,
            shards=shards,
            workers=workers,
        )

    @property
    def sharded(self) -> bool:
        """True when the run goes through :mod:`repro.parallel`.

        ``workers=1`` with a single shard is still a real 1-process
        pool (the honest baseline of the scaling curve), not a silent
        fall-through to the serial engine.
        """
        return (self.shards or 1) > 1 or (self.workers or 0) >= 1

    def to_record(self) -> Dict[str, Any]:
        """The four keys a live view's ``!view`` WAL record and snapshot
        manifest entry store (the rest are per-call, never persisted)."""
        return {
            "gao": list(self.gao),
            "strategy": self.strategy,
            "shards": self.shards,
            "workers": self.workers,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "ExecSpec":
        """Inverse of :meth:`to_record`.  Other keys are ignored,
        among them the ``cds_backend`` that records written before the
        CDS tier stopped being a run option still carry."""
        return cls(
            gao=record["gao"],
            strategy=record["strategy"],
            shards=record["shards"],
            workers=record["workers"],
        )


class JoinResult:
    """Output tuples plus the instrumentation gathered while computing them."""

    def __init__(
        self,
        rows: List[Row],
        spec: ExecSpec,
        counters: OpCounters,
        shards_run: Optional[int] = None,
        shards_discarded: int = 0,
    ) -> None:
        self.rows = rows
        self.gao = spec.gao
        self.strategy = spec.strategy
        self.counters = counters
        #: The ``limit`` the join ran under (None = exhaustive).  When
        #: set, ``rows`` holds the first ``limit`` output tuples in GAO
        #: order and ``counters`` only the work done to find them.
        self.limit = spec.limit
        #: Sharded-execution provenance (None = the plain single-engine
        #: path).  ``shards`` is the number of ranges actually run and
        #: ``workers`` the pool size (0 = in-process sequential mode);
        #: ``counters`` is then the merged per-shard tally.
        self.shards = shards_run
        self.workers = spec.workers if shards_run is not None else None
        #: Planned shards whose results were never merged because an
        #: early ``limit`` exit stopped consumption first (their work
        #: is discarded untallied; pooled runs terminate them).
        self.shards_discarded = shards_discarded

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def certificate_estimate(self) -> int:
        """The Figure-2 proxy: number of FindGap operations performed."""
        return self.counters.findgap

    def stats(self) -> Dict[str, int]:
        return self.counters.snapshot()

    def __repr__(self) -> str:
        return (
            f"JoinResult({len(self.rows)} rows, gao={list(self.gao)}, "
            f"strategy={self.strategy}, findgap={self.counters.findgap})"
        )


def _prepare(
    query: Query, spec: ExecSpec, counters: Optional[OpCounters]
) -> Tuple[PreparedQuery, ExecSpec]:
    """The prepare step every entry point shares: resolve the spec,
    index the relations for its GAO, bind the tally.

    An already-prepared query is reused as-is; with ``counters`` its
    relations are rebound to that object, so the caller's tally starts
    from zero instead of accumulating on the prepared query's own.
    """
    spec = spec.resolve(query)
    if not isinstance(query, PreparedQuery) or spec.gao != query.gao:
        return query.with_gao(spec.gao, counters), spec
    if counters is None:
        return query, spec
    for r in query.relations:
        r.rebind_counters(counters)
    return PreparedQuery(query.relations, spec.gao, counters), spec


def stream_rows(
    prepared: PreparedQuery,
    spec: ExecSpec,
    admission: Optional[AdmittedQuery] = None,
) -> Iterator[Row]:
    """One serial Minesweeper over ``prepared`` under a resolved spec:
    output tuples in GAO order, lazily, at most ``spec.limit`` of them."""
    rows: Iterator[Row] = Minesweeper(
        prepared,
        strategy=spec.strategy,
        memoize=spec.memoize,
        admission=admission,
    ).iterate()
    if spec.limit is not None:
        rows = itertools.islice(rows, spec.limit)
    return rows


def run_join(
    query: Query,
    spec: ExecSpec,
    counters: Optional[OpCounters] = None,
    tracer: Optional[Tracer] = None,
    admission: Optional[AdmittedQuery] = None,
    retry_policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    resilience: Optional[ResilienceStats] = None,
) -> JoinResult:
    """Evaluate ``query`` under ``spec`` (what :func:`join` builds from
    its keywords; see there for the runtime collaborators)."""
    prepared, spec = _prepare(query, spec, counters)
    if not spec.sharded:
        rows = list(stream_rows(prepared, spec, admission))
        return JoinResult(rows, spec, prepared.counters)
    from repro.parallel.executor import run_sharded  # lint: disable=layering -- deferred import breaking the core->parallel cycle

    run = run_sharded(
        prepared.relations,
        spec,
        prepared.counters,
        tracer=tracer,
        admission=admission,
        retry_policy=retry_policy,
        breaker=breaker,
        resilience=resilience,
    )
    return JoinResult(
        run.rows, spec, run.counters, run.shards_run, run.shards_discarded
    )


def join(
    query: Query,
    gao: Optional[Sequence[str]] = None,
    strategy: str = "auto",
    memoize: bool = True,
    counters: Optional[OpCounters] = None,
    backend: Optional[str] = None,
    limit: Optional[int] = None,
    workers: Optional[int] = None,
    shards: Optional[int] = None,
    cds_backend: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    admission: Optional[AdmittedQuery] = None,
    retry_policy: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
    resilience: Optional[ResilienceStats] = None,
) -> JoinResult:
    """Evaluate a natural join with Minesweeper.

    The six run knobs are the fields of :class:`ExecSpec` (documented
    there); this is the keyword facade over :func:`run_join`.  The run
    uses the arena CDS over the relations' flat tries; a comparison
    against the plain tier builds it directly (``Minesweeper(...,
    cds=ConstraintTree(...))`` over ``TrieRelation`` indexes).

    ``backend`` and ``cds_backend`` are not knobs: any value but
    ``None`` raises ``ValueError``.  The keywords stay only because the
    frozen perf ledger's ``benchmarks/ledger/layers.py::_engine_call``
    passes ``backend=plan.backend, cds_backend=plan.cds_backend``;
    ROADMAP items 2(b) and 7(a) remove them.

    ``counters`` receives the run's tally (pass ``NullCounters()`` to
    evaluate without paying for operation counting).  The remaining
    arguments are per-session runtime collaborators, not options:
    ``tracer`` (a :class:`repro.obs.trace.Tracer`) records per-shard
    child spans; ``admission`` (an
    :class:`~repro.core.resilience.AdmittedQuery`) enforces the query
    budget cooperatively in the engine loop and after every shard
    merge; ``retry_policy`` / ``breaker`` / ``resilience`` steer the
    sharded path's supervisor (see :mod:`repro.core.resilience`).  None
    of them changes rows or op counts unless a limit actually fires
    (then a typed :class:`~repro.core.resilience.ExecutionError`
    aborts the run).
    """
    if backend is not None:
        raise ValueError(
            f"join() takes no index tier (got backend={backend!r})"
        )
    if cds_backend is not None:
        raise ValueError(
            f"join() takes no CDS tier (got cds_backend={cds_backend!r})"
        )
    spec = ExecSpec(
        gao=tuple(gao or ()),
        strategy=strategy,
        memoize=memoize,
        limit=limit,
        shards=shards,
        workers=workers,
    )
    return run_join(
        query, spec, counters, tracer, admission, retry_policy, breaker,
        resilience,
    )


def iterate_join(
    query: Query,
    spec: ExecSpec = ExecSpec(),
    counters: Optional[OpCounters] = None,
    admission: Optional[AdmittedQuery] = None,
) -> Tuple[Iterator[Row], PreparedQuery]:
    """Streaming join: ``(row_iterator, prepared_query)``.

    The iterator yields output tuples in GAO order as the engine
    discovers them; abandoning it early costs only the part of the
    certificate actually consumed (the §6.3 top-k property ``limit``
    exposes in batch form).  It is the Minesweeper case of
    :func:`repro.planner.planner.engine_rows`, the one row stream every
    planned engine answers a session through — ``COUNT`` tallies rows
    without materializing them, and ``MIN`` of the leading GAO
    attribute stops after the very first output tuple.  Serial only:
    sharded execution trades the
    streaming property for range parallelism, so ``spec.shards`` /
    ``spec.workers`` are not consulted (use :func:`run_join` there).
    """
    prepared, spec = _prepare(query, spec, counters)
    return stream_rows(prepared, spec, admission), prepared

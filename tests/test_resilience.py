"""The resilient execution layer: chaos matrix, admission, breaker.

Every test here asserts the ISSUE-9 contract: a faulty pool returns
rows **byte-identical** to the sequential mode or raises a **typed**
:class:`~repro.core.resilience.ExecutionError` — never a hang, never
silent truncation.  A hard ``SIGALRM`` fixture enforces the
"never a hang" half mechanically: any test that blocks is killed and
fails, rather than wedging the suite.
"""

import multiprocessing
import pickle
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import join
from repro.core.query import Query
from repro.core.resilience import (
    AdmittedQuery,
    BudgetExceeded,
    CircuitBreaker,
    ExecutionError,
    QueryBudget,
    QueryTimeout,
    ResilienceStats,
    RetryPolicy,
    ShardFailure,
    admit,
)
from repro.datasets.graphs import uniform_graph
from repro.planner import PlanCache
from repro.storage.relation import Relation
from repro.testing.faults import (
    InjectedWorkerFault,
    WorkerFault,
    worker_faults,
)
from repro.util.counters import OpCounters

#: Hard per-test wall limit (seconds).  Generous: pooled cases spawn
#: real processes on a possibly single-core CI box.
HARD_TIMEOUT_S = 120


@pytest.fixture(autouse=True)
def hard_timeout():
    """SIGALRM backstop: a hung test dies loudly instead of wedging."""

    def on_alarm(signum, frame):
        raise AssertionError(
            f"test exceeded the {HARD_TIMEOUT_S}s hard timeout — "
            "the resilience layer hung"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _no_live_children(deadline_s: float = 5.0) -> bool:
    """True once every child process has been reaped."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.02)
    return not multiprocessing.active_children()


def two_path_query(n: int = 24) -> Query:
    return Query([
        Relation("R", ["A", "B"], [(i, i + 1) for i in range(n)]),
        Relation("S", ["B", "C"], [(i + 1, i) for i in range(n)]),
    ])


def four_cycle_query(n: int = 12) -> Query:
    """Cyclic, non-triangle — the planner must pick Minesweeper."""
    return Query([
        Relation("R", ["A", "B"], [(i, i) for i in range(n)]),
        Relation("S", ["B", "C"], [(i, i) for i in range(n)]),
        Relation("T", ["C", "D"], [(i, i) for i in range(n)]),
        Relation("U", ["D", "A"], [(i, i) for i in range(n)]),
    ])


FAST = RetryPolicy(retries=2, backoff_s=0.0, shard_timeout_s=2.0)
FAST_NO_FALLBACK = RetryPolicy(
    retries=1, backoff_s=0.0, shard_timeout_s=2.0, fallback=False
)


# ----------------------------------------------------------------------
# Policy vocabulary units (no processes)
# ----------------------------------------------------------------------


class TestQueryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            QueryBudget(max_ops=-1)
        with pytest.raises(ValueError):
            QueryBudget(deadline_ms=-5)

    def test_unbounded_budget_admits_to_none(self):
        assert admit(None) is None
        assert admit(QueryBudget()) is None
        assert isinstance(admit(QueryBudget(max_ops=1)), AdmittedQuery)

    def test_ops_and_rows_checks(self):
        a = QueryBudget(max_ops=10, max_rows=3).admit()
        # at the limit: fine
        a.tick(OpCounters(interval_ops=10, output_tuples=3))
        with pytest.raises(BudgetExceeded) as info:
            # ops = interval_ops + constraints + comparisons
            a.tick(OpCounters(interval_ops=5, constraints=3, comparisons=3))
        assert info.value.resource == "ops"
        assert info.value.limit == 10
        with pytest.raises(BudgetExceeded) as info:
            a.tick(OpCounters(output_tuples=4))
        assert info.value.resource == "rows"

    def test_deadline_stride(self):
        a = QueryBudget(deadline_ms=1).admit()
        time.sleep(0.01)
        # Below the stride the deadline is not consulted...
        for _ in range(AdmittedQuery.DEADLINE_STRIDE - 1):
            a.tick(OpCounters())
        # ... the stride-th tick reads the clock and trips.
        with pytest.raises(QueryTimeout):
            a.tick(OpCounters())
        assert a.expired()

    def test_remaining_seconds(self):
        assert QueryBudget(max_ops=5).admit().remaining_s() is None
        rem = QueryBudget(deadline_ms=60_000).admit().remaining_s()
        assert rem is not None and 0 < rem <= 60.0


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(shard_timeout_s=0)

    def test_exponential_backoff(self):
        policy = RetryPolicy(backoff_s=0.05)
        assert policy.backoff_for(1) == pytest.approx(0.05)
        assert policy.backoff_for(2) == pytest.approx(0.10)
        assert policy.backoff_for(3) == pytest.approx(0.20)


class TestCircuitBreaker:
    def test_trips_after_threshold_and_stays_open(self):
        breaker = CircuitBreaker(threshold=3)
        for _ in range(2):
            breaker.record_failure("crash")
        assert breaker.allow_pool()
        breaker.record_failure("crash")
        assert not breaker.allow_pool()
        assert breaker.trips == 1
        assert "crash" in (breaker.reason or "")
        # Success while open does not close it (heal only via reset).
        breaker.record_success()
        assert not breaker.allow_pool()
        breaker.reset()
        assert breaker.allow_pool()

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure("timeout")
        breaker.record_failure("timeout")
        breaker.record_success()
        breaker.record_failure("timeout")
        assert breaker.allow_pool()


class TestTypedErrorsPickle:
    """Typed errors ship through worker pipes: fields must round-trip."""

    @pytest.mark.parametrize("exc", [
        BudgetExceeded("ops", 10, 42),
        QueryTimeout(1.5, "worker"),
        ShardFailure(2, 10, 20, 3, ["crash", "timeout"], "detail"),
        InjectedWorkerFault("hang"),
        WorkerFault("slow", 0.5),
    ])
    def test_roundtrip(self, exc):
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is type(exc)
        assert vars(clone) == vars(exc) or str(clone) == str(exc)

    def test_taxonomy(self):
        for cls in (BudgetExceeded, QueryTimeout, ShardFailure):
            assert issubclass(cls, ExecutionError)
        assert issubclass(ExecutionError, RuntimeError)


# ----------------------------------------------------------------------
# The chaos matrix
# ----------------------------------------------------------------------


class TestChaosMatrixPooled:
    """fault kind × retry policy over a real pool: byte-identical rows
    or a typed error, never a hang, never silent truncation."""

    @pytest.mark.parametrize("kind", [
        "crash", "hang", "slow", "poison", "raise",
    ])
    @pytest.mark.parametrize("times", [1, 99])
    def test_with_fallback_rows_are_byte_identical(self, kind, times):
        query = two_path_query()
        expected = join(query).rows
        stats = ResilienceStats()
        with worker_faults(kind=kind, times=times, seconds=30.0):
            result = join(
                query, shards=2, workers=2,
                retry_policy=FAST, resilience=stats,
            )
        assert result.rows == expected
        if kind == "slow":
            # A slowed worker still finishes inside its attempt
            # timeout: the supervisor absorbs the perturbation with no
            # retry at all.
            assert stats.fallbacks == 0
        elif times == 1:
            # Exactly one attempt was disturbed and retried.
            assert stats.retries >= 1
        else:
            # Faults outlast the retries: the in-process fallback
            # (not subject to pool-scoped faults) saved each shard.
            assert stats.fallbacks >= 1

    @pytest.mark.parametrize("kind", [
        "crash", "hang", "poison", "raise",
    ])
    def test_without_fallback_typed_error(self, kind):
        query = two_path_query()
        with worker_faults(kind=kind, times=99, seconds=30.0):
            with pytest.raises(ShardFailure) as info:
                join(
                    query, shards=2, workers=2,
                    retry_policy=FAST_NO_FALLBACK,
                )
        exc = info.value
        assert exc.attempts == 2  # retries=1 → two attempts
        assert exc.faults  # the per-attempt fault history is recorded
        assert _no_live_children()

    def test_hang_with_deadline_times_out(self):
        query = two_path_query()
        with worker_faults(kind="hang", times=99, seconds=30.0):
            with pytest.raises(QueryTimeout):
                join(
                    query, shards=2, workers=2,
                    retry_policy=RetryPolicy(retries=0, backoff_s=0.0),
                    admission=admit(QueryBudget(deadline_ms=500)),
                )
        assert _no_live_children()

    def test_fault_history_named_in_shard_failure(self):
        query = two_path_query()
        with worker_faults(kind="crash", times=99):
            with pytest.raises(ShardFailure) as info:
                join(
                    query, shards=2, workers=1,
                    retry_policy=FAST_NO_FALLBACK,
                )
        assert info.value.faults == ["crash"] * 2


class TestChaosMatrixInline:
    """The same policy engine drives workers=0 (scope="all" faults)."""

    @pytest.mark.parametrize("kind", ["crash", "poison"])
    def test_injected_fault_retried_inline(self, kind):
        query = two_path_query()
        expected = join(query).rows
        stats = ResilienceStats()
        with worker_faults(kind=kind, times=1, scope="all"):
            result = join(
                query, shards=2, workers=0,
                retry_policy=FAST, resilience=stats,
            )
        assert result.rows == expected
        assert stats.retries == 1

    def test_exhaustion_reaches_fallback_then_typed_error(self):
        query = two_path_query()
        stats = ResilienceStats()
        with worker_faults(kind="crash", times=64, scope="all"):
            with pytest.raises(ShardFailure) as info:
                join(
                    query, shards=2, workers=0,
                    retry_policy=RetryPolicy(retries=1, backoff_s=0.0),
                    resilience=stats,
                )
        assert stats.fallbacks == 1
        assert isinstance(info.value.__cause__, InjectedWorkerFault)

    def test_real_exception_propagates_unchanged(self, monkeypatch):
        # A genuine engine error in the driver's own process is NOT
        # retried or wrapped — exactly the pre-supervisor semantics.
        import repro.parallel.executor as executor

        def boom(payload):
            raise ValueError("real engine bug")

        monkeypatch.setattr(executor, "_run_shard", boom)
        with pytest.raises(ValueError, match="real engine bug"):
            join(two_path_query(), shards=2, workers=0)


# ----------------------------------------------------------------------
# Propagation semantics (satellite c)
# ----------------------------------------------------------------------


class TestPropagation:
    def test_keyboard_interrupt_propagates_from_worker(self, monkeypatch):
        import repro.parallel.executor as executor

        def interrupt(payload):
            raise KeyboardInterrupt()

        monkeypatch.setattr(executor, "_run_shard", interrupt)
        with pytest.raises(KeyboardInterrupt):
            join(two_path_query(), shards=2, workers=2, retry_policy=FAST)
        assert _no_live_children()

    def test_worker_exception_becomes_shard_failure_with_cause(
        self, monkeypatch
    ):
        import repro.parallel.executor as executor

        def boom(payload):
            raise ValueError("deterministic bug")

        monkeypatch.setattr(executor, "_run_shard", boom)
        with pytest.raises(ShardFailure) as info:
            join(
                two_path_query(), shards=2, workers=1,
                retry_policy=RetryPolicy(retries=1, backoff_s=0.0),
            )
        # The fallback re-raised the same bug; the chain preserves it.
        assert isinstance(info.value.__cause__, ValueError)
        assert "deterministic bug" in info.value.detail
        assert _no_live_children()

    def test_worker_budget_abort_propagates_typed(self):
        # A deadline shipped to the workers aborts *inside* the worker
        # and surfaces driver-side with its type intact (no retry).
        query = two_path_query(n=2000)
        stats = ResilienceStats()
        with pytest.raises(QueryTimeout):
            join(
                query, shards=2, workers=1, resilience=stats,
                admission=admit(QueryBudget(deadline_ms=1)),
            )
        assert stats.retries == 0  # policy aborts are never retried
        assert _no_live_children()


# ----------------------------------------------------------------------
# Early-exit hygiene (satellite a)
# ----------------------------------------------------------------------


class TestEarlyExit:
    def test_limit_exit_discards_shards_and_reaps_children(self):
        from repro.obs.trace import Tracer

        tracer = Tracer(enabled=True)
        query = two_path_query()
        with tracer.span("root"):
            result = join(
                query, shards=4, workers=2, limit=1,
                tracer=tracer, retry_policy=FAST,
            )
        assert len(result.rows) == 1
        assert result.shards_discarded >= 1
        assert _no_live_children(), (
            "pool children must not outlive an early limit exit"
        )
        spans = [
            s for s in tracer.finished
            if s.name == "shard.early_exit"
        ]
        assert len(spans) == 1
        assert spans[0].attributes["shards_discarded"] == (
            result.shards_discarded
        )

    def test_inline_limit_exit_counts_discards(self):
        result = join(two_path_query(), shards=4, workers=0, limit=1)
        assert len(result.rows) == 1
        assert result.shards_discarded >= 1


# ----------------------------------------------------------------------
# Parity: the supervisor must not change fault-free results
# ----------------------------------------------------------------------


class TestFaultFreeParity:
    def test_pooled_inline_and_serial_agree_exactly(self):
        query = two_path_query()
        serial = join(query)
        stats = ResilienceStats()
        inline = join(query, shards=3, workers=0)
        pooled = join(query, shards=3, workers=2, resilience=stats)
        assert pooled.rows == inline.rows == serial.rows
        assert pooled.counters.snapshot() == inline.counters.snapshot()
        # Fault-free: one attempt per shard, nothing retried.
        assert stats.attempts == 3
        assert stats.retries == 0
        assert stats.fallbacks == 0

    def test_admission_does_not_change_results(self):
        query = two_path_query()
        plain = join(query, shards=2, workers=0)
        budgeted = join(
            query, shards=2, workers=0,
            admission=admit(
                QueryBudget(max_ops=10**9, deadline_ms=600_000)
            ),
        )
        assert budgeted.rows == plain.rows
        assert budgeted.counters.snapshot() == plain.counters.snapshot()


# ----------------------------------------------------------------------
# Admission through the serving layer (sessions, scripts)
# ----------------------------------------------------------------------


class TestServingAdmission:
    def _session(self, budget=None, config=None):
        from repro.serve import Session

        session = Session(config=config, budget=budget)
        session.catalog.create_relation(
            "R", ["A", "B"], [(i, i + 1) for i in range(60)]
        )
        session.catalog.create_relation(
            "S", ["B", "C"], [(i + 1, i) for i in range(60)]
        )
        return session

    def test_ops_budget_aborts_statement(self):
        session = self._session(budget=QueryBudget(max_ops=5))
        with pytest.raises(BudgetExceeded):
            session.execute("Q(x,y,z) :- R(x,y), S(y,z)")

    def test_rows_budget_aborts_statement(self):
        session = self._session(budget=QueryBudget(max_rows=10))
        with pytest.raises(BudgetExceeded) as info:
            session.execute("Q(x,y,z) :- R(x,y), S(y,z)")
        assert info.value.resource == "rows"

    def test_unbudgeted_session_unaffected(self):
        session = self._session()
        result = session.execute("Q(x,y,z) :- R(x,y), S(y,z)")
        assert len(result.rows) == 60

    def test_budget_is_a_session_knob_beside_the_config(self):
        """The planner config carries no budget; a session given both
        admits statements against its own ``budget=``."""
        import dataclasses

        from repro.planner import PlannerConfig

        assert "budget" not in {
            f.name for f in dataclasses.fields(PlannerConfig)
        }
        session = self._session(
            config=PlannerConfig(), budget=QueryBudget(max_ops=5)
        )
        with pytest.raises(BudgetExceeded):
            session.execute("Q(x,y,z) :- R(x,y), S(y,z)")

    def test_script_line_attribution(self):
        from repro.serve import ScriptError, ScriptRunner

        session = self._session(budget=QueryBudget(max_ops=5))
        runner = ScriptRunner(session)
        with pytest.raises(ScriptError) as info:
            runner.run_line("Q(x,y,z) :- R(x,y), S(y,z)", lineno=7)
        assert info.value.lineno == 7
        assert isinstance(info.value.__cause__, BudgetExceeded)

    def test_stats_tree_exports_execution_subtree(self):
        session = self._session()
        session.execute("Q(x,y,z) :- R(x,y), S(y,z)")
        tree = session.stats()
        assert "resilience" in tree["execution"]
        assert "breaker" in tree["execution"]
        assert tree["execution"]["breaker"]["open"] is False


# ----------------------------------------------------------------------
# One budget path: every planned engine checks admission in its loop
# ----------------------------------------------------------------------

#: One full-row query per planned engine over one edge relation E(A, B).
ENGINE_QUERIES = {
    "triangle": "Q(a, b, c) :- E(a, b), E(b, c), E(a, c)",
    "yannakakis": "Q(a, b, c, d) :- E(a, b), E(b, c), E(c, d)",
    "generic": "Q(a, b, c, d) :- E(a, b), E(b, c), E(c, d), E(d, a)",
    "minesweeper": "Q(a, b, c, d) :- E(a, b), E(b, c), E(c, d), E(d, a)",
}

#: The two COUNT queries whose deadlines once went unchecked.
COUNT_QUERIES = {
    "triangle": "Q(COUNT) :- E(a, b), E(b, c), E(a, c)",
    "yannakakis": "Q(COUNT) :- E(a, b), E(b, c), E(c, d)",
}


def edge_session(edges, budget=None):
    from repro.serve import Session

    session = Session(budget=budget)
    session.catalog.create_relation("E", ["A", "B"], edges)
    return session


class PinnedPlan(PlanCache):
    """A cache that serves every statement the one plan it was given."""

    def __init__(self, plan):
        super().__init__()
        self.plan = plan

    def resolve(self, signature, sizes, build):
        return self.plan, "cached"


def pinned_session(edges, text, engine, budget=None):
    """A session over E(A, B) = ``edges`` that runs ``text`` on
    ``engine`` whatever the planner would measure: which engine wins
    depends on the instance (``tests/test_engine_regimes.py``), while
    the budget contract is every engine's."""
    from repro.lang import lower, parse
    from repro.planner import ENGINE_TRIANGLE, Plan, detect_triangle
    from repro.serve import Session

    session = edge_session(edges)
    query = lower(parse(text).canonicalize(), session.catalog).query
    mapping = detect_triangle(query) if engine == ENGINE_TRIANGLE else None
    plan = Plan(
        signature="",
        engine=engine,
        gao=mapping.vars if mapping else tuple(query.attributes()),
        triangle=mapping,
    )
    return Session(
        session.catalog, budget=budget, plan_cache=PinnedPlan(plan)
    )


def ops_measure(result):
    """``QueryBudget``'s ops measure, read off a finished run."""
    ops = result.ops
    return ops["interval_ops"] + ops["constraints"] + ops["comparisons"]


class TestEveryEngineBudget:
    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=1, max_size=40,
        ),
        engine=st.sampled_from(sorted(ENGINE_QUERIES)),
        resource=st.sampled_from(["max_ops", "max_rows", "deadline_ms"]),
        scale=st.floats(0.0, 2.0),
    )
    def test_rows_identical_or_an_abort_naming_the_limit(
        self, edges, engine, resource, scale
    ):
        text = ENGINE_QUERIES[engine]
        full = pinned_session(edges, text, engine).execute(text)
        assert full.plan.engine == engine
        if resource == "deadline_ms":
            # Wall time is not reproducible: an expired deadline may
            # abort, a ten-minute one never does.
            limit = 0 if scale < 1.0 else 600_000
            never_aborts = limit > 0
        else:
            measure = (
                ops_measure(full) if resource == "max_ops"
                else len(full.rows)
            )
            limit = int(measure * scale)
            never_aborts = limit >= measure
        session = pinned_session(
            edges, text, engine, QueryBudget(**{resource: limit})
        )
        try:
            rows = session.execute(text).rows
        except BudgetExceeded as exc:
            assert not never_aborts
            assert (exc.resource, exc.limit) == (
                resource[len("max_"):], limit
            )
        except QueryTimeout as exc:
            assert not never_aborts
            assert resource == "deadline_ms"
            assert exc.deadline_s == limit / 1000.0
        else:
            assert rows == full.rows


class TestGenericJoinBudget:
    def test_max_ops_stops_a_generic_planned_query_inside_its_loop(self):
        # A dense random 4-cycle: generic join is the measured pick.
        edges = uniform_graph(12, 40, seed=3)
        text = ENGINE_QUERIES["generic"]
        full = edge_session(edges).execute(text)
        assert full.plan.engine == "generic"
        limit = full.ops["comparisons"] // 2
        session = edge_session(edges, QueryBudget(max_ops=limit))
        with pytest.raises(BudgetExceeded) as info:
            session.execute(text)
        assert (info.value.resource, info.value.limit) == ("ops", limit)
        # raised by the per-candidate tick, not the post-run checks
        frames = [
            (entry.path.name, entry.name) for entry in info.traceback
        ]
        assert ("generic_join.py", "search") in frames

    def test_rows_and_deadline_checked_before_returning(self):
        from repro.core.generic_join import generic_join
        from repro.core.query import Query

        # Two output rows, and a single-level search: the row check on
        # return is the one that fires.
        query = Query([
            Relation("R", ["A"], [(1,), (2,)]),
            Relation("S", ["A"], [(1,), (2,)]),
        ])
        admission = QueryBudget(max_rows=1).admit()
        with pytest.raises(BudgetExceeded) as info:
            generic_join(query.with_gao(["A"]), admission=admission)
        assert info.value.resource == "rows"
        # two ticks never reach the deadline stride: the check on
        # return is what sees the expired deadline
        admission = QueryBudget(deadline_ms=0).admit()
        time.sleep(0.002)
        with pytest.raises(QueryTimeout) as info:
            generic_join(query.with_gao(["A"]), admission=admission)
        assert info.value.where == "generic"


class TestDeadlinesHoldOnEveryEngine:
    """Unbounded, these plans take ≈ 0.7 s (triangle) and ≈ 8 s
    (Yannakakis) on a 2-vCPU x86 box; a 20 ms deadline stops both
    from inside the engine loop."""

    @pytest.fixture(scope="class")
    def edges(self):
        return uniform_graph(300, 5000, seed=1)

    @pytest.mark.parametrize("engine", sorted(COUNT_QUERIES))
    def test_deadline_raises_query_timeout(self, edges, engine):
        text = COUNT_QUERIES[engine]
        session = edge_session(edges, QueryBudget(deadline_ms=20))
        plan, _ = session.prepare(text).plan()
        assert plan.engine == engine
        start = time.monotonic()
        with pytest.raises(QueryTimeout) as info:
            session.execute(text)
        assert time.monotonic() - start < 0.3
        assert info.value.where == engine


class TestBreakerDowngrade:
    def test_repeated_pool_failures_trip_and_downgrade(self):
        from repro.planner import PlannerConfig
        from repro.serve import Session

        config = PlannerConfig(workers=2, shards=2, shard_threshold=0)
        session = Session(
            config=config,
            retry_policy=RetryPolicy(retries=2, backoff_s=0.0),
        )
        n = 8
        for name, attrs in (
            ("R", ["A", "B"]), ("S", ["B", "C"]),
            ("T", ["C", "D"]), ("U", ["D", "A"]),
        ):
            session.catalog.create_relation(
                name, attrs, [(i, i) for i in range(n)]
            )
        text = "Q(a,b,c,d) :- R(a,b), S(b,c), T(c,d), U(d,a)"
        expected = [(i, i, i, i) for i in range(n)]

        # Every pooled attempt dies; the fallback still answers, and
        # the 2 shards × 3 attempts = 6 failures trip the breaker
        # (threshold 5) within this one query.
        with worker_faults(kind="crash", times=999):
            first = session.execute(text)
        assert first.rows == expected
        assert session.breaker.open
        assert "crash" in (session.breaker.reason or "")

        # Next query: downgraded to workers=0 — correct rows, no pool.
        before = session.resilience.downgrades
        second = session.execute(text)
        assert second.rows == expected
        assert session.resilience.downgrades == before + 1
        assert session.stats()["execution"]["breaker"]["open"] is True
        assert _no_live_children()


# ----------------------------------------------------------------------
# CLI surface: typed errors exit 4
# ----------------------------------------------------------------------


class TestCliExitCodes:
    @pytest.fixture()
    def csvs(self, tmp_path):
        r = tmp_path / "R.csv"
        s = tmp_path / "S.csv"
        r.write_text("".join(f"{i},{i + 1}\n" for i in range(40)))
        s.write_text("".join(f"{i + 1},{i}\n" for i in range(40)))
        return str(r), str(s)

    def test_join_budget_exceeded_exits_4(self, csvs, capsys):
        from repro.cli import main

        r, s = csvs
        code = main([
            "join", "--relation", f"R=A,B:{r}",
            "--relation", f"S=B,C:{s}", "--max-ops", "5",
        ])
        assert code == 4
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_query_deadline_exits_4(self, csvs, capsys):
        from repro.cli import main

        r, s = csvs
        code = main([
            "query", "--relation", f"R=A,B:{r}",
            "--relation", f"S=B,C:{s}", "--max-rows", "3",
            "Q(x,y,z) :- R(x,y), S(y,z)",
        ])
        assert code == 4
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_yannakakis_join_deadline_exits_4(self, tmp_path, capsys):
        from repro.cli import main

        graph = tmp_path / "E.csv"
        graph.write_text("".join(
            f"{a},{b}\n" for a, b in uniform_graph(300, 5000, seed=1)
        ))
        code = main([
            "join", "--engine", "yannakakis",
            "--relation", f"R=A,B:{graph}",
            "--relation", f"S=B,C:{graph}",
            "--relation", f"T=C,D:{graph}",
            "--deadline-ms", "20",
        ])
        assert code == 4
        assert "QueryTimeout" in capsys.readouterr().err

    def test_budget_flags_refused_by_leapfrog(self, csvs):
        from repro.cli import main

        r, s = csvs
        with pytest.raises(SystemExit, match="not supported by leapfrog"):
            main([
                "join", "--engine", "leapfrog", "--relation", f"R=A,B:{r}",
                "--relation", f"S=B,C:{s}", "--max-ops", "5",
            ])

    def test_generic_join_budget_exits_4(self, csvs, capsys):
        from repro.cli import main

        r, s = csvs
        code = main([
            "join", "--engine", "generic", "--relation", f"R=A,B:{r}",
            "--relation", f"S=B,C:{s}", "--max-ops", "1",
        ])
        assert code == 4
        assert "BudgetExceeded" in capsys.readouterr().err

    def test_join_under_budget_exits_0(self, csvs):
        from repro.cli import main

        r, s = csvs
        code = main([
            "join", "--relation", f"R=A,B:{r}",
            "--relation", f"S=B,C:{s}", "--max-ops", "1000000",
            "--deadline-ms", "600000",
        ])
        assert code == 0

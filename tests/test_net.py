"""Network serving tests: shared plan cache, pools, ingest, tenants,
the HTTP gateway, and concurrent multi-tenant isolation."""

import http.client
import json
import socket
import statistics
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.core.resilience import (
    BudgetExceeded,
    QueryBudget,
    QueryTimeout,
    ShardFailure,
)
from repro.dynamic import Catalog
from repro.dynamic.log import parse_update
from repro.net import (
    Client,
    ClientError,
    Gateway,
    IngestBackpressure,
    IngestQueue,
    PoolSaturated,
    ReadWriteLock,
    ScopedPlanCache,
    SessionPool,
    TenantRegistry,
    TenantSpec,
    UnknownTenantError,
    serve_http,
)
from repro.net.client import _Connection
from repro.net.server import MAX_BODY_BYTES, _Handler, error_payload
from repro.obs import MetricsRegistry, Observability
from repro.planner import Plan, Planner
from repro.planner.cache import PlanCache
from repro.serve import Session

TEXT = "Q(x, z) :- R(x, y), S(y, z)"
PAIRS = "Q(x, z) :- E(x, y), E(y, z)"


def small_catalog():
    cat = Catalog()
    cat.create_relation("R", ["A", "B"], [(1, 2), (2, 3), (3, 1)])
    cat.create_relation("S", ["B", "C"], [(2, 10), (3, 20)])
    return cat


@pytest.fixture()
def plan():
    session = Session(small_catalog())
    built, _ = session.prepare(TEXT).plan()
    return built


def never():
    raise AssertionError("a cache hit must not build")


def seed(cache, plan, key=None):
    """Land ``plan`` in ``cache`` the only way there is: a cold miss."""
    got, origin = cache.resolve(
        key or plan.signature, plan.cardinalities, lambda: plan
    )
    assert got is plan and origin == "planned now"


class TestPlanCacheThreadSafety:
    """Satellite: the shared cache under a multi-threaded hammer."""

    def test_hammer_preserves_counter_and_capacity_invariants(self, plan):
        cache = PlanCache(capacity=8)
        threads, iterations, keyspace = 8, 300, 24
        barrier = threading.Barrier(threads)
        failures = []
        sizes = dict(plan.cardinalities)
        # A cost-based twin of the fixture's plan, so that the drifted
        # lookups below really do exercise refresh-inside-resolve.
        drifting = replace(plan, engine="minesweeper")
        far = {name: 4 * rows for name, rows in sizes.items()}
        builds = []

        def build():
            builds.append(1)
            return drifting

        def worker(seed):
            barrier.wait()
            try:
                for i in range(iterations):
                    key = f"k{(seed * 7 + i) % keyspace}"
                    # Every tenth lookup sees drifted data: a present
                    # entry is rebuilt by exactly one of its readers.
                    now = far if i % 10 == 9 else sizes
                    got, _ = cache.resolve(key, now, build)
                    assert got is drifting
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(repr(exc))

        pool = [
            threading.Thread(target=worker, args=(n,))
            for n in range(threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert not failures, failures

        stats = cache.stats()
        gets = threads * iterations
        # Every resolve() increments exactly one of hits / misses /
        # coalesced — torn counter updates would break this total —
        # and a miss is exactly one plan built.
        assert stats["hits"] + stats["misses"] + stats["coalesced"] == gets
        assert stats["misses"] == len(builds)
        assert stats["drift_replans"] == stats["invalidated"]
        assert stats["in_flight"] == 0
        assert len(cache) <= cache.capacity
        assert stats["entries"] == len(cache)
        for counter in stats.values():
            assert counter >= 0
        # Deterministic drift refresh after the hammer (concurrently
        # the LRU usually evicts a key before its data "drifts").
        seed(cache, drifting, key="stale-probe")
        _, origin = cache.resolve("stale-probe", far, build)
        assert origin == "refreshed (drift)"
        after = cache.stats()
        assert after["invalidated"] == stats["invalidated"] + 1
        assert (
            after["hits"] + after["misses"] + after["coalesced"] == gets + 2
        )

    def test_lru_eviction_is_oldest_first(self, plan):
        cache = PlanCache(capacity=2)
        for key in ("a", "b", "c"):
            seed(cache, plan, key=key)
        assert len(cache) == 2
        assert cache.stats()["evicted"] == 1
        assert "a" not in cache  # oldest out first
        assert "b" in cache and "c" in cache


class TestScopedPlanCache:
    def test_scopes_share_storage_but_never_collide(self, plan):
        shared = PlanCache(capacity=32)
        alpha = ScopedPlanCache(shared, "alpha")
        beta = ScopedPlanCache(shared, "beta")
        sizes = dict(plan.cardinalities)
        other = replace(plan)

        seed(alpha, plan)
        assert alpha.resolve(plan.signature, sizes, never)[0] is plan
        # beta holds nothing under that signature: it builds its own.
        assert beta.resolve(plan.signature, sizes, lambda: other) == (
            other, "planned now",
        )
        assert alpha.resolve(plan.signature, sizes, never)[0] is plan
        assert plan.signature in alpha and plan.signature in beta
        assert len(alpha) == 1 and len(beta) == 1 and len(shared) == 2
        assert beta.stats()["entries"] == 1
        assert beta.stats()["shared_entries"] == 2

        alpha.clear()
        assert len(alpha) == 0 and plan.signature not in alpha
        assert beta.resolve(plan.signature, sizes, never)[0] is other

    def test_scoped_capacity_is_the_shared_capacity(self, plan):
        shared = PlanCache(capacity=3)
        alpha = ScopedPlanCache(shared, "alpha")
        beta = ScopedPlanCache(shared, "beta")
        for key in ("q1", "q2"):
            seed(alpha, plan, key=key)
            seed(beta, plan, key=key)
        # One LRU, one capacity knob: four plans into capacity 3.
        assert len(shared) == 3
        assert shared.stats()["evicted"] == 1


class _GatedPlanner(Planner):
    """A planner whose ``plan`` parks until the test releases it, so a
    test decides what overlaps a build instead of hoping for a race."""

    def __init__(self, error=None):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()
        self.error = error

    def plan(self, target, signature="", generation=0):
        self.entered.set()
        assert self.release.wait(timeout=30)
        if self.error is not None:
            raise self.error
        return super().plan(target, signature=signature, generation=generation)


class TestSingleFlightPlanning:
    """N readers of one cold (tenant, signature) build one plan."""

    READERS = 6

    def pools(self, tenants=("alpha",), error=None):
        """One SessionPool per tenant over one shared PlanCache; every
        session plans through the same gated planner."""
        shared = PlanCache(capacity=32)
        gate = _GatedPlanner(error)
        self.metrics = MetricsRegistry(namespace="repro")

        def factory(tenant, catalog):
            def make():
                obs = Observability()
                obs.metrics = self.metrics  # one registry, as in Tenant
                session = Session(
                    catalog,
                    obs=obs,
                    plan_cache=ScopedPlanCache(shared, tenant),
                    owns_wal=False,
                )
                session.planner = gate
                return session
            return make

        pools = {
            tenant: SessionPool(
                factory(tenant, small_catalog()), self.READERS, name=tenant
            )
            for tenant in tenants
        }
        return shared, gate, pools

    @staticmethod
    def run(pool, count, outcomes):
        def reader():
            try:
                with pool.lease() as session:
                    outcomes.append(session.execute(TEXT))
            except BaseException as exc:
                outcomes.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(count)]
        for t in threads:
            t.start()
        return threads

    @staticmethod
    def settle(shared, key, value):
        """Wait (bounded) until the cache counter ``key`` reads ``value``."""
        deadline = time.monotonic() + 30
        while shared.stats()[key] != value:
            assert time.monotonic() < deadline, shared.stats()
            time.sleep(0.002)

    @staticmethod
    def join(threads):
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)

    def test_concurrent_cold_readers_build_exactly_one_plan(self):
        shared, gate, pools = self.pools()
        outcomes = []
        threads = self.run(pools["alpha"], self.READERS, outcomes)
        assert gate.entered.wait(timeout=30)
        # Everyone else is parked on the leader's flight, not planning.
        self.settle(shared, "coalesced", self.READERS - 1)
        assert shared.stats()["in_flight"] == 1
        gate.release.set()
        self.join(threads)

        assert gate.plans_built == 1
        origins = sorted(r.plan_origin for r in outcomes)
        assert origins == ["coalesced"] * (self.READERS - 1) + ["planned now"]
        assert [r.cached_plan for r in outcomes].count(False) == 1
        payloads = {
            json.dumps([r.columns, r.rows], sort_keys=True) for r in outcomes
        }
        assert len(payloads) == 1  # byte-identical rows
        assert len({id(r.plan) for r in outcomes}) == 1
        stats = shared.stats()
        assert (stats["misses"], stats["coalesced"], stats["hits"]) == (
            1, self.READERS - 1, 0,
        )
        assert stats["in_flight"] == 0
        # The exposition tells the same story as the cache counters.
        snap = self.metrics.snapshot()
        assert snap["repro_planner_plans_built_total"]["reason=cold"] == 1
        assert (
            snap["repro_planner_plan_coalesced_total"]["value"]
            == self.READERS - 1
        )
        assert snap["repro_queries_total"]["cache=miss"] == 1

    @pytest.mark.parametrize(
        "error",
        [
            RuntimeError("injected planner failure"),
            BudgetExceeded("ops", 1, 2),
        ],
        ids=["planner-failure", "budget-exceeded"],
    )
    def test_leader_failure_reaches_every_waiter_and_unwedges(self, error):
        shared, gate, pools = self.pools(error=error)
        pool = pools["alpha"]
        outcomes = []
        threads = self.run(pool, 3, outcomes)
        assert gate.entered.wait(timeout=30)
        self.settle(shared, "coalesced", 2)
        gate.release.set()
        self.join(threads)
        assert outcomes == [error] * 3  # the typed error itself
        stats = shared.stats()
        assert stats["in_flight"] == 0 and stats["entries"] == 0
        # Nothing is wedged: the next call plans normally.
        gate.error = None
        with pool.lease() as session:
            result = session.execute(TEXT)
        assert result.plan_origin == "planned now"
        assert result.rows == [(1, 10), (2, 20)]
        assert gate.plans_built == 1

    def test_two_tenants_with_one_signature_do_not_coalesce(self):
        shared, gate, pools = self.pools(tenants=("alpha", "beta"))
        outcomes = []
        threads = self.run(pools["alpha"], 1, outcomes)
        assert gate.entered.wait(timeout=30)
        threads += self.run(pools["beta"], 1, outcomes)
        self.settle(shared, "misses", 2)  # both lead; neither waits
        assert shared.stats()["in_flight"] == 2
        gate.release.set()
        self.join(threads)
        assert [r.plan_origin for r in outcomes] == ["planned now"] * 2
        assert outcomes[0].plan is not outcomes[1].plan
        assert shared.stats()["coalesced"] == 0
        assert gate.plans_built == 2

    def test_reader_during_drift_refresh_is_served_the_old_plan(self):
        shared = PlanCache()
        cache = ScopedPlanCache(shared, "alpha")
        old = Plan("sig", "minesweeper", ("v0",), cardinalities={"R": 10})
        new = Plan("sig", "minesweeper", ("v0",), cardinalities={"R": 40})
        seed(cache, old)
        refreshing, release = threading.Event(), threading.Event()
        outcomes = []

        def build():
            refreshing.set()
            assert release.wait(timeout=30)
            return new

        leader = threading.Thread(
            target=lambda: outcomes.append(
                cache.resolve("sig", {"R": 40}, build)
            )
        )
        leader.start()
        assert refreshing.wait(timeout=30)
        # The refresh is parked mid-build; this reader must not wait
        # for it (the test would hang at the gate if it did).
        assert cache.resolve("sig", {"R": 40}, never) == (old, "cached")
        release.set()
        self.join([leader])
        assert outcomes == [(new, "refreshed (drift)")]
        assert cache.resolve("sig", {"R": 40}, never) == (new, "cached")
        stats = shared.stats()
        assert stats["coalesced"] == 0 and stats["drift_replans"] == 1


class TestSessionPool:
    def make_pool(self, size=2, **kwargs):
        catalog = small_catalog()
        return SessionPool(
            lambda: Session(catalog, owns_wal=False),
            size,
            name="t",
            **kwargs,
        )

    def test_lease_recycles_on_success(self):
        pool = self.make_pool()
        with pool.lease() as first:
            assert first.execute(TEXT).rows == [(1, 10), (2, 20)]
        with pool.lease() as second:
            assert second is first
        assert pool.stats()["created"] == 1
        assert pool.stats()["leases"] == 2

    def test_policy_abort_recycles_the_session(self):
        pool = self.make_pool()
        with pytest.raises(BudgetExceeded):
            with pool.lease() as session:
                raise BudgetExceeded("ops", 1, 2)
        stats = pool.stats()
        assert stats["discards"] == 0
        assert stats["idle"] == 1
        with pool.lease() as again:
            assert again is session and not again.closed

    def test_unexpected_error_discards_the_session(self):
        pool = self.make_pool()
        with pytest.raises(RuntimeError):
            with pool.lease() as session:
                raise RuntimeError("boom")
        assert session.closed
        stats = pool.stats()
        assert stats["discards"] == 1
        assert stats["created"] == 0  # slot freed for a lazy replacement
        with pool.lease() as fresh:
            assert fresh is not session

    def test_saturation_is_a_typed_error(self):
        pool = self.make_pool(size=1)
        with pool.lease():
            with pytest.raises(PoolSaturated) as exc:
                with pool.lease(timeout_s=0.05):
                    pass
        assert exc.value.tenant == "t"
        assert exc.value.size == 1
        assert pool.stats()["waits"] == 1

    def test_close_refuses_leases_and_closes_idle(self):
        pool = self.make_pool()
        with pool.lease() as session:
            pass
        pool.close()
        assert session.closed
        with pytest.raises(RuntimeError):
            with pool.lease():
                pass


class TestReadWriteLock:
    def wait_for(self, predicate, timeout_s=5.0):
        deadline = time.monotonic() + timeout_s
        while not predicate():
            if time.monotonic() > deadline:
                raise AssertionError("condition never held")
            time.sleep(0.005)

    def test_readers_share(self):
        lock = ReadWriteLock()
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        entered = threading.Event()

        def reader():
            with lock.read():
                entered.set()

        with lock.write():
            t = threading.Thread(target=reader)
            t.start()
            assert not entered.wait(0.1)
        assert entered.wait(5.0)
        t.join(timeout=5.0)

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        order = []

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("reader")

        lock.acquire_read()
        w = threading.Thread(target=writer)
        w.start()
        self.wait_for(lambda: lock._writers_waiting == 1)
        r = threading.Thread(target=late_reader)
        r.start()
        # Writer preference: the late reader must not sneak in while
        # the writer waits on the original reader.
        time.sleep(0.05)
        assert order == []
        lock.release_read()
        w.join(timeout=5.0)
        r.join(timeout=5.0)
        assert order == ["writer", "reader"]


class TestIngestQueue:
    @pytest.fixture()
    def setup(self):
        catalog = Catalog()
        catalog.create_relation("E", ["A", "B"], [(1, 2)])
        lock = ReadWriteLock()
        queue = IngestQueue("t", catalog, lock, maxsize=4)
        yield catalog, lock, queue
        queue.close(timeout_s=5.0)

    def batch(self, *lines):
        return [parse_update(line, n) for n, line in enumerate(lines, 1)]

    def test_async_apply_in_submission_order(self, setup):
        catalog, _, queue = setup
        t1 = queue.submit(self.batch("+E 2,3"))
        t2 = queue.submit(self.batch("+E 3,4", "-E 1,2"))
        assert (t1, t2) == (1, 2)
        assert queue.wait(t2, timeout_s=5.0)
        assert queue.error(t1) is None and queue.error(t2) is None
        session = Session(catalog, owns_wal=False)
        assert session.execute("Q(x, y) :- E(x, y)").rows == [
            (2, 3), (3, 4),
        ]
        stats = queue.stats()
        assert stats["applied"] == 2
        assert stats["updates_applied"] == 3
        assert stats["failed"] == 0

    def test_backpressure_is_typed_and_counted(self, setup):
        catalog, lock, _ = setup
        queue = IngestQueue("t", catalog, lock, maxsize=1)
        try:
            lock.acquire_write()  # pin the writer thread mid-batch
            try:
                queue.submit(self.batch("+E 5,6"))
                # Wait for the writer to pop it (then block on the
                # write lock) so the queue depth is deterministic.
                deadline = time.monotonic() + 5.0
                while queue.stats()["depth"] > 0:
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                queue.submit(self.batch("+E 6,7"))
                with pytest.raises(IngestBackpressure) as exc:
                    queue.submit(self.batch("+E 7,8"))
                assert exc.value.tenant == "t"
                assert exc.value.limit == 1
                assert queue.stats()["rejected"] == 1
            finally:
                lock.release_write()
            assert queue.drain(timeout_s=5.0)
            assert queue.stats()["applied"] == 2
        finally:
            queue.close(timeout_s=5.0)

    def test_failed_batch_recorded_but_writer_survives(self, setup):
        catalog, _, queue = setup
        bad = queue.submit(self.batch("+Missing 1,2"))
        good = queue.submit(self.batch("+E 9,9"))
        assert queue.wait(good, timeout_s=5.0)
        assert queue.error(bad) is not None
        assert queue.error(good) is None
        stats = queue.stats()
        assert stats["failed"] == 1 and stats["applied"] == 1
        session = Session(catalog, owns_wal=False)
        rows = session.execute("Q(x, y) :- E(x, y)").rows
        assert (9, 9) in rows

    def test_closed_queue_refuses_submissions(self, setup):
        _, _, queue = setup
        queue.close(timeout_s=5.0)
        with pytest.raises(RuntimeError):
            queue.submit(self.batch("+E 1,1"))


class TestTenantSpec:
    def test_parse_defaults_and_overrides(self):
        spec = TenantSpec.parse("alpha")
        assert spec == TenantSpec("alpha")
        spec = TenantSpec.parse(
            "beta,max_ops=100,deadline_ms=50,max_rows=10,"
            "pool_size=2,queue_depth=8"
        )
        assert spec.max_ops == 100
        assert spec.deadline_ms == 50
        assert spec.max_rows == 10
        assert spec.pool_size == 2
        assert spec.queue_depth == 8

    def test_cli_flags_are_defaults_an_explicit_override_beats(self):
        """``--pool-size`` / ``--queue-depth`` fill what ``--tenant``
        left unset — even when the override spells the built-in default."""
        from repro.cli import _tenant_specs, build_parser

        args = build_parser().parse_args([
            "serve", "--http",
            "--tenant", "a,pool_size=4", "--tenant", "b,queue_depth=64",
            "--tenant", "c,max_ops=7",
            "--pool-size", "8", "--queue-depth", "8", "--max-ops", "100",
        ])
        a, b, c = _tenant_specs(args)
        assert (a.pool_size, a.queue_depth, a.max_ops) == (4, 8, 100)
        assert (b.pool_size, b.queue_depth, b.max_ops) == (8, 64, 100)
        assert (c.pool_size, c.queue_depth, c.max_ops) == (8, 8, 7)
        assert TenantSpec.parse("d", pool_size=2) == TenantSpec("d", pool_size=2)

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TenantSpec.parse("alpha,bogus=1")
        with pytest.raises(ValueError):
            TenantSpec.parse("alpha,max_ops=lots")
        with pytest.raises(ValueError):
            TenantSpec.parse("../escape")
        with pytest.raises(ValueError):
            TenantSpec("ok", pool_size=0)
        with pytest.raises(ValueError):
            TenantSpec("ok", queue_depth=0)

    def test_budget_none_when_unbounded(self):
        assert TenantSpec("a").budget() is None
        assert TenantSpec("a", max_rows=5).budget() == QueryBudget(
            max_ops=None, deadline_ms=None, max_rows=5
        )

    def test_effective_budget_only_tightens(self):
        spec = TenantSpec("a", max_ops=100)
        # A request cannot loosen the tenant cap...
        assert spec.effective_budget(max_ops=5000) == QueryBudget(
            max_ops=100, deadline_ms=None, max_rows=None
        )
        # ...but can tighten any knob, including unset ones.
        assert spec.effective_budget(max_ops=10, max_rows=3) == (
            QueryBudget(max_ops=10, deadline_ms=None, max_rows=3)
        )
        assert TenantSpec("a").effective_budget() is None


class TestErrorPayloads:
    """The HTTP face of the resilience taxonomy, one class per code."""

    def test_budget_exceeded_is_429(self):
        status, payload = error_payload(BudgetExceeded("rows", 10, 11))
        assert status == 429
        assert payload["error"] == "BudgetExceeded"
        assert payload["resource"] == "rows"
        assert payload["limit"] == 10 and payload["used"] == 11

    def test_backpressure_is_429(self):
        status, payload = error_payload(IngestBackpressure("t", 8, 8))
        assert status == 429
        assert payload["error"] == "IngestBackpressure"
        assert payload["tenant"] == "t"

    def test_query_timeout_is_504(self):
        status, payload = error_payload(QueryTimeout(0.25, "driver"))
        assert status == 504
        assert payload["error"] == "QueryTimeout"
        assert payload["deadline_ms"] == 250
        assert payload["where"] == "driver"

    def test_shard_failure_is_503(self):
        exc = ShardFailure(2, 0, 7, 3, ["crash", "timeout"], "dead")
        status, payload = error_payload(exc)
        assert status == 503
        assert payload["error"] == "ShardFailure"
        assert payload["shard"] == 2 and payload["attempts"] == 3
        assert payload["faults"] == ["crash", "timeout"]

    def test_pool_saturated_is_503(self):
        status, payload = error_payload(PoolSaturated("t", 4, 1.0))
        assert status == 503
        assert payload["error"] == "PoolSaturated"

    def test_unknown_tenant_is_404(self):
        status, payload = error_payload(UnknownTenantError("ghost"))
        assert status == 404
        assert payload["tenant"] == "ghost"

    def test_validation_is_400_and_unknown_is_500(self):
        assert error_payload(ValueError("nope"))[0] == 400
        status, payload = error_payload(ZeroDivisionError("1/0"))
        assert status == 500
        assert payload["error"] == "InternalError"


class TestGateway:
    """Transport-free request handling: no sockets, full routing."""

    @pytest.fixture()
    def gateway(self):
        registry = TenantRegistry(
            [TenantSpec("alpha"), TenantSpec("beta")]
        )
        yield Gateway(registry)
        registry.close()

    def post(self, gateway, path, payload):
        status, raw, _ = gateway.handle(
            "POST", path, json.dumps(payload).encode()
        )
        return status, json.loads(raw)

    def load(self, gateway, tenant, edges):
        status, _ = self.post(
            gateway, "/v1/script",
            {"tenant": tenant, "script": "CREATE E(A, B)"},
        )
        assert status == 200
        status, body = self.post(
            gateway, "/v1/update",
            {
                "tenant": tenant,
                "updates": [f"+E {a},{b}" for a, b in edges],
                "sync": True,
            },
        )
        assert status == 200, body
        return body

    def test_query_roundtrip(self, gateway):
        report = self.load(gateway, "alpha", [(1, 2), (2, 3)])
        assert report["applied"] == 2
        status, body = self.post(
            gateway, "/v1/query", {"tenant": "alpha", "query": PAIRS}
        )
        assert status == 200
        assert body["columns"] == ["x", "z"]
        assert body["rows"] == [[1, 3]]
        assert body["tenant"] == "alpha"
        assert "elapsed_ms" in body and "ops" in body

    def test_prepare_warms_the_shared_cache(self, gateway):
        self.load(gateway, "alpha", [(1, 2), (2, 3)])
        status, body = self.post(
            gateway, "/v1/prepare", {"tenant": "alpha", "query": PAIRS}
        )
        assert status == 200 and not body["cached_plan"]
        status, body = self.post(
            gateway, "/v1/query", {"tenant": "alpha", "query": PAIRS}
        )
        assert status == 200 and body["cached_plan"]

    def test_write_keeps_the_cached_plan_and_is_visible(self, gateway):
        self.load(gateway, "alpha", [(1, 2), (2, 3)])
        query = {"tenant": "alpha", "query": PAIRS}
        assert not self.post(gateway, "/v1/query", query)[1]["cached_plan"]
        before = gateway.registry.stats()["plan_cache"]
        status, _ = self.post(
            gateway, "/v1/update",
            {"tenant": "alpha", "updates": ["+E 3,4"], "sync": True},
        )
        assert status == 200
        status, body = self.post(gateway, "/v1/query", query)
        assert status == 200 and body["cached_plan"]
        assert body["rows"] == [[1, 3], [2, 4]]
        after = gateway.registry.stats()["plan_cache"]
        assert after["misses"] == before["misses"]
        assert after["invalidated"] == 0

    def test_budget_override_maps_to_429(self, gateway):
        self.load(gateway, "alpha", [(1, 2), (2, 3)])
        status, body = self.post(
            gateway, "/v1/query",
            {
                "tenant": "alpha",
                "query": PAIRS,
                "budget": {"max_rows": 0},
            },
        )
        assert status == 429
        assert body["error"] == "BudgetExceeded"
        assert body["resource"] == "rows"
        # The tightened budget must not stick to the pooled session.
        status, body = self.post(
            gateway, "/v1/query", {"tenant": "alpha", "query": PAIRS}
        )
        assert status == 200 and body["rows"] == [[1, 3]]

    def test_async_update_returns_ticket(self, gateway):
        self.load(gateway, "alpha", [(1, 2)])
        status, body = self.post(
            gateway, "/v1/update",
            {"tenant": "alpha", "updates": ["+E 2,3"]},
        )
        assert status == 202
        assert body["ticket"] == 1
        tenant = gateway.registry.get("alpha")
        assert tenant.ingest.drain(timeout_s=5.0)
        status, body = self.post(
            gateway, "/v1/query", {"tenant": "alpha", "query": PAIRS}
        )
        assert body["rows"] == [[1, 3]]

    def test_error_routes(self, gateway):
        status, body = self.post(
            gateway, "/v1/query", {"tenant": "ghost", "query": PAIRS}
        )
        assert (status, body["error"]) == (404, "UnknownTenantError")
        status, body = self.post(
            gateway, "/v1/query",
            {"tenant": "alpha", "query": "not a query"},
        )
        assert status == 400
        status, body = self.post(gateway, "/v1/query", {"query": PAIRS})
        assert (status, body["error"]) == (400, "ValueError")
        status, raw, _ = gateway.handle("POST", "/v1/query", b"{nope")
        assert status == 400
        status, body = self.post(gateway, "/v1/nope", {})
        assert status == 404
        status, raw, _ = gateway.handle("DELETE", "/v1/query", None)
        assert status == 405

    def test_observability_endpoints(self, gateway):
        self.load(gateway, "alpha", [(1, 2)])
        status, raw, content = gateway.handle("GET", "/healthz", None)
        assert status == 200
        assert json.loads(raw)["tenants"] == ["alpha", "beta"]
        status, raw, _ = gateway.handle("GET", "/stats", None)
        stats = json.loads(raw)
        assert "alpha" in stats["tenants"]
        assert stats["tenants"]["alpha"]["catalog"]["relations"] == 1
        status, raw, content = gateway.handle("GET", "/metrics", None)
        assert status == 200
        assert content.startswith("text/plain")
        exposition = raw.decode()
        assert "repro_stat" in exposition
        assert "repro_http_requests_total" in exposition


class TestTenantRegistryDurability:
    def test_durable_roundtrip_per_tenant_dirs(self, tmp_path):
        registry = TenantRegistry(
            [TenantSpec("alpha"), TenantSpec("beta")],
            data_dir=str(tmp_path),
            fsync="off",
        )
        gateway = Gateway(registry)
        status, _, _ = gateway.handle(
            "POST", "/v1/script",
            json.dumps(
                {"tenant": "alpha", "script": "CREATE E(A, B)"}
            ).encode(),
        )
        assert status == 200
        registry.get("alpha").apply_sync(
            [parse_update("+E 1,2", 1), parse_update("+E 2,3", 2)]
        )
        assert (tmp_path / "alpha").is_dir()
        assert (tmp_path / "beta").is_dir()
        registry.close(snapshot=True)

        reopened = TenantRegistry(
            [TenantSpec("alpha")], data_dir=str(tmp_path), fsync="off"
        )
        try:
            tenant = reopened.get("alpha")
            assert tenant.recovery is not None
            status, raw, _ = Gateway(reopened).handle(
                "POST", "/v1/query",
                json.dumps(
                    {"tenant": "alpha", "query": PAIRS}
                ).encode(),
            )
            assert status == 200
            assert json.loads(raw)["rows"] == [[1, 3]]
        finally:
            reopened.close()

    def test_duplicate_and_unknown_tenants(self):
        registry = TenantRegistry([TenantSpec("alpha")])
        try:
            with pytest.raises(ValueError):
                registry.add(TenantSpec("alpha"))
            with pytest.raises(UnknownTenantError):
                registry.get("ghost")
        finally:
            registry.close()


ALPHA_EDGES = [(1, 2), (2, 3), (3, 1), (1, 3), (3, 2)]
BETA_EDGES = [(10, 20), (20, 30), (30, 10), (20, 40)]


def expected_pairs(edges):
    return sorted(
        {(a, c) for a, b in edges for b2, c in edges if b == b2}
    )


class TestHTTPEndToEnd:
    """Real sockets: serve_http on an ephemeral port, stdlib client."""

    @pytest.fixture()
    def server(self):
        registry = TenantRegistry(
            [TenantSpec("alpha"), TenantSpec("beta", queue_depth=4)]
        )
        server = serve_http(registry)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            registry.close()
            thread.join(timeout=5.0)

    @pytest.fixture()
    def served(self, server):
        return server.url, server.gateway.registry

    @pytest.fixture()
    def client(self, server):
        with Client(server.url) as client:
            yield client

    @staticmethod
    def load(client):
        for tenant, edges in (
            ("alpha", ALPHA_EDGES), ("beta", BETA_EDGES),
        ):
            client.script("CREATE E(A, B)", tenant=tenant)
            client.update(
                [f"+E {a},{b}" for a, b in edges],
                tenant=tenant,
                sync=True,
            )
        return client

    @pytest.mark.parametrize("text", [
        "Q(COUNT) :- E(a, b), E(b, c), E(a, c)",  # triangle plan
        "Q(COUNT) :- E(a, b), E(b, c), E(c, d)",  # Yannakakis plan
    ])
    def test_deadline_is_504_on_every_planned_engine(self, client, text):
        from repro.datasets.graphs import uniform_graph

        client.script("CREATE E(A, B)", tenant="alpha")
        client.update(
            [f"+E {a},{b}" for a, b in uniform_graph(300, 5000, seed=1)],
            tenant="alpha",
            sync=True,
        )
        with pytest.raises(ClientError) as info:
            client.query(text, tenant="alpha", budget={"deadline_ms": 20})
        assert info.value.status == 504
        assert info.value.payload["error"] == "QueryTimeout"

    def test_rows_match_direct_session_execution(self, client):
        self.load(client)
        direct = Catalog()
        direct.create_relation("E", ["A", "B"], list(ALPHA_EDGES))
        want = Session(direct).execute(PAIRS).rows
        assert client.rows(PAIRS, tenant="alpha") == want
        assert want == expected_pairs(ALPHA_EDGES)

    def test_concurrent_tenants_isolated_and_byte_identical(
        self, served, client
    ):
        """Satellite: N threads x M tenants; per-tenant rows identical
        to a sequential replay; alpha's 429s never leak into beta."""
        url, registry = served
        self.load(client)
        reference = {
            "alpha": client.rows(PAIRS, tenant="alpha"),
            "beta": client.rows(PAIRS, tenant="beta"),
        }
        assert reference["alpha"] == expected_pairs(ALPHA_EDGES)
        assert reference["beta"] == expected_pairs(BETA_EDGES)

        requests_per_thread = 8
        mismatches, errors, rejections = [], [], []
        lock = threading.Lock()

        def worker(index):
            with Client(url) as mine:
                ask(mine, index)

        def ask(mine, index):
            tenant = ("alpha", "beta")[index % 2]
            for turn in range(requests_per_thread):
                # Odd alpha turns deliberately exhaust the budget.
                starved = tenant == "alpha" and turn % 2 == 1
                try:
                    rows = mine.rows(
                        PAIRS,
                        tenant=tenant,
                        budget={"max_rows": 0} if starved else None,
                    )
                except ClientError as exc:
                    with lock:
                        if starved and exc.status == 429:
                            rejections.append(exc.payload)
                        else:
                            errors.append(f"{tenant}: {exc}")
                    continue
                with lock:
                    if starved:
                        errors.append(f"{tenant}: starved query passed")
                    elif rows != reference[tenant]:
                        mismatches.append((tenant, rows))

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, errors[:3]
        assert not mismatches, mismatches[:3]
        # Every starved alpha request got the typed rejection...
        assert len(rejections) == 3 * (requests_per_thread // 2)
        assert all(
            r["error"] == "BudgetExceeded" for r in rejections
        )
        # ...and the serving state is still pristine for both tenants.
        assert client.rows(PAIRS, tenant="alpha") == reference["alpha"]
        assert client.rows(PAIRS, tenant="beta") == reference["beta"]
        stats = client.stats()["tenants"]
        assert stats["beta"]["ingest"]["failed"] == 0
        assert stats["beta"]["sessions"]["queries_executed"] >= (
            3 * requests_per_thread
        )

    def test_backpressure_over_http(self, served, client, monkeypatch):
        url, registry = served
        self.load(client)
        tenant = registry.get("beta")
        # Admission validation takes the tenant read lock, which the
        # pinned writer (below, via the write lock) would block — skip
        # it so this test isolates the queue-full path.
        monkeypatch.setattr(
            tenant, "validate_updates", lambda updates: None
        )
        tenant.lock.acquire_write()  # pin the ingest writer
        try:
            # First batch is popped by the (blocked) writer; the next
            # queue_depth batches fill the queue; one more must shed.
            client.update(["+E 100,1"], tenant="beta")
            deadline = time.monotonic() + 5.0
            while tenant.ingest.stats()["depth"] > 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            for n in range(tenant.spec.queue_depth):
                client.update([f"+E {101 + n},1"], tenant="beta")
            with pytest.raises(ClientError) as exc:
                client.update(["+E 120,1"], tenant="beta")
            assert exc.value.status == 429
            assert exc.value.error == "IngestBackpressure"
            assert exc.value.is_policy_abort
        finally:
            tenant.lock.release_write()
        assert tenant.ingest.drain(timeout_s=10.0)
        assert tenant.ingest.stats()["rejected"] == 1

    def test_healthz_and_metrics_over_http(self, client):
        self.load(client)
        assert client.healthz()["status"] == "ok"
        exposition = client.metrics()
        assert "repro_stat" in exposition
        assert "repro_http_requests_total" in exposition
        # One client, one connection, still open while it scrapes.
        assert "repro_http_connections_total 1\n" in exposition
        assert "repro_http_connections_open 1\n" in exposition

    def test_keep_alive_connection_is_not_stalled_by_nagle(
        self, served, client
    ):
        # Headers and body as two writes on a persistent connection
        # cost one delayed ACK (~40 ms) per request.  A plain
        # http.client connection, so the server's own framing is
        # tested, whatever the Client does.
        url, _ = served
        self.load(client)
        query = {"tenant": "alpha", "query": PAIRS}
        client.prepare(PAIRS, tenant="alpha")  # plan cached: bodies stable
        want = {
            "/healthz": client._request("GET", "/healthz")[1],
            "/v1/prepare": client._request("POST", "/v1/prepare", query)[1],
        }
        host, port = url.removeprefix("http://").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=5.0)
        seconds = []
        try:
            for turn in range(50):
                path = ("/healthz", "/v1/prepare")[turn % 2]
                started = time.perf_counter()
                if path == "/healthz":
                    conn.request("GET", path)
                else:
                    conn.request("POST", path, body=json.dumps(query))
                response = conn.getresponse()
                body = response.read()
                seconds.append(time.perf_counter() - started)
                assert response.status == 200
                assert not response.will_close  # still the one connection
                assert body == want[path]
        finally:
            conn.close()
        assert statistics.median(seconds) < 0.010

    @pytest.mark.parametrize("declared,status,error", [
        ("abc", 400, "BadContentLength"),
        ("-1", 400, "BadContentLength"),
        ("+5", 400, "BadContentLength"),
        (str(MAX_BODY_BYTES + 1), 413, "PayloadTooLarge"),
    ])
    def test_hostile_content_length_gets_a_typed_answer(
        self, served, declared, status, error
    ):
        # Raw socket: the stdlib client would fix the header up.  No
        # body is ever sent, so a server that tries to read one hangs
        # and the 1-second socket timeout fails the test.
        url, registry = served
        host, port = url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=1.0) as conn:
            conn.sendall(
                b"POST /v1/query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + declared.encode() + b"\r\n\r\n"
            )
            reply = b""
            while chunk := conn.recv(65536):  # server closes after it
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head
        assert json.loads(body)["error"] == error
        counted = registry.metrics.counter(
            "http_requests_total", "",
            labels={"route": "POST /v1/query", "code": status},
        )
        assert counted.value == 1

    # -- connection lifecycle ------------------------------------------

    @staticmethod
    def accepted(server):
        return server.gateway.registry.metrics.counter(
            "http_connections_total"
        )

    @staticmethod
    def open_now(server):
        return server.gateway.registry.metrics.gauge(
            "http_connections_open"
        )

    @staticmethod
    def served_count(server, route, code=200):
        return server.gateway.registry.metrics.counter(
            "http_requests_total", "",
            labels={"route": route, "code": code},
        ).value

    def test_one_client_reuses_one_connection(self, server, client):
        self.load(client)
        for _ in range(20):
            assert client.healthz()["status"] == "ok"
            assert client.rows(PAIRS, tenant="alpha")
        assert self.accepted(server).value == 1
        sock = client._local.conn.sock
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        client.close()
        _wait_for(lambda: self.open_now(server).value == 0)

    def test_refused_post_then_the_next_request_succeeds(
        self, server, client, monkeypatch
    ):
        self.load(client)
        assert self.accepted(server).value == 1
        # A gateway-level 400 keeps the connection...
        with pytest.raises(ClientError) as exc:
            client.query(" ", tenant="alpha")
        assert exc.value.status == 400
        assert client.healthz()["status"] == "ok"
        assert self.accepted(server).value == 1
        # ...a 413 (answered unread, "Connection: close") ends it, and
        # the same Client reconnects for its next request.
        monkeypatch.setattr("repro.net.server.MAX_BODY_BYTES", 64)
        with pytest.raises(ClientError) as exc:
            client.query(PAIRS + " " * 100, tenant="alpha")
        assert (exc.value.status, exc.value.error) == (
            413, "PayloadTooLarge"
        )
        assert client.rows(PAIRS, tenant="alpha") == expected_pairs(
            ALPHA_EDGES
        )
        assert self.accepted(server).value == 2

    def test_idle_connection_closed_by_server_is_reopened(
        self, server, client, monkeypatch
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.2)
        client.script("CREATE E(A, B)", tenant="alpha")
        _wait_for(lambda: self.open_now(server).value == 0)
        assert client.healthz()["status"] == "ok"  # GET
        assert self.accepted(server).value == 2
        _wait_for(lambda: self.open_now(server).value == 0)
        client.update(["+E 1,2"], tenant="alpha", sync=True)  # POST
        assert self.accepted(server).value == 3
        assert self.served_count(server, "POST /v1/update") == 1
        assert client.rows("Q(x, y) :- E(x, y)", tenant="alpha") == [
            (1, 2)
        ]

    def test_send_failure_is_retried_once_on_a_fresh_connection(
        self, server, client, monkeypatch
    ):
        # Nothing reached the server, so even a POST may be resent —
        # but only once, and only off a reused connection.
        client.script("CREATE E(A, B)", tenant="alpha")
        real_send = _Connection.send
        failures = []

        def send(conn, data):
            if failures:
                failures.pop()
                raise BrokenPipeError("peer went away")
            return real_send(conn, data)

        monkeypatch.setattr(_Connection, "send", send)
        failures.append(1)
        client.update(["+E 1,2"], tenant="alpha", sync=True)
        assert not failures
        assert self.accepted(server).value == 2
        assert self.served_count(server, "POST /v1/update") == 1
        with Client(server.url) as fresh:
            failures.append(1)
            with pytest.raises(BrokenPipeError):
                fresh.healthz()  # a fresh connection is not retried

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_connection_lost_after_the_request_was_written(self, method):
        # The fake server reads the second request whole, then hangs
        # up without answering.  A GET is resent on a new connection;
        # a POST raises and reaches the server exactly once.
        with _DroppingServer(drop_at=2) as fake, \
                Client(fake.url, tenant="t") as client:
            assert client.healthz() == {"status": "ok"}
            if method == "GET":
                assert client.stats() == {"status": "ok"}
                assert fake.seen() == [
                    (1, "GET", "/healthz"), (1, "GET", "/stats"),
                    (2, "GET", "/stats"),
                ]
            else:
                with pytest.raises(ConnectionError):
                    client.update(["+E 1,2"], sync=True)
                time.sleep(0.1)  # a resend would arrive by now
                assert fake.seen() == [
                    (1, "GET", "/healthz"), (1, "POST", "/v1/update"),
                ]
                assert client.healthz() == {"status": "ok"}

    def test_server_close_reaps_idle_keep_alive_connections(self, server):
        clients = [Client(server.url) for _ in range(3)]
        try:
            for client in clients:
                client.healthz()
            name = f"repro-http:{server.port}"
            handlers = [
                t for t in threading.enumerate() if t.name == name
            ]
            assert len(handlers) == 3
            server.shutdown()
            started = time.monotonic()
            server.server_close()
            # Idle handlers wait up to the 30 s handler timeout for a
            # next request; server_close must not.
            assert time.monotonic() - started < 2.0
            assert not [t for t in handlers if t.is_alive()]
            assert self.open_now(server).value == 0
        finally:
            for client in clients:
                client.close()

    def test_truncated_body_frees_its_handler_within_the_timeout(
        self, server, monkeypatch
    ):
        monkeypatch.setattr(_Handler, "timeout", 0.3)
        host, port = server.url.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5.0) as conn:
            conn.sendall(
                b"POST /v1/update HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n" + b"x" * 10
            )
            started = time.monotonic()
            assert conn.recv(65536) == b""  # closed, never answered
            assert time.monotonic() - started < 3.0
        _wait_for(lambda: self.open_now(server).value == 0)
        assert self.served_count(server, "POST /v1/update", 400) == 0

    def test_wait_healthy_is_false_on_a_refused_connection(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with Client(f"http://127.0.0.1:{port}") as client:
            assert client.wait_healthy(timeout_s=0.2) is False


def _wait_for(condition, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class _DroppingServer:
    """A raw-socket HTTP/1.1 server that answers every request with
    ``{"status": "ok"}`` on a kept-alive connection — except the
    ``drop_at``-th request it receives, which it reads whole and then
    answers by closing the connection."""

    def __init__(self, drop_at):
        self.drop_at = drop_at
        self._seen = []
        self._lock = threading.Lock()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}"

    def seen(self):
        with self._lock:
            return list(self._seen)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._listener.close()

    def _serve(self):
        connections = 0
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            connections += 1
            with conn:
                self._converse(conn, connections)

    def _converse(self, conn, number):
        conn.settimeout(0.05)
        buffer = b""
        while not self._stop.is_set():
            try:
                chunk = conn.recv(65536)
            except TimeoutError:
                continue
            if not chunk:
                return
            buffer += chunk
            while b"\r\n\r\n" in buffer:
                head, _, rest = buffer.partition(b"\r\n\r\n")
                lines = head.decode("latin-1").split("\r\n")
                method, path, _ = lines[0].split(" ")
                length = 0
                for line in lines[1:]:
                    key, _, value = line.partition(":")
                    if key.strip().lower() == "content-length":
                        length = int(value)
                if len(rest) < length:
                    break  # body not all here yet
                buffer = rest[length:]
                with self._lock:
                    self._seen.append((number, method, path))
                    dropped = len(self._seen) == self.drop_at
                if dropped:
                    return
                body = b'{"status": "ok"}'
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: " + str(len(body)).encode()
                    + b"\r\n\r\n" + body
                )

"""Sharded parallel execution: planner, executor, and the join() wiring.

The contract under test: sharding the first GAO attribute's domain is
invisible in the *answer* — rows and their global GAO order are
invariant in the shard count, the worker count, and the storage backend
— while the merged per-shard op counts are (a) byte-identical between
the in-process sequential mode (``workers=0``) and the multiprocessing
pool, and (b) within the sequential run's totals up to the per-shard
boundary/rediscovery overhead the executor documents.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import ExecSpec, join
from repro.core.incremental import LiveJoin
from repro.core.query import Query, naive_join
from repro.datasets.instances import triangle_with_output
from repro.parallel.certify import certify_sharded
from repro.parallel.planner import Shard, plan_and_slice, plan_shards
from repro.storage.delta import DeltaRelation
from repro.storage.relation import Relation
from repro.storage.trie import TrieRelation
from repro.testing.faults import worker_faults
from repro.util.counters import NullCounters, OpCounters

edge = st.tuples(st.integers(0, 7), st.integers(0, 7))
edges = st.lists(edge, min_size=0, max_size=18)

#: The indexes a relation can sit on: "flat" is what ``Relation(...)``
#: builds, "trie" the plain tier's pointer trie and "delta" a writable
#: index; the last two are wrapped with Relation.from_index.
BACKENDS = ("flat", "trie", "delta")


def triangle_query(r, s, t, backend="flat"):
    def make(name, attrs, rows):
        if backend == "delta":
            return Relation.from_index(
                name, attrs, DeltaRelation(rows, arity=2)
            )
        if backend == "trie":
            return Relation.from_index(
                name, attrs, TrieRelation(rows, arity=2)
            )
        return Relation(name, attrs, rows)

    return Query(
        [
            make("R", ["A", "B"], r),
            make("S", ["B", "C"], s),
            make("T", ["A", "C"], t),
        ]
    )


def key_ops(counters):
    snapshot = counters.snapshot()
    return {
        k: snapshot.get(k, 0)
        for k in ("findgap", "probes", "constraints", "interval_ops")
    }


class TestPlanner:
    def test_plan_covers_domain_contiguously(self):
        rel = Relation("R", ["A", "B"], [(i, 0) for i in range(10)])
        plan = plan_shards([rel], "A", 3)
        assert [s.lo for s in plan][0] == 0
        assert plan[-1].hi == 9
        for left, right in zip(plan, plan[1:]):
            assert left.hi < right.lo  # disjoint, ascending
        assert sum(s.weight for s in plan) == 10

    def test_plan_balances_by_tuple_weight(self):
        # value 0 carries 8 tuples, values 1..8 one each: a 2-shard plan
        # must not lump everything into the first range.
        rows = [(0, j) for j in range(8)] + [(i, 0) for i in range(1, 9)]
        rel = Relation("R", ["A", "B"], rows)
        plan = plan_shards([rel], "A", 2)
        assert len(plan) == 2
        assert plan[0] == Shard(0, 0, 8)
        assert plan[1] == Shard(1, 8, 8)

    def test_more_shards_than_values_degrades(self):
        rel = Relation("R", ["A", "B"], [(1, 1), (2, 2)])
        assert len(plan_shards([rel], "A", 5)) == 2

    def test_empty_domain_plans_nothing(self):
        rel = Relation("R", ["A", "B"], [], )
        assert plan_shards([rel], "A", 4) == []

    def test_non_leading_attribute_rejected(self):
        rel = Relation("R", ["A", "B"], [(1, 2)])
        with pytest.raises(ValueError, match="non-leading"):
            plan_shards([rel], "B", 2)

    def test_shards_must_be_positive(self):
        rel = Relation("R", ["A", "B"], [(1, 2)])
        with pytest.raises(ValueError):
            plan_shards([rel], "A", 0)

    def test_slicing_partitions_leading_and_passes_others(self):
        r = Relation("R", ["A", "B"], [(i, i) for i in range(6)])
        s = Relation("S", ["B", "C"], [(i, i) for i in range(6)])
        plan, slices = plan_and_slice([r, s], "A", 3)
        assert plan == plan_shards([r, s], "A", 3)
        seen = []
        for shard, (sliced_r, passed_s) in zip(plan, slices):
            assert passed_s is s  # non-leading: passed through whole
            assert all(row[0] in shard for row in sliced_r.tuples())
            seen.extend(sliced_r.tuples())
        assert seen == r.tuples()


class TestShardInvariance:
    """Results are invariant in shard count, worker count, and backend."""

    @settings(max_examples=40, deadline=None)
    @given(r=edges, s=edges, t=edges, shards=st.integers(1, 5))
    def test_rows_invariant_and_counts_bounded(self, r, s, t, shards):
        seq = join(triangle_query(r, s, t), gao=["A", "B", "C"])
        sharded = join(
            triangle_query(r, s, t), gao=["A", "B", "C"], shards=shards
        )
        assert sharded.rows == seq.rows
        assert sharded.rows == naive_join(
            triangle_query(r, s, t), ["A", "B", "C"]
        )
        # summed per-shard counts stay within the sequential totals plus
        # the documented boundary/rediscovery overhead
        seq_ops = key_ops(seq.counters)
        sharded_ops = key_ops(sharded.counters)
        for key in ("findgap", "probes"):
            assert sharded_ops[key] <= 2 * seq_ops[key] + 64 * shards

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_with_sequential(self, backend):
        r = [(i, (i * 3) % 7) for i in range(7)]
        s = [((i * 3) % 7, (i * 5) % 7) for i in range(7)]
        t = [(i, (i * 5) % 7) for i in range(7)]
        seq = join(triangle_query(r, s, t, backend), gao=["A", "B", "C"])
        for shards in (2, 3, 4):
            res = join(
                triangle_query(r, s, t, backend),
                gao=["A", "B", "C"],
                shards=shards,
            )
            assert res.rows == seq.rows
            assert res.shards == shards

    def test_pool_matches_inprocess_rows_and_counts(self):
        """The acceptance invariant: pooled and sequential execution of
        the same plan return identical rows AND identical merged op
        counts."""
        r = [(i, j) for i in range(8) for j in range(3)]
        s = [(j, (i + j) % 5) for j in range(3) for i in range(4)]
        t = [(i, k) for i in range(8) for k in range(5)]
        # ... and the planted instance whose in-process 2x2 tally
        # benchmarks/baselines/smoke_ops.json pins
        # (parallel/triangle/planted/n=40/w=2x2).
        planted = triangle_with_output(40, 10, seed=5)
        for (r, s, t), shards in (
            ((r, s, t), 2), ((r, s, t), 4), (planted, 2),
        ):
            inproc = join(
                triangle_query(r, s, t),
                gao=["A", "B", "C"],
                shards=shards,
                workers=0,
            )
            pooled = join(
                triangle_query(r, s, t),
                gao=["A", "B", "C"],
                shards=shards,
                workers=2,
            )
            assert pooled.rows == inproc.rows
            assert pooled.stats() == inproc.stats()
            assert pooled.workers == 2 and inproc.workers == 0

    def test_workers_alone_implies_shards(self):
        r = [(i, i) for i in range(6)]
        res = join(
            triangle_query(r, r, r), gao=["A", "B", "C"], workers=3
        )
        assert res.shards == 3 and res.workers == 3
        assert res.rows == join(
            triangle_query(r, r, r), gao=["A", "B", "C"]
        ).rows

    def test_unary_intersection_query_shards(self):
        sets = [
            list(range(0, 60, 2)),
            list(range(0, 60, 3)),
            list(range(0, 60, 5)),
        ]
        query = Query(
            [
                Relation(f"R{i}", ["A"], [(v,) for v in vals])
                for i, vals in enumerate(sets)
            ]
        )
        seq = join(query, gao=["A"])
        assert [row[0] for row in seq.rows] == sorted(
            set(sets[0]) & set(sets[1]) & set(sets[2])
        )
        sharded = join(query, gao=["A"], shards=4)
        assert sharded.rows == seq.rows

    def test_null_counters_stay_null(self):
        r = [(i, i) for i in range(6)]
        counters = NullCounters()
        res = join(
            triangle_query(r, r, r),
            gao=["A", "B", "C"],
            shards=3,
            counters=counters,
        )
        assert res.counters is counters
        assert res.stats() == {}

    def test_validation(self):
        r = [(1, 1)]
        with pytest.raises(ValueError):
            join(triangle_query(r, r, r), shards=0)
        with pytest.raises(ValueError):
            join(triangle_query(r, r, r), workers=-1)
        with pytest.raises(ValueError):
            join(triangle_query(r, r, r), shards=2, limit=-1)


class TestLimitUnderSharding:
    """join(limit=...) edge cases on the parallel path: the returned
    prefix must equal the sequential GAO-order prefix."""

    def _query(self):
        r = [(i, j) for i in range(9) for j in (0, 1)]
        s = [(j, k) for j in (0, 1) for k in range(4)]
        t = [(i, k) for i in range(9) for k in range(4)]
        return lambda: triangle_query(r, s, t)

    def test_limits_match_sequential_prefix(self):
        make = self._query()
        full = join(make(), gao=["A", "B", "C"])
        assert len(full.rows) > 8
        plan_rows_per_shard = len(full.rows) // 4
        cases = {
            "zero": 0,
            "below_one_shard": max(1, plan_rows_per_shard - 1),
            "crossing_shards": plan_rows_per_shard + 2,
            "beyond_output": len(full.rows) + 5,
        }
        for label, limit in cases.items():
            seq = join(make(), gao=["A", "B", "C"], limit=limit)
            par = join(
                make(),
                gao=["A", "B", "C"],
                limit=limit,
                shards=4,
                workers=2,
            )
            assert par.rows == seq.rows == full.rows[:limit], label
            assert par.limit == limit

    def test_limit_zero_consumes_no_certificate(self):
        make = self._query()
        res = join(make(), gao=["A", "B", "C"], limit=0, shards=4)
        assert res.rows == []
        assert res.counters.findgap == 0
        assert res.counters.probes == 0

    def test_small_limit_stops_consuming_shards(self):
        """Shard results are consumed in range order and consumption
        stops once the prefix is full, so a tiny limit must not pay for
        the whole plan's certificate."""
        make = self._query()
        full = join(make(), gao=["A", "B", "C"], shards=4, workers=0)
        limited = join(
            make(), gao=["A", "B", "C"], limit=1, shards=4, workers=0
        )
        assert limited.rows == full.rows[:1]
        assert limited.counters.findgap < full.counters.findgap / 2

    def test_limit_parity_between_modes(self):
        make = self._query()
        inproc = join(
            make(), gao=["A", "B", "C"], limit=5, shards=3, workers=0
        )
        pooled = join(
            make(), gao=["A", "B", "C"], limit=5, shards=3, workers=2
        )
        assert inproc.rows == pooled.rows
        assert inproc.stats() == pooled.stats()


class TestLiveJoinSharded:
    def _relations(self, r, s, t):
        return [
            Relation.from_index("R", ("A", "B"), DeltaRelation(r, arity=2)),
            Relation.from_index("S", ("B", "C"), DeltaRelation(s, arity=2)),
            Relation.from_index("T", ("A", "C"), DeltaRelation(t, arity=2)),
        ]

    def test_maintenance_fans_out_and_matches_unsharded(self):
        r0 = [(1, 2), (2, 3), (5, 6)]
        s0 = [(2, 3), (3, 1), (6, 7)]
        t0 = [(1, 3), (2, 1), (5, 7)]
        plain = LiveJoin("Q", self._relations(r0, s0, t0))
        sharded = LiveJoin(
            "Q", self._relations(r0, s0, t0), ExecSpec(shards=3, workers=0)
        )
        assert sharded.rows() == plain.rows()
        batches = [
            {"R": ([(7, 8)], []), "S": ([(8, 9)], [(3, 1)])},
            {"T": ([(7, 9)], [(1, 3)])},
            {"R": ([(9, 9)], [(7, 8)])},
        ]
        for batch in batches:
            plain.apply_batch(dict(batch))
            sharded.apply_batch(dict(batch))
            assert sharded.rows() == plain.rows()
            assert sharded.verify()

    def test_sharded_seed_matches_pooled(self):
        r0 = [(i, i % 4) for i in range(8)]
        s0 = [(i % 4, i % 3) for i in range(8)]
        t0 = [(i, i % 3) for i in range(8)]
        inproc = LiveJoin(
            "Q", self._relations(r0, s0, t0), ExecSpec(shards=3, workers=0)
        )
        pooled = LiveJoin(
            "Q", self._relations(r0, s0, t0), ExecSpec(shards=3, workers=2)
        )
        assert inproc.rows() == pooled.rows()
        assert inproc.initial_ops == pooled.initial_ops

    def test_validation(self):
        with pytest.raises(ValueError):
            LiveJoin(
                "Q", self._relations([(1, 2)], [], []), ExecSpec(shards=0)
            )
        with pytest.raises(ValueError):
            LiveJoin(
                "Q", self._relations([(1, 2)], [], []), ExecSpec(workers=-1)
            )


class TestCertifySharded:
    def test_shard_certificates_all_pass(self):
        r = [(i, (i * 3) % 5) for i in range(6)]
        s = [((i * 3) % 5, i % 4) for i in range(6)]
        t = [(i, i % 4) for i in range(6)]
        query = triangle_query(r, s, t)
        prepared = query.with_gao(["A", "B", "C"])
        results = certify_sharded(prepared, ExecSpec(shards=3), samples=5)
        assert 1 < len(results) <= 3
        assert all(shard.passed for shard in results)
        seq = join(triangle_query(r, s, t), gao=["A", "B", "C"])
        assert sum(shard.rows for shard in results) == len(seq.rows)
        assert sum(shard.comparisons for shard in results) > 0

    @pytest.mark.parametrize("kind", ["crash", "poison"])
    def test_worker_fault_is_retried_not_hung(self, kind):
        """A dead or poisoned certify worker is a supervised attempt:
        detected, retried, and the certificates match the in-process
        run's."""
        r = [(i, (i * 3) % 5) for i in range(6)]
        s = [((i * 3) % 5, i % 4) for i in range(6)]
        t = [(i, i % 4) for i in range(6)]
        prepared = triangle_query(r, s, t).with_gao(["A", "B", "C"])
        inproc = certify_sharded(
            prepared, ExecSpec(shards=2, workers=0), samples=5
        )
        with worker_faults(kind, times=1) as plan:
            pooled = certify_sharded(
                prepared, ExecSpec(shards=2, workers=2), samples=5
            )
        assert plan.claimed == 1
        assert pooled == inproc


class TestSingleShardPool:
    """workers >= 1 is a real pool even when the plan has one shard."""

    def test_workers_one_runs_through_the_executor(self):
        r = [(i, i) for i in range(6)]
        plain = join(triangle_query(r, r, r), gao=["A", "B", "C"])
        pooled = join(
            triangle_query(r, r, r), gao=["A", "B", "C"], workers=1
        )
        assert pooled.shards == 1 and pooled.workers == 1
        assert plain.shards is None  # the plain path stays plain
        assert pooled.rows == plain.rows
        assert pooled.stats() == plain.stats()

"""Cross-cutting integration checks that fit no single module file."""

import random

import pytest

from repro.core.engine import JoinResult, join
from repro.core.query import Query, naive_join
from repro.core.triangle import TriangleMinesweeper
from repro.core.triangle_arena import ArenaTriangleMinesweeper
from repro.datasets.instances import triangle_with_output
from repro.storage.relation import Relation
from repro.util.counters import OpCounters


class TestBTreeBackendEndToEnd:
    """The index-model claim: a B-tree-backed relation joins identically."""

    @pytest.mark.parametrize("seed", range(4))
    def test_engine_agrees_across_backends(self, seed):
        rng = random.Random(seed)
        rows_r = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(10)}
        rows_s = {(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(10)}
        via_trie = Query(
            [
                Relation("R", ["A", "B"], rows_r, backend="trie"),
                Relation("S", ["B", "C"], rows_s, backend="trie"),
            ]
        )
        via_btree = Query(
            [
                Relation("R", ["A", "B"], rows_r, backend="btree"),
                Relation("S", ["B", "C"], rows_s, backend="btree"),
            ]
        )
        gao = ["A", "B", "C"]
        assert (
            sorted(join(via_trie, gao=gao).rows)
            == sorted(join(via_btree, gao=gao).rows)
            == naive_join(via_trie, gao)
        )


class TestDyadicInvariantAfterRealRuns:
    """Invariant (7) must hold after full triangle evaluations."""

    @pytest.mark.parametrize("seed", range(3))
    def test_invariant_post_run(self, seed):
        r, s, t = triangle_with_output(15, 5, seed=seed)
        for engine_cls in (TriangleMinesweeper, ArenaTriangleMinesweeper):
            engine = engine_cls(r, s, t)
            engine.run()
            engine.dyadic.check_invariant()


class TestJoinResultApi:
    def setup_method(self):
        self.result = join(
            Query(
                [
                    Relation("R", ["A", "B"], [(1, 2), (3, 4)]),
                    Relation("S", ["B", "C"], [(2, 5), (4, 6)]),
                ]
            ),
            gao=["A", "B", "C"],
        )

    def test_len_and_iter(self):
        assert len(self.result) == 2
        assert list(self.result) == self.result.rows

    def test_repr_mentions_findgap(self):
        assert "findgap" in repr(self.result)

    def test_stats_is_snapshot(self):
        stats = self.result.stats()
        stats["findgap"] = -1
        assert self.result.counters.findgap != -1


class TestQueryIntrospection:
    def setup_method(self):
        self.query = Query(
            [
                Relation("R", ["A", "B", "C"], [(1, 2, 3)]),
                Relation("S", ["C"], [(3,), (4,)]),
            ]
        )

    def test_total_tuples(self):
        assert self.query.total_tuples() == 3

    def test_max_arity(self):
        assert self.query.max_arity() == 3

    def test_relation_lookup(self):
        assert self.query.relation("S").arity == 1
        with pytest.raises(KeyError):
            self.query.relation("nope")

    def test_attributes_first_appearance_order(self):
        assert self.query.attributes() == ["A", "B", "C"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Query(
                [
                    Relation("R", ["A"], [(1,)]),
                    Relation("R", ["B"], [(1,)]),
                ]
            )

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            Query([])


class TestCountersSharedAcrossRelations:
    def test_one_counter_object_per_prepared_query(self):
        counters = OpCounters()
        query = Query(
            [
                Relation("R", ["A"], [(1,), (2,)]),
                Relation("S", ["A"], [(2,), (3,)]),
            ]
        )
        prepared = query.with_gao(["A"], counters=counters)
        for rel in prepared.relations:
            assert rel.counters is counters
        join(prepared, gao=["A"])
        assert counters.findgap > 0


class TestDeterminism:
    """Same input, same GAO => identical instrumentation (no hidden state)."""

    def test_repeat_runs_identical(self):
        rows_r = [(i, (7 * i) % 23) for i in range(40)]
        rows_s = [((7 * i) % 23, i) for i in range(40)]

        def run():
            q = Query(
                [
                    Relation("R", ["A", "B"], rows_r),
                    Relation("S", ["B", "C"], rows_s),
                ]
            )
            res = join(q, gao=["A", "B", "C"])
            return res.rows, res.stats()

        first, second = run(), run()
        assert first == second

"""Minesweeper outer-algorithm tests (Algorithm 2) and engine API."""

import random

import pytest

from repro.core.engine import join
from repro.core.minesweeper import Minesweeper, MinesweeperError
from repro.core.query import PreparedQuery, Query, naive_join
from repro.storage.relation import Relation
from repro.util.counters import OpCounters


def q(*rels):
    return Query([Relation(name, attrs, rows) for name, attrs, rows in rels])


class TestWorkedExampleD1:
    """Appendix D.1: the fully worked Q2 run (empty output)."""

    def make_query(self, n=4):
        return q(
            ("R", ["A1"], [(i,) for i in range(1, n + 1)]),
            (
                "S",
                ["A1", "A2"],
                [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)],
            ),
            ("T", ["A2", "A3"], [(2, 2), (2, 4)]),
            ("U", ["A3"], [(1,), (3,)]),
        )

    def test_output_empty(self):
        res = join(self.make_query(), gao=["A1", "A2", "A3"])
        assert res.rows == []

    def test_few_probes(self):
        """The appendix run finishes in 5 iterations; allow slack for the
        exploration differences but demand far fewer probes than N."""
        res = join(self.make_query(8), gao=["A1", "A2", "A3"])
        assert res.counters.probes <= 12


class TestBasicJoins:
    def test_two_relations(self):
        res = join(
            q(("R", ["A", "B"], [(1, 2), (2, 3)]), ("S", ["B", "C"], [(2, 9)]))
        )
        assert sorted(res.rows) == naive_join(
            q(("R", ["A", "B"], [(1, 2), (2, 3)]), ("S", ["B", "C"], [(2, 9)])),
            res.gao,
        )

    def test_single_relation(self):
        res = join(q(("R", ["A"], [(3,), (1,)])), gao=["A"])
        assert res.rows == [(1,), (3,)]

    def test_empty_relation(self):
        res = join(q(("R", ["A"], []), ("S", ["A"], [(1,)])), gao=["A"])
        # empty relation needs an arity hint through Relation; use fallback
        assert res.rows == []

    def test_disjoint_values(self):
        res = join(q(("R", ["A"], [(1,), (2,)]), ("S", ["A"], [(3,)])), gao=["A"])
        assert res.rows == []

    def test_self_join_same_schema(self):
        rows = [(1, 2), (3, 4)]
        res = join(
            q(("R", ["A", "B"], rows), ("S", ["A", "B"], rows)), gao=["A", "B"]
        )
        assert sorted(res.rows) == sorted(rows)

    def test_cross_product_no_shared_attrs(self):
        res = join(q(("R", ["A"], [(1,), (2,)]), ("S", ["B"], [(5,)])), gao=["A", "B"])
        assert sorted(res.rows) == [(1, 5), (2, 5)]

    def test_output_in_gao_order(self):
        res = join(
            q(("R", ["A", "B"], [(2, 1), (1, 2)])), gao=["B", "A"]
        )
        assert res.rows == [(1, 2), (2, 1)]


class TestStrategies:
    def setup_method(self):
        self.query = q(
            ("R", ["A", "B"], [(1, 2), (2, 5), (3, 2)]),
            ("S", ["B", "C"], [(2, 7), (5, 1)]),
            ("T", ["C"], [(1,), (7,)]),
        )

    def test_auto_picks_chain_for_neo(self):
        gao, kind = self.query.choose_gao()
        assert kind == "neo"
        prepared = self.query.with_gao(gao)
        engine = Minesweeper(prepared, strategy="auto")
        assert engine.strategy == "chain"

    def test_general_strategy_same_result(self):
        gao, _ = self.query.choose_gao()
        expected = naive_join(self.query, gao)
        for strategy in ("chain", "general"):
            prepared = self.query.with_gao(gao)
            got = Minesweeper(prepared, strategy=strategy).run()
            assert sorted(got) == expected

    def test_unknown_strategy_rejected(self):
        prepared = self.query.with_gao(self.query.choose_gao()[0])
        with pytest.raises(ValueError):
            Minesweeper(prepared, strategy="quantum")

    def test_triangle_auto_uses_general(self):
        tri = q(
            ("R", ["A", "B"], [(1, 1)]),
            ("S", ["B", "C"], [(1, 1)]),
            ("T", ["A", "C"], [(1, 1)]),
        )
        prepared = tri.with_gao(["A", "B", "C"])
        engine = Minesweeper(prepared, strategy="auto")
        assert engine.strategy == "general"
        assert engine.run() == [(1, 1, 1)]


class TestGaoHandling:
    def test_bad_gao_rejected(self):
        query = q(("R", ["A", "B"], [(1, 2)]))
        with pytest.raises(ValueError):
            query.with_gao(["A"])
        with pytest.raises(ValueError):
            query.with_gao(["A", "A"])

    def test_with_gao_reorders_columns(self):
        query = q(("R", ["A", "B"], [(1, 2), (3, 4)]))
        prepared = query.with_gao(["B", "A"])
        assert prepared.relation("R").attributes == ("B", "A")
        assert prepared.relation("R").tuples() == [(2, 1), (4, 3)]

    def test_is_gao_consistent(self):
        query = q(("R", ["A", "B"], [(1, 2)]))
        assert query.is_gao_consistent(["A", "B"])
        assert not query.is_gao_consistent(["B", "A"])

    def test_prepared_query_counters_shared(self):
        query = q(("R", ["A"], [(1,)]), ("S", ["A"], [(1,)]))
        c = OpCounters()
        prepared = query.with_gao(["A"], counters=c)
        Minesweeper(prepared).run()
        assert c.findgap > 0


class TestRandomizedAgainstNaive:
    SHAPES = [
        [("R", ["A", "B"]), ("S", ["B", "C"])],
        [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["A", "C"])],
        [("R", ["A"]), ("S", ["A", "B"]), ("T", ["B"])],
        [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["C", "D"])],
        [("R", ["A", "B", "C"]), ("S", ["A", "C"]), ("T", ["B", "C"])],
        [("R", ["A", "B"]), ("S", ["A", "B"])],
    ]

    @pytest.mark.parametrize("seed", range(12))
    def test_agreement(self, seed):
        rng = random.Random(seed)
        for _ in range(12):
            shape = rng.choice(self.SHAPES)
            dom = rng.randint(1, 6)
            rels = []
            for name, attrs in shape:
                rows = {
                    tuple(rng.randint(0, dom) for _ in attrs)
                    for _ in range(rng.randint(1, 9))
                }
                rels.append((name, attrs, rows))
            query = q(*rels)
            attrs = query.attributes()
            gao = rng.sample(attrs, len(attrs))
            expected = naive_join(query, gao)
            for strategy in ("auto", "general"):
                res = join(query, gao=gao, strategy=strategy)
                assert sorted(res.rows) == expected, (shape, gao, strategy)


class TestInstrumentation:
    def test_counters_populated(self):
        res = join(
            q(
                ("R", ["A", "B"], [(i, i + 1) for i in range(20)]),
                ("S", ["B", "C"], [(i, 2 * i) for i in range(20)]),
            )
        )
        stats = res.stats()
        assert stats["findgap"] > 0
        assert stats["probes"] > 0
        assert stats["constraints"] > 0
        assert res.certificate_estimate == stats["findgap"]

    def test_progress_guard_has_a_default_bound(self):
        query = q(("R", ["A"], [(1,)]))
        prepared = query.with_gao(["A"])
        engine = Minesweeper(prepared)
        # 1000 + 64 * 2^r * r * m * (N + 1) with r = m = N = 1
        assert engine.max_probes == 1000 + 64 * 2 * 1 * 1 * 2
        assert engine.run() == [(1,)]

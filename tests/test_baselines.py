"""Baseline engine tests: correctness vs naive, plus their instrumentation."""

import random

import pytest

from repro.baselines.hash_join import hash_join_plan
from repro.baselines.leapfrog import leapfrog_triejoin
from repro.baselines.nested_loop import block_nested_loop_join, naive_multiway_join
from repro.baselines.sort_merge import sort_merge_join
from repro.baselines.yannakakis import yannakakis_join
from repro.core.generic_join import generic_join
from repro.core.query import Query, naive_join
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

SHAPES = [
    [("R", ["A", "B"]), ("S", ["B", "C"])],
    [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["A", "C"])],
    [("R", ["A"]), ("S", ["A", "B"]), ("T", ["B"])],
    [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["C", "D"])],
    [("R", ["A", "B", "C"]), ("S", ["A", "C"]), ("T", ["B", "C"])],
]


def random_query(rng):
    shape = rng.choice(SHAPES)
    dom = rng.randint(1, 6)
    rels = []
    for name, attrs in shape:
        rows = {
            tuple(rng.randint(0, dom) for _ in attrs)
            for _ in range(rng.randint(1, 9))
        }
        rels.append(Relation(name, attrs, rows))
    query = Query(rels)
    attrs = query.attributes()
    gao = rng.sample(attrs, len(attrs))
    return query, gao


class TestBinaryJoins:
    def test_sort_merge_basic(self):
        got = sort_merge_join(
            [(1, 2), (3, 4)], [(2, 9), (2, 8)], left_key=[1], right_key=[0]
        )
        assert sorted(got) == [((1, 2), (2, 8)), ((1, 2), (2, 9))]

    def test_sort_merge_key_arity_check(self):
        with pytest.raises(ValueError):
            sort_merge_join([(1,)], [(1,)], left_key=[0], right_key=[])

    def test_block_nested_loop_matches_sort_merge(self):
        rng = random.Random(2)
        for _ in range(20):
            left = [
                (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(12)
            ]
            right = [
                (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(12)
            ]
            a = sorted(
                block_nested_loop_join(left, right, [0], [0], block_size=4)
            )
            b = sorted(sort_merge_join(left, right, [0], [0]))
            assert a == b

    def test_sort_merge_duplicates_cross(self):
        got = sort_merge_join(
            [(1,), (1,)], [(1,), (1,)], left_key=[0], right_key=[0]
        )
        assert len(got) == 4


class TestMultiwayEngines:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_agree_with_naive(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            query, gao = random_query(rng)
            expected = naive_join(query, gao)
            prepared = query.with_gao(gao)
            assert leapfrog_triejoin(prepared) == expected
            assert generic_join(prepared) == expected
            assert hash_join_plan(query, gao) == expected
            assert naive_multiway_join(query, gao) == expected
            if query.is_alpha_acyclic():
                assert yannakakis_join(query, gao) == expected

    def test_yannakakis_rejects_cyclic(self):
        tri = Query(
            [
                Relation("R", ["A", "B"], [(1, 1)]),
                Relation("S", ["B", "C"], [(1, 1)]),
                Relation("T", ["A", "C"], [(1, 1)]),
            ]
        )
        with pytest.raises(ValueError):
            yannakakis_join(tri, ["A", "B", "C"])

    def test_hash_join_explicit_order(self):
        q = Query(
            [
                Relation("R", ["A", "B"], [(1, 2)]),
                Relation("S", ["B", "C"], [(2, 3)]),
            ]
        )
        got = hash_join_plan(q, ["A", "B", "C"], order=["S", "R"])
        assert got == [(1, 2, 3)]
        with pytest.raises(ValueError):
            hash_join_plan(q, ["A", "B", "C"], order=["S"])

    def test_counters_populated(self):
        rng = random.Random(3)
        query, gao = random_query(rng)
        prepared = query.with_gao(gao)
        c1, c2, c3 = OpCounters(), OpCounters(), OpCounters()
        leapfrog_triejoin(prepared, c1)
        generic_join(prepared, c2)
        hash_join_plan(query, gao, counters=c3)
        assert c1.comparisons + c1.findgap > 0
        assert c2.comparisons + c2.findgap > 0
        assert c3.comparisons > 0


class TestYannakakisStructure:
    def test_disconnected_cross_product(self):
        q = Query(
            [
                Relation("R", ["A"], [(1,), (2,)]),
                Relation("S", ["B"], [(5,)]),
            ]
        )
        got = yannakakis_join(q, ["A", "B"])
        assert got == [(1, 5), (2, 5)]

    def test_semijoin_reduction_filters_dangling(self):
        """Dangling tuples never reach the join phase's output."""
        q = Query(
            [
                Relation("R", ["A", "B"], [(1, 1), (2, 9)]),
                Relation("S", ["B", "C"], [(1, 5)]),
            ]
        )
        got = yannakakis_join(q, ["A", "B", "C"])
        assert got == [(1, 1, 5)]

    def test_star_query(self):
        q = Query(
            [
                Relation("C", ["A", "B", "D"], [(1, 2, 3), (4, 5, 6)]),
                Relation("R1", ["A"], [(1,), (4,)]),
                Relation("R2", ["B"], [(2,)]),
            ]
        )
        got = yannakakis_join(q, ["A", "B", "D"])
        assert got == [(1, 2, 3)]

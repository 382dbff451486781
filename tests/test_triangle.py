"""Triangle engine tests (Theorem 5.4 / Appendix L)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import join
from repro.core.query import Query
from repro.core.triangle import DyadicTree, TriangleMinesweeper, triangle_join
from repro.datasets.instances import triangle_hard, triangle_with_output
from repro.storage.relation import Relation
from repro.util.counters import OpCounters
from repro.util.sentinels import NEG_INF, POS_INF


def naive_triangles(r_edges, s_edges, t_edges):
    s_by_b = {}
    for b, c in s_edges:
        s_by_b.setdefault(b, []).append(c)
    t_set = set(t_edges)
    out = set()
    for a, b in r_edges:
        for c in s_by_b.get(b, ()):
            if (a, c) in t_set:
                out.add((a, b, c))
    return sorted(out)


class TestDyadicTree:
    def test_leaf_insert_covers(self):
        c = OpCounters()
        tree = DyadicTree(8, c)
        tree.insert_leaf(3, 2, 9)
        leaf = tree.node_list(tree.depth, 3)
        assert leaf is not None and leaf.covers(5)

    def test_propagation_needs_both_children(self):
        c = OpCounters()
        tree = DyadicTree(2, c)
        tree.insert_leaf(0, 0, 10)
        root = tree.node_list(0, 0)
        assert root is None or not root.covers(5)
        tree.insert_leaf(1, 3, 7)
        root = tree.node_list(0, 0)
        assert root is not None and root.covers(5)
        assert not root.covers(8)

    def test_invariant_random(self):
        rng = random.Random(0)
        for _ in range(30):
            c = OpCounters()
            n = rng.choice([2, 4, 8])
            tree = DyadicTree(n, c)
            for _ in range(rng.randint(1, 25)):
                leaf = rng.randrange(n)
                lo = rng.randint(-2, 12)
                tree.insert_leaf(leaf, lo, lo + rng.randint(1, 6))
            tree.check_invariant()

    def test_infinite_endpoints(self):
        c = OpCounters()
        tree = DyadicTree(2, c)
        tree.insert_leaf(0, NEG_INF, POS_INF)
        tree.insert_leaf(1, NEG_INF, 5)
        root = tree.node_list(0, 0)
        assert root is not None
        assert root.covers(-3)
        assert not root.covers(5)

    def test_depth_padding(self):
        c = OpCounters()
        assert DyadicTree(5, c).depth == 3  # padded to 8 leaves
        assert DyadicTree(8, c).depth == 3
        assert DyadicTree(1, c).depth == 1


class TestCorrectness:
    def test_single_triangle(self):
        assert triangle_join([(1, 2)], [(2, 3)], [(1, 3)]) == [(1, 2, 3)]

    def test_no_triangle(self):
        assert triangle_join([(1, 2)], [(2, 3)], [(9, 9)]) == []

    def test_empty_input_yields_empty_output(self):
        assert triangle_join([], [(1, 1)], [(1, 1)]) == []

    def test_self_loops_fine(self):
        assert triangle_join([(0, 0)], [(0, 0)], [(0, 0)]) == [(0, 0, 0)]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_agreement(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            dom = rng.randint(1, 9)

            def edges():
                n = rng.randint(1, 14)
                return sorted(
                    {
                        (rng.randint(0, dom), rng.randint(0, dom))
                        for _ in range(n)
                    }
                )

            r, s, t = edges(), edges(), edges()
            assert triangle_join(r, s, t) == naive_triangles(r, s, t)

    def test_matches_generic_engine(self):
        r, s, t = triangle_with_output(12, 6, seed=3)
        query = Query(
            [
                Relation("R", ["A", "B"], r),
                Relation("S", ["B", "C"], s),
                Relation("T", ["A", "C"], t),
            ]
        )
        generic = join(query, gao=["A", "B", "C"], strategy="general")
        assert triangle_join(r, s, t) == sorted(generic.rows)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 12), st.integers(0, 12)),
                max_size=40,
            ),
            min_size=3,
            max_size=3,
        ),
        st.sampled_from(["arena", "pointer"]),
    )
    def test_output_ascends_without_a_sort(self, edge_sets, cds_backend):
        """Probes arrive in ascending (a, b, c) order, so ``run``
        returns its rows strictly ascending with no final sort."""
        r, s, t = edge_sets
        got = triangle_join(r, s, t, cds_backend=cds_backend)
        assert all(x < y for x, y in zip(got, got[1:]))
        assert got == naive_triangles(r, s, t)

    def test_planted_triangles_found(self):
        r, s, t = triangle_with_output(30, 10, seed=1)
        got = triangle_join(r, s, t)
        assert got == naive_triangles(r, s, t)
        assert len(got) >= 10 or got == naive_triangles(r, s, t)


class TestAdaptivity:
    def test_hard_instance_near_quadratic_growth(self):
        """On the hard family (|C| = Θ(n²)) the dyadic CDS's work grows
        ~n² (= Õ(|C|)), not the ~n³ of per-(a,b) rediscovery: doubling n
        must scale work by well under 2³."""

        def work(n):
            r, s, t, _ = triangle_hard(n)
            counters = OpCounters()
            assert triangle_join(r, s, t, counters) == []
            return counters.total_work()

        growth = work(24) / work(12)
        assert growth < 6.0  # quadratic+log ≈ 4.6; cubic would be 8

    def test_cache_reused(self):
        r, s, t, _ = triangle_hard(8)
        counters = OpCounters()
        triangle_join(r, s, t, counters)
        assert counters.cache_hits > 0

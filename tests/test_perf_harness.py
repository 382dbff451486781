"""Tests for the engine fast paths added with the array-backed storage engine:

* ``_check_sorted_sets`` empty-set short-circuit (intersection semantics);
* the counting-free intersection fast path vs the instrumented loop;
* NullCounters protocol;
* the index tier (``Relation`` always builds the flat trie; the pointer
  trie is wrapped with ``Relation.from_index``), and trie-vs-flat parity
  of rows *and* op counts through ``join`` and the triangle engines;
* the galloping search helpers.
"""

import random

import pytest

from repro.core.engine import join
from repro.core.intersection import (
    _check_sorted_sets,
    intersect_sorted,
    intersection_certificate_size,
    merge_intersection,
    partition_certificate,
)
from repro.core.query import Query
from repro.core.triangle import TriangleMinesweeper, triangle_join
from repro.datasets.instances import (
    intersection_with_overlap,
    triangle_hard,
    triangle_with_output,
)
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.relation import Relation
from repro.storage.trie import TrieRelation
from repro.util.counters import NullCounters, OpCounters
from repro.util.search import gallop_left, gallop_right


class TestEmptySetShortCircuit:
    def test_reports_first_empty_index(self):
        cleaned, first_empty = _check_sorted_sets([[1, 2], [], [3]])
        assert first_empty == 1
        assert cleaned == [[1, 2]]

    def test_short_circuits_validation_after_empty(self):
        # The unsorted set *after* the empty one is never validated: the
        # intersection is already known to be empty.
        cleaned, first_empty = _check_sorted_sets([[], [3, 1, 2]])
        assert first_empty == 0
        assert cleaned == []

    def test_unsorted_before_empty_still_rejected(self):
        with pytest.raises(ValueError):
            _check_sorted_sets([[3, 1], []])

    def test_no_sets_rejected(self):
        with pytest.raises(ValueError):
            _check_sorted_sets([])

    def test_callers_handle_empty(self):
        sets = [[1, 2, 3], []]
        assert intersect_sorted(sets) == []
        assert intersect_sorted(sets, OpCounters()) == []
        assert merge_intersection(sets) == []
        assert intersection_certificate_size(sets) == 1
        items = partition_certificate(sets)
        assert items == [("gap", (items[0][1][0], items[0][1][1], 1))]


class TestIntersectionFastPath:
    @pytest.mark.parametrize("seed", range(6))
    def test_fast_path_matches_instrumented(self, seed):
        rng = random.Random(seed)
        m = rng.randint(2, 5)
        sets = [
            sorted(rng.sample(range(200), rng.randint(1, 80)))
            for _ in range(m)
        ]
        counters = OpCounters()
        assert intersect_sorted(sets) == intersect_sorted(sets, counters)
        assert intersect_sorted(sets, NullCounters()) == intersect_sorted(
            sets, counters
        )
        assert counters.findgap > 0

    def test_overlap_instance(self):
        sets = intersection_with_overlap(2_000, 25, seed=9)
        assert len(intersect_sorted(sets)) == 25


class TestNullCounters:
    def test_flags(self):
        assert OpCounters.enabled is True
        assert NullCounters.enabled is False
        assert isinstance(NullCounters(), OpCounters)

    def test_snapshot_empty(self):
        null = NullCounters()
        null.findgap += 5
        assert null.snapshot() == {}

    def test_trie_skips_counting_under_null(self):
        null = NullCounters()
        for cls in (TrieRelation, FlatTrieRelation):
            trie = cls([(1, 2)], counters=null)
            trie.find_gap((), 1)
        assert null.findgap == 0  # the guarded hot path never counted


def _relation(name, attrs, rows, tier):
    """A relation on the fast tier (what ``Relation(...)`` always
    builds) or on the plain tier's pointer trie, wrapped with
    ``Relation.from_index`` — no argument picks the tier."""
    if tier == "flat":
        return Relation(name, attrs, rows)
    return Relation.from_index(
        name, attrs, TrieRelation(rows, arity=len(attrs))
    )


class TestBackendFlag:
    def test_unknown_backend_rejected(self):
        """``Relation`` takes no tier name at all."""
        with pytest.raises(TypeError):
            Relation("R", ["A"], [(1,)], backend="rocksdb")

    def test_auto_resolves_to_flat(self):
        rel = Relation("R", ["A", "B"], [(1, 2)])
        assert isinstance(rel.index, FlatTrieRelation)
        assert not hasattr(rel, "backend")

    @pytest.mark.parametrize("backend,index_type", [
        ("flat", FlatTrieRelation),
        ("trie", TrieRelation),
    ])
    def test_explicit_backends(self, backend, index_type):
        rel = _relation("R", ["A", "B"], [(1, 2), (2, 1)], backend)
        assert isinstance(rel.index, index_type)
        assert rel.tuples() == [(1, 2), (2, 1)]

    def test_with_gao_builds_the_fast_tier(self):
        """``with_gao`` keeps a relation already in GAO order as it is,
        pointer trie included, and re-indexes a permuted one into a
        flat trie."""
        kept = _relation("R", ["A", "B"], [(1, 2)], "trie")
        permuted = _relation("S", ["B", "A"], [(1, 2)], "trie")
        prepared = Query([kept, permuted]).with_gao(["A", "B"])
        assert prepared.relation("R") is kept
        assert isinstance(kept.index, TrieRelation)
        rebuilt = prepared.relation("S")
        assert isinstance(rebuilt.index, FlatTrieRelation)
        assert rebuilt.tuples() == [(2, 1)]

    def test_join_refuses_an_index_tier(self):
        """The tier is fixed where the relation is built: ``join``'s
        ``backend`` keyword accepts only ``None``."""
        query = Query([_relation("R", ["A", "B"], [(1, 2)], "trie")])
        assert join(query, gao=["A", "B"], backend=None).rows == [(1, 2)]
        for tier in ("flat", "trie", "auto"):
            with pytest.raises(ValueError, match="no index tier"):
                join(query, backend=tier)

    def test_join_backends_agree(self):
        r, s, t, _ = triangle_hard(8)
        results = {}
        for backend in ("flat", "trie"):
            query = Query(
                [
                    _relation("R", ["A", "B"], r, backend),
                    _relation("S", ["B", "C"], s, backend),
                    _relation("T", ["A", "C"], t, backend),
                ]
            )
            res = join(query, gao=["A", "B", "C"], strategy="general")
            results[backend] = (res.rows, res.stats())
            # the counting-free run of the same query agrees on rows
            fast = join(
                query, gao=["A", "B", "C"], strategy="general",
                counters=NullCounters(),
            )
            assert fast.rows == res.rows
        assert results["flat"] == results["trie"]

    @pytest.mark.parametrize("gao", [("A", "B", "C"), ("C", "A", "B")])
    def test_join_backends_agree_on_a_ternary_relation(self, gao):
        """A ternary relation beside two binary ones: the flat tier
        explores it through the node-handle walk and tallies what the
        pointer trie does, row for row and op for op."""
        rng = random.Random(11)
        w = sorted({
            (rng.randrange(12), rng.randrange(12), rng.randrange(12))
            for _ in range(300)
        })
        r = sorted({(rng.randrange(12), rng.randrange(12)) for _ in range(60)})
        s = sorted({(rng.randrange(12), rng.randrange(12)) for _ in range(60)})
        results = {}
        for backend in ("flat", "trie"):
            query = Query(
                [
                    _relation("W", ["A", "B", "C"], w, backend),
                    _relation("R", ["A", "B"], r, backend),
                    _relation("S", ["B", "C"], s, backend),
                ]
            )
            res = join(query, gao=list(gao))
            results[backend] = (res.rows, res.stats())
        assert results["flat"][0]
        assert results["flat"] == results["trie"]

    @pytest.mark.parametrize("make,planted", [
        (lambda: triangle_hard(32)[:3], 0),
        (lambda: triangle_hard(48)[:3], 0),
        (lambda: triangle_with_output(100, 25, seed=5), 25),
        (lambda: triangle_with_output(300, 75, seed=5), 75),
    ], ids=["hard-32", "hard-48", "planted-100", "planted-300"])
    def test_triangle_join_backends_agree(self, make, planted):
        """The plain dyadic engine over the pointer trie, built here,
        and ``triangle_join``'s arena engine over the flat (CSR) trie:
        same rows, same op snapshot; and the counting-free run returns
        those rows too."""
        r, s, t = make()
        counters = OpCounters()
        plain = TriangleMinesweeper(r, s, t, counters, backend="trie").run()
        plain_outcome = (plain, counters.snapshot())
        counters = OpCounters()
        rows = triangle_join(r, s, t, counters)
        snapshot = counters.snapshot()
        assert plain_outcome == (rows, snapshot)
        assert snapshot["findgap"] > 0
        assert len(rows) >= planted
        assert triangle_join(r, s, t, NullCounters()) == rows


class TestGallop:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_bisect(self, seed):
        import bisect

        rng = random.Random(seed)
        data = sorted(rng.sample(range(300), rng.randint(0, 100)))
        for _ in range(50):
            x = rng.randrange(-5, 305)
            lo = rng.randint(0, max(len(data), 1)) if data else 0
            lo = min(lo, len(data))
            assert gallop_left(data, x, lo) == bisect.bisect_left(
                data, x, lo
            )
            assert gallop_right(data, x, lo) == bisect.bisect_right(
                data, x, lo
            )

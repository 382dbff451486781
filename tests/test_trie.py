"""TrieRelation tests: the paper's index model (Section 2.1)."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.trie import TrieRelation
from repro.util.counters import OpCounters
from repro.util.sentinels import NEG_INF, POS_INF

PAPER_EXAMPLE = [(1, 1), (1, 8), (2, 3), (2, 4)]  # Section 2.1 example


class TestConstruction:
    def test_dedupes(self):
        t = TrieRelation([(1, 2), (1, 2)], arity=2)
        assert len(t) == 1

    def test_arity_inferred(self):
        t = TrieRelation([(1, 2, 3)])
        assert t.arity == 3

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            TrieRelation([(1, 2)], arity=3)

    def test_mixed_arity_rejected(self):
        with pytest.raises(ValueError):
            TrieRelation([(1, 2), (1,)])

    def test_empty_needs_arity(self):
        with pytest.raises(ValueError):
            TrieRelation([])
        t = TrieRelation([], arity=2)
        assert len(t) == 0
        assert t.fanout(()) == 0

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            TrieRelation([("a",)])
        with pytest.raises(TypeError):
            TrieRelation([(True,)])

    def test_contains(self):
        t = TrieRelation(PAPER_EXAMPLE)
        assert (2, 3) in t
        assert (2, 5) not in t


class TestIndexTupleAccess:
    """The Section 2.1 example: R = {(1,1),(1,8),(2,3),(2,4)}."""

    def setup_method(self):
        self.t = TrieRelation(PAPER_EXAMPLE)

    def test_root_values(self):
        assert self.t.child_values(()) == [1, 2]

    def test_r2_is_2(self):
        assert self.t.value((2,)) == 2

    def test_r1_star(self):
        assert self.t.child_values((1,)) == [1, 8]

    def test_r21_is_3(self):
        assert self.t.value((2, 1)) == 3

    def test_out_of_range_conventions(self):
        assert self.t.value((0,)) is NEG_INF
        assert self.t.value((3,)) is POS_INF
        assert self.t.value((1, 0)) is NEG_INF
        assert self.t.value((1, 3)) is POS_INF

    def test_interior_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            self.t.value((0, 1))
        with pytest.raises(IndexError):
            self.t.value((2, 9))
        with pytest.raises(IndexError):
            self.t.value((5,))

    def test_fanout(self):
        assert self.t.fanout(()) == 2
        assert self.t.fanout((1,)) == 2

    def test_tuples_sorted(self):
        assert self.t.tuples() == sorted(PAPER_EXAMPLE)


class TestFindGap:
    def setup_method(self):
        self.t = TrieRelation(PAPER_EXAMPLE)

    def test_present_value(self):
        assert self.t.find_gap((), 2) == (2, 2)
        assert self.t.find_gap((1,), 8) == (2, 2)

    def test_between_values(self):
        assert self.t.find_gap((1,), 5) == (1, 2)

    def test_below_everything(self):
        assert self.t.find_gap((), 0) == (0, 1)

    def test_above_everything(self):
        assert self.t.find_gap((), 9) == (2, 3)

    def test_too_deep_rejected(self):
        with pytest.raises(ValueError):
            self.t.find_gap((1, 1), 5)

    def test_counter_incremented(self):
        c = OpCounters()
        t = TrieRelation(PAPER_EXAMPLE, counters=c)
        t.find_gap((), 1)
        t.find_gap((1,), 1)
        assert c.findgap == 2

    def test_gap_values(self):
        assert self.t.gap_values((1,), 5) == (1, 8)
        assert self.t.gap_values((), 0) == (NEG_INF, 1)
        assert self.t.gap_values((), 99) == (2, POS_INF)


class TestNodeHandles:
    def test_walk(self):
        t = TrieRelation(PAPER_EXAMPLE)
        root = t.root_handle()
        assert t.node_keys(root) == [1, 2]
        child = t.child_at(root, 2)
        assert t.node_keys(child) == [3, 4]
        assert t.child_at(child, 1) is None  # leaf level


@settings(max_examples=150)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
        min_size=1,
        max_size=25,
    ),
    st.integers(0, 9),
)
def test_find_gap_matches_bisect_spec(rows, probe):
    """find_gap at any reachable prefix matches the bisect specification."""
    t = TrieRelation(rows)
    distinct = sorted({r[0] for r in rows})
    lo, hi = t.find_gap((), probe)
    i = bisect.bisect_left(distinct, probe)
    if i < len(distinct) and distinct[i] == probe:
        assert (lo, hi) == (i + 1, i + 1)
    else:
        assert (lo, hi) == (i, i + 1)
    # One level down along the first branch.
    level2 = sorted({r[1] for r in rows if r[0] == distinct[0]})
    lo2, hi2 = t.find_gap((1,), probe)
    j = bisect.bisect_left(level2, probe)
    if j < len(level2) and level2[j] == probe:
        assert (lo2, hi2) == (j + 1, j + 1)
    else:
        assert (lo2, hi2) == (j, j + 1)

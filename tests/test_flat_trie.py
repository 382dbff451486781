"""FlatTrieRelation equivalence: property-checked against TrieRelation.

The flat (CSR) trie must be a *drop-in* for the pointer trie: identical
``find_gap`` answers (including FindGap counting), identical value /
fanout / child_values semantics with the 1-based and 0 / len+1
out-of-range conventions, and an equivalent handle API.  These tests
drive both implementations with the same randomized relations and
index-tuple schedules and demand equality everywhere — and, since the
index-tuple API is one mixin over each index's handles, the same for a
layered ``DeltaRelation``, errors included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.delta import DeltaRelation
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.index_tuple import IndexTupleAPI
from repro.storage.trie import TrieRelation
from repro.util.counters import NullCounters, OpCounters
from repro.util.sentinels import NEG_INF, POS_INF

PAPER_EXAMPLE = [(1, 1), (1, 8), (2, 3), (2, 4)]  # Section 2.1 example

rows_strategy = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)),
    min_size=1,
    max_size=30,
)


def _all_index_tuples(trie, max_len):
    """Every in-range index tuple of length < max_len (probe prefixes)."""
    out = [()]
    frontier = [()]
    for _ in range(max_len - 1):
        nxt = []
        for chain in frontier:
            for x in range(1, trie.fanout(chain) + 1):
                nxt.append(chain + (x,))
        out.extend(nxt)
        frontier = nxt
    return out


class TestPaperExample:
    def setup_method(self):
        self.flat = FlatTrieRelation(PAPER_EXAMPLE)
        self.ref = TrieRelation(PAPER_EXAMPLE)

    def test_basics(self):
        assert len(self.flat) == len(self.ref) == 4
        assert self.flat.arity == 2
        assert self.flat.tuples() == self.ref.tuples()
        assert (2, 3) in self.flat and (2, 5) not in self.flat

    def test_child_values_and_fanout(self):
        assert self.flat.child_values(()) == [1, 2]
        assert self.flat.child_values((1,)) == [1, 8]
        assert self.flat.fanout(()) == 2
        assert self.flat.fanout((2,)) == 2

    def test_out_of_range_conventions(self):
        assert self.flat.value((0,)) is NEG_INF
        assert self.flat.value((3,)) is POS_INF
        assert self.flat.value((1, 0)) is NEG_INF
        assert self.flat.value((1, 3)) is POS_INF

    def test_interior_out_of_range_rejected(self):
        with pytest.raises(IndexError):
            self.flat.value((0, 1))
        with pytest.raises(IndexError):
            self.flat.value((5,))
        with pytest.raises(IndexError):
            self.flat.fanout((9,))

    def test_too_deep_rejected(self):
        with pytest.raises(ValueError):
            self.flat.find_gap((1, 1), 5)
        with pytest.raises(IndexError):
            self.flat.fanout((1, 1))

    def test_find_gap_counter(self):
        counters = OpCounters()
        flat = FlatTrieRelation(PAPER_EXAMPLE, counters=counters)
        flat.find_gap((), 1)
        flat.find_gap((1,), 1)
        assert counters.findgap == 2

    def test_null_counters_are_free_but_valid(self):
        flat = FlatTrieRelation(PAPER_EXAMPLE, counters=NullCounters())
        assert flat.find_gap((), 2) == TrieRelation(PAPER_EXAMPLE).find_gap((), 2)

    def test_node_handles(self):
        root = self.flat.root_handle()
        assert self.flat.node_keys(root) == [1, 2]
        child = self.flat.child_at(root, 2)
        assert self.flat.node_keys(child) == [3, 4]
        assert self.flat.child_at(child, 1) is None  # leaf level


class TestConstructionParity:
    def test_empty_relation(self):
        flat = FlatTrieRelation([], arity=2)
        assert len(flat) == 0
        assert flat.fanout(()) == 0
        assert flat.find_gap((), 5) == (0, 1)
        with pytest.raises(ValueError):
            FlatTrieRelation([])

    def test_arity_and_type_validation(self):
        with pytest.raises(ValueError):
            FlatTrieRelation([(1, 2)], arity=3)
        with pytest.raises(ValueError):
            FlatTrieRelation([(1, 2), (1,)])
        with pytest.raises(TypeError):
            FlatTrieRelation([("a",)])
        with pytest.raises(TypeError):
            FlatTrieRelation([(True,)])

    def test_dedupes(self):
        assert len(FlatTrieRelation([(1, 2), (1, 2)])) == 1


@settings(max_examples=200)
@given(rows_strategy, st.integers(-1, 10))
def test_find_gap_equivalent_everywhere(rows, probe):
    """find_gap agrees with the pointer trie at *every* reachable prefix."""
    flat = FlatTrieRelation(rows)
    ref = TrieRelation(rows)
    for chain in _all_index_tuples(ref, ref.arity):
        assert flat.find_gap(chain, probe) == ref.find_gap(chain, probe)
        assert flat.gap_values(chain, probe) == ref.gap_values(chain, probe)


@settings(max_examples=150)
@given(rows_strategy)
def test_structure_equivalent(rows):
    """fanout / child_values / value agree on every index tuple, including
    the out-of-range coordinates 0 and fanout+1."""
    flat = FlatTrieRelation(rows)
    ref = TrieRelation(rows)
    assert flat.tuples() == ref.tuples()
    for chain in _all_index_tuples(ref, ref.arity):
        assert flat.fanout(chain) == ref.fanout(chain)
        assert flat.child_values(chain) == ref.child_values(chain)
        fan = ref.fanout(chain)
        for x in (0, fan + 1) + tuple(range(1, fan + 1)):
            assert flat.value(chain + (x,)) == ref.value(chain + (x,))


@settings(max_examples=100)
@given(rows_strategy, st.integers(-1, 10))
def test_findgap_counting_equivalent(rows, probe):
    """Both backends tally exactly one FindGap per find_gap call."""
    c_flat, c_ref = OpCounters(), OpCounters()
    flat = FlatTrieRelation(rows, counters=c_flat)
    ref = TrieRelation(rows, counters=c_ref)
    for chain in _all_index_tuples(ref, ref.arity):
        flat.find_gap(chain, probe)
        ref.find_gap(chain, probe)
    assert c_flat.findgap == c_ref.findgap > 0


@settings(max_examples=100)
@given(rows_strategy, st.integers(-1, 10))
def test_handle_api_equivalent(rows, probe):
    """gap_at / value_at / child_at walks mirror the index-tuple API."""
    flat = FlatTrieRelation(rows)
    ref = TrieRelation(rows)

    def walk(flat_node, ref_node, chain):
        assert flat.fanout_at(flat_node) == ref.fanout_at(ref_node)
        assert flat.gap_at(flat_node, probe) == ref.gap_at(ref_node, probe)
        assert flat.gap_at(flat_node, probe) == flat.find_gap(chain, probe)
        fan = ref.fanout_at(ref_node)
        assert flat.value_at(flat_node, 0) is NEG_INF
        assert flat.value_at(flat_node, fan + 1) is POS_INF
        for x in range(1, fan + 1):
            assert flat.value_at(flat_node, x) == ref.value_at(ref_node, x)
            flat_child = flat.child_at(flat_node, x)
            ref_child = ref.child_at(ref_node, x)
            assert (flat_child is None) == (ref_child is None)
            if flat_child is not None:
                walk(flat_child, ref_child, chain + (x,))

    walk(flat.root_handle(), ref.root_handle(), ())


INDEX_TUPLE_METHODS = ("fanout", "value", "child_values", "find_gap", "gap_values")

coordinate = st.one_of(st.integers(0, 3), st.integers(-1, 11))


def _layered_delta(rows, doomed, counters):
    """``rows`` as a DeltaRelation reached through writes: an adopted
    index, then batches that insert the ``doomed`` rows (moved off
    ``rows``' domain) and delete them again — spliced, or rebuilt when
    a batch outgrows the view's splice budget."""
    live = sorted(set(rows))
    doomed = sorted({(a + 9, b, c) for a, b, c in doomed})
    delta = DeltaRelation(
        FlatTrieRelation(live[0::3], arity=3), counters=counters
    )
    delta.apply(inserts=doomed[0::2])
    delta.apply(inserts=live[1::3] + doomed[1::2], deletes=doomed[0::2])
    delta.apply(inserts=live[2::3] + [(99, 99, 99)], deletes=doomed[1::2])
    delta.delete((99, 99, 99))
    assert delta.tuples() == live
    return delta


def _outcome(call):
    try:
        return ("ok", call())
    except (IndexError, ValueError) as exc:
        return ("raised", type(exc))


@settings(max_examples=150)
@given(
    rows_strategy,
    rows_strategy,
    st.lists(st.lists(coordinate, max_size=4).map(tuple), max_size=12),
    st.integers(-1, 10),
)
def test_index_tuple_api_is_one_mixin_over_every_index(
    rows, doomed, random_tuples, probe
):
    """Flat, pointer and a layered DeltaRelation answer every index-tuple
    call identically — values, FindGap tallies and the exception type —
    on reachable tuples, on coordinates 0 / fanout+1 / beyond at every
    position, and on tuples that descend past the arity."""
    tallies = [OpCounters(), OpCounters(), OpCounters()]
    indexes = [
        FlatTrieRelation(rows, counters=tallies[0]),
        TrieRelation(rows, counters=tallies[1]),
        _layered_delta(rows, doomed, tallies[2]),
    ]
    for index in indexes:
        for method in INDEX_TUPLE_METHODS:
            assert getattr(type(index), method) is getattr(IndexTupleAPI, method)
    ref = indexes[1]
    schedule = list(random_tuples)
    for chain in _all_index_tuples(ref, ref.arity + 1):
        fan = ref.fanout(chain) if len(chain) < ref.arity else 0
        schedule.append(chain)
        schedule.extend(chain + (x,) for x in (0, fan + 1, fan + 2, -1))
        schedule.extend(chain[:i] + (0,) + chain[i + 1:] for i in range(len(chain)))
    for index_tuple in schedule:
        for method in INDEX_TUPLE_METHODS:
            args = (index_tuple, probe) if "gap" in method else (index_tuple,)
            flat, pointer, delta = (
                _outcome(lambda: getattr(index, method)(*args))
                for index in indexes
            )
            assert flat == pointer == delta, (method, index_tuple)
    assert tallies[0].findgap == tallies[1].findgap == tallies[2].findgap > 0

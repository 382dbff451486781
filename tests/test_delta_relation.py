"""DeltaRelation equivalence: property-checked against FlatTrie.

The writable relation must be indistinguishable from a
``FlatTrieRelation`` built from scratch over the same live tuple set —
after *any* sequence of inserts and deletes, and as soon as each write
returns.  These tests drive randomized op sequences against a model set
and demand equality of the full trie + node-handle API, then check the
write path (splice or rebuild, the copy of an adopted index) and engine
integration.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import join
from repro.core.query import Query
from repro.dynamic.log import parse_update
from repro.net import TenantRegistry, TenantSpec
from repro.storage.delta import DeltaRelation, StaleHandleError
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

PAPER_EXAMPLE = [(1, 1), (1, 8), (2, 3), (2, 4)]  # Section 2.1 example

rows2 = st.tuples(st.integers(0, 6), st.integers(0, 6))
#: op sequences: ("insert", row) / ("delete", row)
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), rows2), max_size=60
)


def apply_ops(delta, model, ops):
    for op in ops:
        if op[0] == "insert":
            changed = delta.insert(op[1])
            assert changed == (op[1] not in model)
            model.add(op[1])
        else:
            changed = delta.delete(op[1])
            assert changed == (op[1] in model)
            model.discard(op[1])


def assert_trie_equivalent(delta, reference):
    """Full trie + handle API equality against a from-scratch FlatTrie."""
    assert len(delta) == len(reference)
    assert delta.tuples() == reference.tuples()
    # walk every node of both tries in lockstep via the handle API
    stack = [((), delta.root_handle(), reference.root_handle())]
    while stack:
        chain, d_node, r_node = stack.pop()
        fan = reference.fanout_at(r_node)
        assert delta.fanout_at(d_node) == fan
        assert delta.fanout(chain) == fan
        child_vals = reference.node_keys(r_node)
        assert delta.node_keys(d_node) == child_vals
        assert delta.child_values(chain) == child_vals
        for a in range(-1, 8):
            gap = reference.gap_at(r_node, a)
            assert delta.gap_at(d_node, a) == gap
            assert delta.find_gap(chain, a) == gap
            assert delta.gap_values(chain, a) == reference.gap_values(
                chain, a
            )
        for pos in range(fan + 2):
            assert delta.value_at(d_node, pos) == reference.value_at(
                r_node, pos
            )
            assert delta.value(chain + (pos,)) == reference.value(
                chain + (pos,)
            )
        for pos in range(1, fan + 1):
            r_child = reference.child_at(r_node, pos)
            d_child = delta.child_at(d_node, pos)
            if r_child is None:
                assert d_child is None
            else:
                stack.append((chain + (pos,), d_child, r_child))


class TestRandomizedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(initial=st.lists(rows2, max_size=15), ops=ops_strategy)
    def test_any_op_sequence_matches_fresh_flat_trie(self, initial, ops):
        delta = DeltaRelation(initial, arity=2)
        model = set(initial)
        apply_ops(delta, model, ops)
        reference = FlatTrieRelation(sorted(model), arity=2)
        assert_trie_equivalent(delta, reference)
        for row in [(v, w) for v in range(7) for w in range(7)]:
            assert (row in delta) == (row in model)

    @settings(max_examples=30, deadline=None)
    @given(initial=st.lists(rows2, max_size=10), ops=ops_strategy)
    def test_minesweeper_runs_on_delta_unchanged(self, initial, ops):
        """Engines see a DeltaRelation exactly like a static relation."""
        delta = DeltaRelation(initial, arity=2)
        model = set(initial)
        apply_ops(delta, model, ops)
        live = Relation.from_index("R", ["A", "B"], delta)
        static = Relation("R", ["A", "B"], sorted(model))
        s = [(1, 3), (2, 5), (4, 4)]
        dynamic_result = join(
            Query([live, Relation("S", ["B", "C"], s)]), gao=["A", "B", "C"]
        )
        static_result = join(
            Query([static, Relation("S", ["B", "C"], s)]),
            gao=["A", "B", "C"],
        )
        assert dynamic_result.rows == static_result.rows
        assert dynamic_result.stats() == static_result.stats()


class TestLsmMechanics:
    """Write-path bookkeeping: ``stats()`` and input validation."""

    def test_initial_rows_form_a_run(self):
        delta = DeltaRelation(PAPER_EXAMPLE)
        assert delta.stats() == {
            "runs": 1, "inserts": 0, "deletes": 0, "view_builds": 0,
        }
        assert delta.tuples() == sorted(PAPER_EXAMPLE)

    def test_flush_and_compact_are_noops_when_clean(self):
        """The FLUSH / COMPACT statements validate their target and bump
        the catalog generation, but leave every index as it was."""
        from repro.dynamic import Catalog, Update

        catalog = Catalog()
        catalog.create_relation("R", ["A", "B"], PAPER_EXAMPLE)
        catalog.apply_batch([Update("R", "-", (2, 3))])
        delta = catalog.delta("R")
        view, arrays, stats = delta._view, csr_arrays(delta._view), delta.stats()
        generation = catalog.generation
        catalog.flush()
        catalog.compact("R")
        assert delta._view is view and csr_arrays(view) == arrays
        assert delta.stats() == stats
        assert catalog.generation == generation + 2
        with pytest.raises(KeyError):
            catalog.compact("NOPE")

    def test_compact_to_empty(self):
        """Deleting every row leaves ``runs`` at 0, the value storage
        dashboards read for an empty relation."""
        delta = DeltaRelation(PAPER_EXAMPLE)
        for row in PAPER_EXAMPLE:
            delta.delete(row)
        assert delta.stats()["runs"] == 0
        assert delta.stats()["deletes"] == 4
        assert len(delta) == 0 and delta.tuples() == []
        assert delta.find_gap((), 3) == (0, 1)

    def test_effective_delta_peeks_without_applying(self):
        delta = DeltaRelation(PAPER_EXAMPLE)
        ins, dels = delta.effective_delta(
            [(1, 1), (9, 9), (9, 9)], [(2, 3), (7, 7)]
        )
        assert ins == [(9, 9)]  # (1,1) present; duplicate collapsed
        assert dels == [(2, 3)]  # (7,7) absent
        assert delta.tuples() == sorted(PAPER_EXAMPLE)  # untouched
        delta.apply(ins, dels)
        assert (9, 9) in delta and (2, 3) not in delta

    def test_overlapping_batch_rejected(self):
        delta = DeltaRelation(PAPER_EXAMPLE)
        with pytest.raises(ValueError):
            delta.effective_delta([(1, 1)], [(1, 1)])

    def test_validation(self):
        with pytest.raises(ValueError):
            DeltaRelation()  # empty needs arity
        delta = DeltaRelation(arity=2)
        with pytest.raises(ValueError):
            delta.insert((1, 2, 3))
        with pytest.raises(TypeError):
            delta.insert(("a", 1))
        with pytest.raises(TypeError):
            delta.delete((True, 1))

    def test_findgap_counting_matches_static(self):
        counters = OpCounters()
        delta = DeltaRelation(PAPER_EXAMPLE, counters=counters)
        delta.insert((3, 3))
        delta.find_gap((), 2)
        delta.gap_at(delta.root_handle(), 2)
        assert counters.findgap == 2
        rebound = OpCounters()
        delta.counters = rebound
        delta.find_gap((), 2)
        assert rebound.findgap == 1 and counters.findgap == 2


class TestStaleHandles:
    """Mutation bumps the generation; pre-mutation handles read loudly."""

    def _all_reads(self, delta, node):
        return [
            lambda: delta.gap_at(node, 2),
            lambda: delta.fanout_at(node),
            lambda: delta.value_at(node, 1),
            lambda: delta.child_at(node, 1),
            lambda: delta.node_keys(node),
        ]

    def test_insert_invalidates_issued_handles(self):
        delta = DeltaRelation(PAPER_EXAMPLE)
        root = delta.root_handle()
        child = delta.child_at(root, 1)
        assert delta.gap_at(root, 2) == (2, 2)  # fresh handle reads fine
        delta.insert((9, 9))
        for read in self._all_reads(delta, root) + self._all_reads(
            delta, child
        ):
            with pytest.raises(RuntimeError, match="generation"):
                read()
        # re-acquiring restores service over the post-mutation view
        assert delta.gap_at(delta.root_handle(), 9) == (3, 3)

    def test_delete_invalidates_issued_handles(self):
        delta = DeltaRelation(PAPER_EXAMPLE)
        root = delta.root_handle()
        delta.delete((2, 3))
        with pytest.raises(RuntimeError, match="generation"):
            delta.node_keys(root)

    def test_noop_writes_keep_handles_valid(self):
        """insert of a present row / delete of an absent row mutate
        nothing, so issued handles stay readable."""
        delta = DeltaRelation(PAPER_EXAMPLE)
        root = delta.root_handle()
        assert not delta.insert((1, 1))
        assert not delta.delete((7, 7))
        assert delta.gap_at(root, 1) == (1, 1)

    def test_flush_and_compact_keep_handles_valid(self):
        """FLUSH / COMPACT are journalled statements that touch no
        index, so handles issued before them stay readable."""
        from repro.dynamic import Catalog, Update

        catalog = Catalog()
        catalog.create_relation("R", ["A", "B"], PAPER_EXAMPLE)
        catalog.apply_batch([Update("R", "+", (5, 5)),
                             Update("R", "-", (2, 4))])
        delta = catalog.delta("R")
        root = delta.root_handle()
        keys = delta.node_keys(root)
        catalog.flush()
        assert delta.node_keys(root) == keys
        catalog.compact("R")
        assert delta.node_keys(root) == keys
        assert delta.gap_at(root, 5) == delta.gap_at(delta.root_handle(), 5)

    def test_mutation_mid_walk_raises_not_garbage(self):
        """The documented sharp edge: mutate while an engine-style walk
        holds handles -> RuntimeError, not values from a stale view."""
        delta = DeltaRelation([(1, 1), (2, 2), (3, 3)])
        root = delta.root_handle()
        child = delta.child_at(root, delta.gap_at(root, 2)[0])
        delta.delete((2, 2))
        with pytest.raises(RuntimeError, match="re-acquire"):
            delta.gap_at(child, 2)


def csr_arrays(index):
    """A deep copy of a FlatTrie's CSR arrays (tuples, values, offsets)."""
    return (
        list(index._tuples),
        [list(v) for v in index._vals],
        [list(o) for o in index._offs],
    )


@st.composite
def splice_programs(draw):
    """(arity, initial rows, adopt a caller's FlatTrie?, op sequence)."""
    arity = draw(st.integers(1, 3))
    row = st.tuples(*[st.integers(0, 4)] * arity)
    initial = draw(st.lists(row, max_size=40))
    rows = st.lists(row, max_size=12)
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.sampled_from(["insert", "delete"]), row),
                # A batch, long enough to cross a small view's budget.
                st.tuples(st.just("batch"), rows, rows),
                st.tuples(st.just("read")),
            ),
            max_size=50,
        )
    )
    return arity, initial, draw(st.booleans()), ops


class TestViewSplicing:
    """A write splices the view before it returns or, past the splice
    budget, rebuilds it.  Either way the view equals a fresh build before
    anything reads it, and reads change nothing."""

    @settings(max_examples=150, deadline=None)
    @given(program=splice_programs())
    def test_spliced_view_matches_fresh_build(self, program):
        arity, initial, adopt, ops = program
        counters = OpCounters()
        caller = FlatTrieRelation(initial, arity=arity) if adopt else None
        caller_arrays = csr_arrays(caller) if adopt else None
        delta = DeltaRelation(
            caller if adopt else initial, arity=arity, counters=counters
        )
        model = set(initial)
        for op in ops:
            root = delta.root_handle()
            view, shared = delta._view, delta._view_shared
            budget = view.splice_budget()
            builds = delta.stats()["view_builds"]
            findgap = counters.findgap
            if op[0] == "read":
                arrays = csr_arrays(view)
                assert delta.tuples() == sorted(model)
                assert len(delta) == len(model)
                # Reads are pure: same view object, same arrays.
                assert delta._view is view
                assert csr_arrays(view) == arrays
                assert delta.stats()["view_builds"] == builds
                continue
            if op[0] == "batch":
                ins, dels = op[1], [t for t in op[2] if t not in op[1]]
                eff_ins, eff_del = delta.apply(ins, dels)
                model.difference_update(eff_del)
                model.update(eff_ins)
                written = len(eff_ins) + len(eff_del)
            else:
                t = op[1]
                if op[0] == "insert":
                    changed = delta.insert(t)
                    assert changed == (t not in model)
                    model.add(t)
                else:
                    changed = delta.delete(t)
                    assert changed == (t in model)
                    model.discard(t)
                written = int(changed)
            # Before any read, the view already equals a fresh build.
            fresh = FlatTrieRelation(sorted(model), arity=arity)
            assert csr_arrays(delta._view) == csr_arrays(fresh)
            rebuilt = written > budget
            assert delta.stats()["view_builds"] == builds + (
                written > 0 and (rebuilt or shared)
            )
            assert (delta._view is view) == (
                not written or not (rebuilt or shared)
            )
            assert counters.findgap == findgap  # a write tallies nothing
            if written:
                with pytest.raises(StaleHandleError):
                    delta.fanout_at(root)
            if adopt:
                assert csr_arrays(caller) == caller_arrays
        assert delta.tuples() == sorted(model)

    def test_first_splice_of_an_adopted_index_copies_it_once(self):
        index = FlatTrieRelation(PAPER_EXAMPLE)
        delta = DeltaRelation(index)
        assert delta._view is index
        delta.insert((3, 3))
        delta.insert((4, 4))
        assert len(delta) == 6
        assert index.tuples() == sorted(PAPER_EXAMPLE)
        assert delta.stats()["view_builds"] == 1  # the one copy
        delta.delete((1, 1))
        assert delta.stats()["view_builds"] == 1
        assert (1, 1) in index and (1, 1) not in delta

    def test_batch_past_the_splice_budget_rebuilds_once(self):
        # Arity 3 with distinct (a, b) prefixes: about one leaf-level
        # offset entry per tuple, so a splice costs about a rebuild / 60.
        base = [(a, b, b) for a in range(10) for b in range(30)]
        delta = DeltaRelation(base)
        view = delta._view
        budget = view.splice_budget()
        assert 30 < budget < 100
        small = [(a, 100 + a, 0) for a in range(budget)]
        delta.apply_effective(small, [])
        assert delta._view is view  # spliced in place
        assert delta.stats()["view_builds"] == 0
        large = [(a, 200 + k, 0) for a in range(10) for k in range(budget)]
        delta.apply_effective(large, [])
        assert delta._view is not view
        assert len(delta) == 300 + 11 * budget
        assert delta.stats()["view_builds"] == 1  # one rebuild
        fresh = FlatTrieRelation(base + small + large)
        assert csr_arrays(delta._view) == csr_arrays(fresh)

    def test_write_only_stretch_builds_at_most_once(self):
        delta = DeltaRelation([(v % 7, v) for v in range(500)])
        for v in range(500, 5000):
            delta.insert((v % 7, v))
        assert delta.tuples() == [(v % 7, v) for v in sorted(
            range(5000), key=lambda v: (v % 7, v)
        )]
        assert delta.stats()["view_builds"] == 0


class TestSyncWriteCost:
    """A sync write splices the view: no build, however many writes."""

    def test_view_builds_do_not_grow_with_writes(self):
        registry = TenantRegistry([TenantSpec("alpha")])
        try:
            tenant = registry.get("alpha")
            tenant.catalog.create_relation(
                "L", ["A", "B"], [(v, v + 1) for v in range(50)]
            )
            seq = 0
            for batch in range(300):
                updates = []
                for i in range(8):
                    seq += 1
                    a, b = (batch * 8 + i) % 97, batch * 8 + i
                    updates.append(parse_update(f"+L {a},{b}", seq))
                tenant.apply_sync(updates)
                if batch % 100 == 99:
                    with tenant.lock.write():
                        tenant.catalog.compact("L")
            index = tenant.catalog.relation("L").index
            stats = index.stats()
            assert stats["inserts"] == 2400 and len(index) == 2450
            assert stats["view_builds"] == 0
            assert index.tuples() == sorted(
                [(v, v + 1) for v in range(50)]
                + [(n % 97, n) for n in range(2400)]
            )
        finally:
            registry.close()


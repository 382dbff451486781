"""LiveJoin: delta-rule maintenance matches full recompute, and is cheaper.

Correctness: after every randomized update batch the maintained view must
equal both a from-scratch Minesweeper recompute and the naive join over
the current relation state.  Economics (the subsystem's point): at fixed
sizes, per-batch maintenance performs measurably fewer FindGap / probe
operations than recomputing, because delta terms seed the search at the
changed tuples (ΔQ = Σᵢ ΔRᵢ ⋈ rest).
"""

import random

import pytest

from repro.core.engine import ExecSpec
from repro.core.incremental import LiveJoin, consistent_gao
from repro.core.query import Query, naive_join
from repro.dynamic import (
    Catalog,
    build_catalog,
    intersection_stream,
    triangle_stream,
)
from repro.storage.delta import DeltaRelation
from repro.storage.relation import Relation
from repro.util.counters import OpCounters


def live_relation(name, attributes, rows):
    return Relation.from_index(
        name, attributes, DeltaRelation(rows, arity=len(attributes))
    )


def naive_state(view):
    query = Query(
        [
            Relation(r.name, r.attributes, r.tuples())
            for r in view.relations
        ]
    )
    return naive_join(query, list(view.gao))


def triangle_view(r, s, t, **knobs):
    return LiveJoin(
        "Q",
        [
            live_relation("R", ("A", "B"), r),
            live_relation("S", ("B", "C"), s),
            live_relation("T", ("A", "C"), t),
        ],
        ExecSpec(**knobs),
    )


class TestSeeding:
    def test_seed_matches_naive_join(self):
        view = triangle_view(
            [(1, 2), (2, 3)], [(2, 3), (3, 1)], [(1, 3), (2, 1)]
        )
        assert view.rows() == naive_state(view)
        assert view.initial_ops["findgap"] > 0
        assert all(c == 1 for c in view.counts().values())

    def test_gao_falls_back_to_stored_orders(self):
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        assert view.gao == ("A", "B", "C")

    def test_inconsistent_explicit_gao_rejected(self):
        with pytest.raises(ValueError):
            triangle_view([(1, 2)], [(2, 3)], [(1, 3)], gao=["C", "B", "A"])

    def test_cyclic_stored_orders_rejected(self):
        with pytest.raises(ValueError):
            LiveJoin(
                "bad",
                [
                    live_relation("R", ("A", "B"), [(1, 2)]),
                    live_relation("S", ("B", "A"), [(2, 1)]),
                ],
            )

    def test_consistent_gao_topological(self):
        rels = [
            live_relation("R", ("A", "B"), [(1, 2)]),
            live_relation("S", ("B", "C"), [(2, 3)]),
        ]
        assert consistent_gao(rels) == ["A", "B", "C"]


class TestMaintenance:
    def test_insert_creates_output(self):
        view = triangle_view([(1, 2)], [(2, 3)], [])
        assert view.rows() == []
        view.apply_batch({"T": ([(1, 3)], [])})
        assert view.rows() == [(1, 2, 3)]
        assert naive_state(view) == [(1, 2, 3)]

    def test_delete_removes_output(self):
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        assert view.rows() == [(1, 2, 3)]
        view.apply_batch({"S": ([], [(2, 3)])})
        assert view.rows() == []
        assert naive_state(view) == []

    def test_net_noop_batch(self):
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        before = view.rows()
        # insert + delete of the same row nets out relation-by-relation
        view.apply_batch({"R": ([(5, 6)], [])})
        view.apply_batch({"R": ([], [(5, 6)])})
        assert view.rows() == before

    def test_updates_outside_view_ignored(self):
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        assert view.apply_delta("Z", [(9, 9)], []) == (0, 0)

    def test_unknown_relation_in_batch_rejected(self):
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        with pytest.raises(ValueError):
            view.apply_batch({"Z": ([(9, 9)], [])})

    def test_invalid_batch_is_atomic(self):
        """A bad entry later in the batch must leave nothing applied."""
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        before = view.rows()
        for bad in (
            {"R": ([(9, 2)], []), "S": ([(5, 5, 5)], [])},  # bad arity
            {"R": ([(9, 2)], []), "Z": ([(1, 1)], [])},  # unknown name
        ):
            with pytest.raises(ValueError):
                view.apply_batch(bad)
            assert view.rows() == before
            assert (9, 2) not in view.relations[0].index
        # an intra-batch +/- pair is NOT invalid: it nets to a no-op
        # (see TestIntraBatchInsertDeletePairs)
        view.apply_batch({"S": ([(5, 5)], [(5, 5)])})
        assert view.rows() == before

    def test_protocol_violation_detected(self):
        """A non-effective delta double-derives a live row -> error."""
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        assert view.rows() == [(1, 2, 3)]
        with pytest.raises(RuntimeError):
            # (1,3) is already stored: re-announcing it as an insert
            # would rederive (1,2,3) on top of its live count.
            view.apply_delta("T", [(1, 3)], [])

    @pytest.mark.parametrize("insert_fraction,seed", [
        (0.9, 21), (0.5, 22), (0.1, 23),
    ])
    def test_randomized_stream_matches_recompute(self, insert_fraction, seed):
        schemas, initial, batches = triangle_stream(
            n_nodes=14,
            n_edges=40,
            n_batches=6,
            batch_size=6,
            insert_fraction=insert_fraction,
            seed=seed,
        )
        catalog, view = build_catalog(schemas, initial)
        assert view.rows() == naive_state(view)
        for batch in batches:
            catalog.apply_batch(batch)
            recomputed, _, _ = view.recompute()
            assert view.rows() == recomputed == naive_state(view)
            assert all(c == 1 for c in view.counts().values())
        assert view.verify()

    def test_stream_with_flush_and_compact_interleaved(self):
        schemas, initial, batches = triangle_stream(
            n_nodes=12, n_edges=30, n_batches=6, batch_size=5, seed=9
        )
        catalog, view = build_catalog(schemas, initial)
        for i, batch in enumerate(batches):
            catalog.apply_batch(batch)
            if i % 3 == 1:
                catalog.flush()
            if i % 3 == 2:
                catalog.compact()
            assert view.rows() == naive_state(view)

    def test_multiple_views_over_shared_relations(self):
        catalog = Catalog()
        catalog.create_relation("R", ("A", "B"), [(1, 2), (4, 5)])
        catalog.create_relation("S", ("B", "C"), [(2, 3)])
        catalog.create_relation("T", ("A", "C"), [(1, 3)])
        triangle = catalog.register_view("tri", ["R", "S", "T"])
        path = catalog.register_view("path", ["R", "S"])
        from repro.dynamic import Update

        catalog.apply_batch(
            [Update("S", "+", (5, 7)), Update("R", "-", (1, 2))]
        )
        assert triangle.verify() and path.verify()
        assert path.rows() == [(4, 5, 7)]
        assert triangle.rows() == []


class TestOpSavings:
    """Acceptance: incremental << recompute in probe/FindGap ops."""

    @pytest.mark.parametrize("insert_fraction,seed", [
        (0.9, 31), (0.5, 32), (0.1, 33),
    ])
    def test_triangle_batches_cost_less_than_recompute(
        self, insert_fraction, seed
    ):
        schemas, initial, batches = triangle_stream(
            n_nodes=40,
            n_edges=200,
            n_batches=4,
            batch_size=8,
            insert_fraction=insert_fraction,
            seed=seed,
        )
        catalog, view = build_catalog(schemas, initial)
        inc = {"findgap": 0, "probes": 0}
        rec = {"findgap": 0, "probes": 0}
        for batch in batches:
            report = catalog.apply_batch(batch)
            rows, ops, _ = view.recompute()
            assert rows == view.rows()
            for key in inc:
                inc[key] += report.view_ops("Q", key)
                rec[key] += ops[key]
        # "measurably fewer": at least 2x cheaper at this size (observed
        # ~4x; the margin widens with input size).
        assert 2 * inc["findgap"] < rec["findgap"]
        assert 2 * inc["probes"] < rec["probes"]

    def test_intersection_batches_cost_less_than_recompute(self):
        schemas, initial, batches = intersection_stream(
            k=3,
            domain=5000,
            n_values=600,
            n_batches=4,
            batch_size=8,
            insert_fraction=0.5,
            seed=41,
        )
        catalog, view = build_catalog(schemas, initial)
        inc_fg = rec_fg = 0
        for batch in batches:
            report = catalog.apply_batch(batch)
            rows, ops, _ = view.recompute()
            assert rows == view.rows()
            inc_fg += report.view_ops("Q", "findgap")
            rec_fg += ops["findgap"]
        assert 2 * inc_fg < rec_fg

    def test_cumulative_counters_equal_sum_of_batch_reports(self):
        """view.counters must not recount a shared batch counter once
        per relation (multi-relation batches exposed a double-fold)."""
        schemas, initial, batches = triangle_stream(
            n_nodes=12, n_edges=30, n_batches=3, batch_size=6, seed=17
        )
        catalog, view = build_catalog(schemas, initial)
        reported = 0
        for batch in batches:
            report = catalog.apply_batch(batch)
            reported += report.view_ops("Q", "findgap")
        assert view.counters.findgap == reported

    def test_empty_delta_costs_nothing(self):
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        counters = OpCounters()
        assert view.apply_delta("R", [], [], counters) == (0, 0)
        assert counters.snapshot()["findgap"] == 0


class TestIntraBatchInsertDeletePairs:
    """An insert and a delete of the *same* tuple in one batch is an
    intra-batch pair: it annihilates order-insensitively before any
    delta term runs, leaving storage and multiplicities unchanged."""

    def _view(self):
        return triangle_view(
            [(1, 2), (2, 3)], [(2, 3), (3, 1)], [(1, 3), (2, 1)]
        )

    def test_pair_on_absent_row_is_noop(self):
        view = self._view()
        rows, counts = view.rows(), view.counts()
        assert view.apply_batch({"R": ([(5, 6)], [(5, 6)])}) == (0, 0)
        assert view.rows() == rows and view.counts() == counts
        assert (5, 6) not in view.relations[0].index
        assert view.verify()

    def test_pair_on_present_row_is_noop(self):
        view = self._view()
        rows, counts = view.rows(), view.counts()
        assert view.apply_batch({"R": ([(1, 2)], [(1, 2)])}) == (0, 0)
        assert view.rows() == rows and view.counts() == counts
        assert (1, 2) in view.relations[0].index  # storage untouched
        assert all(c == 1 for c in view.counts().values())
        assert view.verify()

    @pytest.mark.parametrize("insert_first", [True, False])
    def test_pair_plus_real_change_both_orderings(self, insert_first):
        """Only the unpaired part of the batch lands, whichever side of
        the batch lists the paired tuple first."""
        pair, real = (2, 3), (9, 9)
        inserts = [pair, real] if insert_first else [real, pair]
        view = self._view()
        view.apply_batch({"R": (inserts, [pair])})
        assert (2, 3) in view.relations[0].index
        assert (9, 9) in view.relations[0].index
        assert view.verify()
        # the mirrored batch: pair on the delete side plus a real delete
        view2 = self._view()
        deletes = [pair, (1, 2)] if insert_first else [(1, 2), pair]
        view2.apply_batch({"R": ([pair], deletes)})
        assert (2, 3) in view2.relations[0].index
        assert (1, 2) not in view2.relations[0].index
        assert view2.verify()

    def test_apply_delta_nets_pairs_without_evaluating(self):
        view = self._view()
        counters = OpCounters()
        added, removed = view.apply_delta(
            "R", [(5, 6)], [(5, 6)], counters=counters
        )
        assert (added, removed) == (0, 0)
        assert counters.snapshot().get("findgap", 0) == 0  # no delta term ran
        assert all(c == 1 for c in view.counts().values())
        assert view.verify()


class TestPairedRowValidation:
    """A malformed tuple is rejected even when an intra-batch pair
    would annihilate it (validation runs before netting)."""

    def test_bad_arity_paired_rows_rejected(self):
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        with pytest.raises(ValueError):
            view.apply_batch({"R": ([(1, 2, 3)], [(1, 2, 3)])})
        with pytest.raises(ValueError):
            view.apply_delta("R", [(1, 2, 3)], [(1, 2, 3)])

    def test_non_integer_paired_rows_rejected(self):
        view = triangle_view([(1, 2)], [(2, 3)], [(1, 3)])
        with pytest.raises(TypeError):
            view.apply_batch({"R": ([("x", "y")], [("x", "y")])})
        with pytest.raises(TypeError):
            view.apply_delta("R", [(True, 1)], [(True, 1)])

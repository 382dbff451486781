"""The live view's projection index: deletes are looked up, never joined.

``LiveJoin`` answers the −1 delta term of a deleted tuple from a
per-atom ``projected key -> rows`` index over its materialized rows
instead of running the engine.  These tests are the safety net for that
replacement:

* property streams (inserts, deletes, intra-batch insert/delete pairs,
  delete-then-reinsert, non-effective updates) over two views sharing
  relations — a triangle and a 4-atom path — with ``verify()``, the
  hash-join baseline and ``check_invariant()`` after every batch;
* the engine-evaluated −1 term the index replaced, kept here as a
  test-only subclass and compared removed-row set by removed-row set;
* delete-only batches cost zero engine ops;
* ``apply_delta`` is all-or-nothing on a protocol violation;
* recovery seeds each view once, after replay, to the same rows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hash_join import hash_join_plan
from repro.core.incremental import LiveJoin
from repro.core.query import Query
from repro.dynamic import Catalog, Update, open_catalog, recover_catalog
from repro.dynamic.catalog import net_updates
from repro.obs import Observability
from repro.storage.delta import DeltaRelation
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

SCHEMAS = {
    "R": ("A", "B"),
    "S": ("B", "C"),
    "T": ("A", "C"),
    "U": ("C", "D"),
    "V": ("D", "E"),
}
VIEWS = {"tri": ["R", "S", "T"], "path": ["R", "S", "U", "V"]}

# A 3-value domain keeps both joins non-empty and makes the interesting
# collisions (pairs, re-inserts, deletes of absent rows) the common case.
rows = st.tuples(st.integers(0, 2), st.integers(0, 2))
updates = st.builds(
    Update,
    relation=st.sampled_from(sorted(SCHEMAS)),
    op=st.sampled_from(["+", "-"]),
    row=rows,
)
batches = st.lists(st.lists(updates, max_size=8), min_size=1, max_size=6)
initial_rows = st.fixed_dictionaries(
    {name: st.lists(rows, max_size=6) for name in SCHEMAS}
)


def build(initial, catalog=None):
    catalog = catalog if catalog is not None else Catalog()
    for name, attributes in SCHEMAS.items():
        catalog.create_relation(name, attributes, sorted(set(initial[name])))
    for view, members in VIEWS.items():
        catalog.register_view(view, members)
    return catalog


def baseline_rows(view):
    """The view's join by an engine sharing no code with Minesweeper."""
    query = Query(
        [Relation(r.name, r.attributes, r.tuples()) for r in view.relations]
    )
    return hash_join_plan(query, list(view.gao))


def assert_sound(view):
    view.check_invariant()
    assert view.verify()
    assert view.rows() == baseline_rows(view)


class EngineDeleteLiveJoin(LiveJoin):
    """The maintenance rule before the projection index: *both* signs
    of the delta rule evaluated by the engine, the −1 term first.  Kept
    only as the reference the indexed delete is compared against."""

    def apply_delta(self, name, inserts, deletes, counters=None):
        base = self._by_name[name]
        self.removed_rows = set()
        added = 0
        for delta_rows, sign in ((deletes, -1), (inserts, +1)):
            if not delta_rows:
                continue
            delta = Relation(name, base.attributes, delta_rows)
            atoms = [delta if r.name == name else r for r in self.relations]
            for row in self._evaluate(atoms, OpCounters()):
                if sign < 0:
                    assert self._counts.pop(row) == 1
                    self.removed_rows.add(row)
                else:
                    assert row not in self._counts
                    self._counts[row] = 1
                    added += 1
        return added, len(self.removed_rows)


class TestPropertyStreams:
    @given(initial=initial_rows, stream=batches)
    @settings(max_examples=60, deadline=None)
    def test_catalog_stream_keeps_views_and_index_sound(self, initial, stream):
        catalog = build(initial)
        for view in VIEWS:
            assert_sound(catalog.view(view))
        for batch in stream:
            report = catalog.apply_batch(batch)
            for name in VIEWS:
                view, entry = catalog.view(name), report.views[name]
                assert_sound(view)
                deletes = sum(
                    d for rel, (_, d) in report.applied.items()
                    if rel in VIEWS[name]
                )
                inserted = sum(
                    1 for rel, (i, _) in report.applied.items()
                    if rel in VIEWS[name] and i
                )
                assert entry["indexed_deletes"] == deletes
                assert entry["engine_runs"] == inserted

    @given(
        initial=initial_rows,
        stream=st.lists(
            st.dictionaries(
                st.sampled_from(VIEWS["tri"]),
                st.tuples(st.lists(rows, max_size=4), st.lists(rows, max_size=4)),
                max_size=3,
            ),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_standalone_batches_with_explicit_pairs(self, initial, stream):
        """``LiveJoin.apply_batch`` takes both sides of a relation's
        delta at once, so the same tuple may sit on both (a pair)."""
        view = LiveJoin(
            "tri",
            [
                Relation.from_index(
                    name,
                    SCHEMAS[name],
                    DeltaRelation(sorted(set(initial[name])), arity=2),
                )
                for name in VIEWS["tri"]
            ],
        )
        for batch in stream:
            view.apply_batch(batch)
            assert_sound(view)

    @given(initial=initial_rows, stream=batches)
    @settings(max_examples=40, deadline=None)
    def test_indexed_delete_equals_the_engine_delete_term(self, initial, stream):
        relations = [
            Relation.from_index(
                name,
                SCHEMAS[name],
                DeltaRelation(sorted(set(initial[name])), arity=2),
            )
            for name in VIEWS["path"]
        ]
        indexed = LiveJoin("path", relations)
        reference = EngineDeleteLiveJoin("path", relations)
        for batch in stream:
            grouped = net_updates(
                u for u in batch if u.relation in VIEWS["path"]
            )
            for name, (inserts, deletes) in grouped.items():
                index = indexed._by_name[name].index
                eff_ins, eff_del = index.effective_delta(inserts, deletes)
                before = set(indexed.rows())
                got = indexed.apply_delta(name, eff_ins, eff_del)
                want = reference.apply_delta(name, eff_ins, eff_del)
                assert got == want
                assert before - set(indexed.rows()) == reference.removed_rows
                index.apply_effective(eff_ins, eff_del)
            assert indexed.rows() == reference.rows()
            indexed.check_invariant()


class TestDeleteOnlyBatches:
    def test_delete_only_batch_runs_no_engine_term(self):
        catalog = build(
            {
                "R": [(0, 1), (1, 2)],
                "S": [(1, 2), (2, 0)],
                "T": [(0, 2), (1, 0)],
                "U": [(2, 1), (0, 1)],
                "V": [(1, 1)],
            }
        )
        assert catalog.query("tri") == [(0, 1, 2), (1, 2, 0)]
        report = catalog.apply_batch(
            [
                Update("R", "-", (0, 1)),
                Update("S", "-", (2, 0)),
                Update("V", "-", (9, 9)),  # not stored: not effective
            ]
        )
        for name, removed, lookups in (("tri", 2, 2), ("path", 2, 2)):
            entry = report.views[name]
            assert entry["ops"]["findgap"] == entry["ops"]["probes"] == 0
            assert entry["engine_runs"] == 0
            assert entry["indexed_deletes"] == lookups
            assert (entry["rows_added"], entry["rows_removed"]) == (0, removed)
            assert_sound(catalog.view(name))
        assert catalog.query("tri") == []

    def test_mixed_batch_runs_one_term_per_inserted_relation(self):
        catalog = build({name: [] for name in SCHEMAS})
        report = catalog.apply_batch(
            [
                Update("R", "+", (0, 1)),
                Update("S", "+", (1, 2)),
                Update("T", "+", (0, 2)),
            ]
        )
        assert report.views["tri"]["engine_runs"] == 3
        assert report.views["path"]["engine_runs"] == 2  # R and S; no T
        assert report.views["tri"]["ops"]["findgap"] > 0
        assert catalog.query("tri") == [(0, 1, 2)]


class TestObservability:
    def test_span_and_metrics_say_how_terms_were_answered(self):
        obs = Observability(trace=True)
        catalog = Catalog()
        catalog.bind_obs(obs)
        build({name: [(0, 1), (1, 2)] for name in SCHEMAS}, catalog)
        catalog.apply_batch(
            [
                Update("R", "-", (0, 1)),
                Update("R", "-", (1, 2)),
                Update("S", "+", (2, 2)),
                Update("T", "-", (0, 1)),
            ]
        )
        (batch,) = [s for s in obs.tracer.roots if s.name == "apply_batch"]
        terms = {
            (s.attributes["view"], s.attributes["relation"]): (
                s.attributes["engine_runs"], s.attributes["indexed_deletes"]
            )
            for s in batch.children
            if s.name == "view.maintain"
        }
        assert terms == {
            ("tri", "R"): (0, 2), ("tri", "S"): (1, 0), ("tri", "T"): (0, 1),
            ("path", "R"): (0, 2), ("path", "S"): (1, 0),
            ("path", "T"): (0, 0),  # T is not an atom of `path`
        }
        text = obs.metrics.render_prometheus()
        for view, engine, indexed in (("tri", 1, 3), ("path", 1, 2)):
            for kind, value in (("engine", engine), ("indexed", indexed)):
                assert (
                    f'repro_view_delta_terms_total{{kind="{kind}",'
                    f'view="{view}"}} {value}\n'
                ) in text


class TestAllOrNothing:
    def test_protocol_violation_leaves_the_view_untouched(self):
        """One delta whose delete is fine and whose insert re-announces
        a stored tuple: the RuntimeError must not leave the delete
        half-applied (the batch is already in the WAL by then)."""
        catalog = build(
            {
                "R": [(0, 1), (1, 2)],
                "S": [(1, 2), (2, 0)],
                "T": [(0, 2), (1, 0)],
                "U": [],
                "V": [],
            }
        )
        view = catalog.view("tri")
        rows_before, counts_before = view.rows(), view.counts()
        ops_before = view.counters.snapshot()
        terms_before = (view.engine_runs, view.indexed_deletes)
        with pytest.raises(RuntimeError, match="multiplicity 2"):
            # (1,0) is already stored in T: re-deriving (1,2,0) would
            # take it to multiplicity 2 — after (0,2)'s row was removed.
            view.apply_delta("T", [(1, 0)], [(0, 2)])
        assert view.rows() == rows_before == [(0, 1, 2), (1, 2, 0)]
        assert view.counts() == counts_before
        assert view.counters.snapshot() == ops_before
        assert (view.engine_runs, view.indexed_deletes) == terms_before
        assert_sound(view)
        # ... and the same delete, announced properly, still works.
        assert view.apply_delta("T", [], [(0, 2)]) == (0, 1)
        assert view.rows() == [(1, 2, 0)]
        view.check_invariant()

    def test_check_invariant_catches_a_stale_index(self):
        view = build({name: [(0, 0)] for name in SCHEMAS}).view("tri")
        view.check_invariant()
        view._index[0].clear()
        with pytest.raises(AssertionError, match="projection index of R"):
            view.check_invariant()


class TestRecoveredViews:
    def test_replay_seeds_each_view_once_to_the_live_rows(self, tmp_path):
        data_dir = str(tmp_path / "data")
        catalog, _ = open_catalog(data_dir)
        for name, attributes in SCHEMAS.items():
            catalog.create_relation(
                name, attributes, [(a, (a + 1) % 4) for a in range(4)]
            )
        # `tri` reaches recovery through the snapshot manifest, `path`
        # through a `!view` WAL record written after it.
        catalog.register_view("tri", VIEWS["tri"])
        catalog.apply_batch([Update("T", "+", (a, (a + 2) % 4)) for a in range(4)])
        catalog.snapshot()
        catalog.register_view("path", VIEWS["path"])
        catalog.apply_batch(
            [
                Update("R", "-", (0, 1)),
                Update("S", "+", (1, 3)),
                Update("U", "+", (3, 3)),
                Update("T", "+", (0, 3)),
                Update("R", "+", (0, 1)),
            ]
        )
        catalog.apply_batch([Update("S", "-", (2, 3)), Update("V", "-", (0, 1))])
        catalog.flush()
        catalog.apply_batch([Update("S", "+", (2, 3))])
        live = {name: catalog.query(name) for name in VIEWS}
        assert all(live.values())
        catalog.wal.close()

        recovered, report = recover_catalog(data_dir, attach=False)
        assert report.batches_replayed == 3
        for name in VIEWS:
            view = recovered.view(name)
            assert view.seeded
            assert view.rows() == live[name] == baseline_rows(view)
            assert report.views[name] == len(live[name])
            view.check_invariant()
            # Deferred seeding: replay maintained nothing, the one
            # evaluation is the seed on the final state.
            assert view.counters.findgap == 0
            assert (view.engine_runs, view.indexed_deletes) == (0, 0)
            assert view.initial_ops["findgap"] > 0
        # Recovered views are live again: the next batch is maintained.
        after = recovered.apply_batch([Update("R", "-", (0, 1))])
        assert after.views["tri"]["indexed_deletes"] == 1
        for name in VIEWS:
            assert_sound(recovered.view(name))

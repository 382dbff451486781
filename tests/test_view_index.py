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
* recovery seeds each view once, after replay, to the same rows;
* each +1 term runs under its own GAO over view-owned secondary
  orders, which stay equal to a fresh build through splices, rebuilds,
  flushes, compactions and snapshot → recover, and keep insert-term
  cost flat as the input grows;
* an unseeded view refuses to answer or to be maintained.
"""

import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hash_join import hash_join_plan
from repro.core.engine import ExecSpec
from repro.core.incremental import LiveJoin, ViewNotSeededError
from repro.core.query import Query
from repro.dynamic import Catalog, Update, open_catalog, recover_catalog
from repro.dynamic import streams as dynamic
from repro.dynamic.catalog import net_updates
from repro.obs import Observability
from repro.obs.stats import catalog_stats, render_stats_tree, stats_to_prometheus
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
# Batches interleaved with LSM maintenance, which must not disturb the
# views' secondary orders (they follow tuple sets, not storage layout).
steps = st.lists(
    st.one_of(
        st.lists(updates, max_size=8), st.sampled_from(["flush", "compact"])
    ),
    min_size=1,
    max_size=8,
)
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


def run_steps(catalog, stream):
    """Apply batches / flushes / compactions; audit every view after
    each step.  Returns the batch reports."""
    reports = []
    for step in stream:
        if step == "flush":
            catalog.flush()
        elif step == "compact":
            catalog.compact()
        else:
            reports.append((step, catalog.apply_batch(step)))
        for name in VIEWS:
            assert_sound(catalog.view(name))
    return reports


def order_tuples(view):
    """(relation, column order) -> the secondary order's tuples."""
    return {
        key: view._orders[key].relation.tuples()
        for key in view.secondary_orders()
    }


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
    @given(initial=initial_rows, stream=steps)
    @settings(max_examples=60, deadline=None)
    def test_catalog_stream_keeps_views_and_index_sound(self, initial, stream):
        catalog = build(initial)
        for view in VIEWS:
            assert_sound(catalog.view(view))
        for _, report in run_steps(catalog, stream):
            for name in VIEWS:
                entry = report.views[name]
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

    @given(initial=initial_rows, stream=steps, tail=steps)
    @settings(max_examples=25, deadline=None)
    def test_snapshot_recover_equals_live(self, initial, stream, tail):
        """A recovered catalog (snapshot mid-stream, WAL suffix after)
        holds the live views' rows *and* secondary orders."""
        with tempfile.TemporaryDirectory() as data_dir:
            catalog, _ = open_catalog(data_dir, fsync="off")
            build(initial, catalog)
            run_steps(catalog, stream)
            catalog.snapshot()
            run_steps(catalog, tail)
            live = {
                name: (catalog.query(name), order_tuples(catalog.view(name)))
                for name in VIEWS
            }
            catalog.wal.close()
            recovered, _ = recover_catalog(
                data_dir, fsync="off", attach=False
            )
        for name in VIEWS:
            view = recovered.view(name)
            assert_sound(view)
            assert (view.rows(), order_tuples(view)) == live[name]

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


    def test_stats_tree_and_gauges_carry_the_term_gaos(self):
        catalog = build({name: [(0, 1), (1, 2)] for name in SCHEMAS})
        catalog.apply_batch([Update("S", "+", (2, 2)), Update("R", "-", (0, 1))])
        tree = {"catalog": catalog_stats(catalog)}
        lines = render_stats_tree(tree)
        for expected in (
            "catalog.views.tri.terms.S.gao",
            "catalog.views.tri.secondary_orders.count",
        ):
            assert any(line.startswith(expected + " ") for line in lines)
        assert any(
            line.startswith("catalog.views.tri.terms.S.gao ")
            and line.endswith("= B,C,A")
            for line in lines
        )
        text = stats_to_prometheus(tree)
        for path, value in (
            ("catalog.views.tri.secondary_orders.count", 3),
            # One splice into S as (C, B), one into R as (B, A).
            ("catalog.views.tri.secondary_orders.splices", 2),
            ("catalog.views.tri.secondary_orders.rebuilds", 0),
            ("catalog.views.tri.terms.R.probes", 0),
        ):
            assert f'repro_stat{{path="{path}"}} {value}\n' in text
        assert 'path="catalog.views.tri.terms.S.probes"' in text


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
        # ... and the same delete, announced properly and then applied
        # to storage (the protocol), still works.
        assert view.apply_delta("T", [], [(0, 2)]) == (0, 1)
        catalog.relation("T").index.apply_effective([], [(0, 2)])
        assert view.rows() == [(1, 2, 0)]
        assert_sound(view)

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


def term_gaos(view):
    return {name: term["gao"] for name, term in view.stats()["terms"].items()}


def triangle_catalog(spec=ExecSpec(), n_nodes=6):
    """A triangle view over the complete graph minus its self-loops."""
    edges = [(a, b) for a in range(n_nodes) for b in range(n_nodes) if a != b]
    catalog = Catalog()
    for name in VIEWS["tri"]:
        catalog.create_relation(name, SCHEMAS[name], edges)
    return catalog, catalog.register_view("tri", VIEWS["tri"], spec)


def mixed_batches(names, n_values, seed):
    """Deterministic batches of inserts and deletes over ``names``."""
    rng = random.Random(seed)
    return [
        [
            Update(
                rng.choice(names), rng.choice("+-"),
                (rng.randrange(n_values), rng.randrange(n_values)),
            )
            for _ in range(6)
        ]
        for _ in range(6)
    ]


class TestTermGaos:
    def test_each_term_is_led_by_its_delta(self):
        _, view = triangle_catalog()
        assert view.gao == ("A", "B", "C")
        assert term_gaos(view) == {"R": "A,B,C", "S": "B,C,A", "T": "A,C,B"}
        assert view.secondary_orders() == [
            ("R", ("B", "A")), ("T", ("C", "A")), ("S", ("C", "B")),
        ]
        stats = view.stats()
        assert stats["secondary_orders"] == {
            "count": 3, "splices": 0, "rebuilds": 0,
        }

    def test_check_invariant_catches_a_stale_order(self):
        _, view = triangle_catalog()
        view._orders[("S", ("C", "B"))].relation.index.splice_insert((9, 9))
        with pytest.raises(AssertionError, match=r"secondary order S\(C, B\)"):
            view.check_invariant()

    def test_batch_past_the_splice_budget_rebuilds_the_order(self):
        catalog, view = triangle_catalog()
        order = view._orders[("S", ("C", "B"))].relation.index
        budget = order.splice_budget()
        fresh = [(a, 100 + a) for a in range(budget + 1)]
        catalog.apply_batch([Update("S", "+", row) for row in fresh])
        assert view.order_rebuilds == 1 and view.order_splices == 0
        assert_sound(view)
        # A small delta splices instead.
        catalog.apply_batch(
            [Update("S", "-", fresh[0]), Update("S", "+", (0, 200))]
        )
        assert view.order_rebuilds == 1 and view.order_splices == 2
        assert view.stats()["secondary_orders"]["splices"] == 2
        assert_sound(view)

    def test_declared_chain_keeps_the_view_gao_for_non_neo_terms(self):
        catalog = build({name: [(0, 1), (1, 2), (2, 0)] for name in SCHEMAS})
        view = catalog.register_view(
            "chain", VIEWS["path"], ExecSpec(strategy="chain")
        )
        assert view.gao == ("A", "B", "C", "D", "E")
        # (B, C, A, D, E) is a nested elimination order of the path;
        # (C, D, A, B, E) and (D, E, A, B, C) are not.
        assert term_gaos(view) == {
            "R": "A,B,C,D,E", "S": "B,C,A,D,E",
            "U": "A,B,C,D,E", "V": "A,B,C,D,E",
        }
        assert view.secondary_orders() == [("R", ("B", "A"))]
        for batch in mixed_batches(VIEWS["path"], 3, seed=7):
            catalog.apply_batch(batch)
            assert view.rows() == view.recompute()[0]
            view.check_invariant()

    def test_sharded_view_terms(self):
        catalog, view = triangle_catalog(ExecSpec(shards=2, workers=0))
        assert view.spec.shards == 2
        assert term_gaos(view)["S"] == "B,C,A"
        for batch in mixed_batches(VIEWS["tri"], 9, seed=3):
            catalog.apply_batch(batch)
            assert view.rows() == view.recompute()[0]
            view.check_invariant()
        assert view.engine_runs > 0


def insert_term_probes(n_edges):
    """Per relation, the insert-term probes of the ``view-maintenance``
    stream at ``n_edges`` (each relation's updates applied as their own
    batch; delete terms cost no probe)."""
    schemas, initial, stream = dynamic.triangle_stream(
        n_nodes=max(10, n_edges // 5), n_edges=n_edges, n_batches=6,
        batch_size=8, insert_fraction=0.5, seed=21,
    )
    catalog, view = dynamic.build_catalog(schemas, initial)
    probes = dict.fromkeys(schemas, 0)
    for batch in stream:
        for name in net_updates(batch):
            report = catalog.apply_batch(
                [u for u in batch if u.relation == name]
            )
            probes[name] += report.view_ops(view.name, "probes")
    return probes


class TestInsertTermCost:
    def test_insert_terms_stay_delta_bound(self):
        """Under the view's GAO only ΔR's term is delta-bound: ΔS's and
        ΔT's enumerate π_A R, so insert cost grows with the input.
        Under per-term GAOs it does not, and no atom is the outlier."""
        small, large = insert_term_probes(200), insert_term_probes(800)
        assert sum(large.values()) <= 1.5 * sum(small.values()), (small, large)
        for probes in (small, large):
            assert max(probes.values()) <= 2 * min(probes.values()), probes


class TestUnseededViews:
    def test_unseeded_view_refuses_to_answer(self):
        relations = [
            Relation.from_index(
                name, SCHEMAS[name], DeltaRelation([row], arity=2)
            )
            for name, row in (("R", (1, 2)), ("S", (2, 3)), ("T", (1, 3)))
        ]
        view = LiveJoin("tri", relations, seed=False)
        assert "unseeded" in repr(view)
        assert view.stats()["seeded"] is False
        for call in (
            view.rows, view.counts, lambda: len(view), lambda: (1, 2, 3) in view,
            lambda: view.apply_delta("R", [(5, 6)], []),
            lambda: view.apply_batch({"R": ([(5, 6)], [])}),
            view.check_invariant,
        ):
            with pytest.raises(ViewNotSeededError, match="not seeded"):
                call()
        # The refused standalone batch left storage untouched.
        assert relations[0].tuples() == [(1, 2)]
        view.seed()
        assert view.rows() == [(1, 2, 3)]
        view.apply_batch({"R": ([(5, 6)], [])})
        assert relations[0].tuples() == [(1, 2), (5, 6)]
        assert_sound(view)


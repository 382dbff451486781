"""Serving-layer tests: sessions, plan caching, aggregates, scripts."""

import os
import subprocess
import sys

import pytest

from repro.datasets.instances import (
    disjoint_ranges_cycle4,
    disjoint_ranges_triangle,
)
from repro.dynamic import Catalog, Update
from repro.lang import ParseError, ValidationError
from repro.planner import ENGINE_GENERIC, ENGINE_TRIANGLE
from repro.serve import ScriptError, ScriptRunner, Session, run_script


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.create_relation("R", ["A", "B"], [(1, 2), (2, 3), (3, 1)])
    cat.create_relation("S", ["B", "C"], [(2, 10), (3, 20)])
    return cat


@pytest.fixture()
def session(catalog):
    return Session(catalog)


TEXT = "Q(x, z) :- R(x, y), S(y, z)"


class TestSessionBasics:
    def test_execute_rows(self, session):
        result = session.execute(TEXT)
        assert result.columns == ("x", "z")
        assert result.rows == [(1, 10), (2, 20)]
        assert not result.cached_plan

    def test_prepare_then_execute(self, session):
        prepared = session.prepare(TEXT)
        assert session.statements_prepared == 1
        result = prepared.execute()
        assert result.rows == [(1, 10), (2, 20)]

    def test_prepare_rejects_bad_text_and_schema(self, session):
        with pytest.raises(ParseError):
            session.prepare("not a query")
        with pytest.raises(ValidationError):
            session.prepare("Q(x) :- Missing(x, y)")
        with pytest.raises(ValidationError):
            session.prepare("Q(x) :- R(x, y, z)")

    def test_stats_accumulate(self, session):
        session.execute(TEXT)
        session.execute(TEXT)
        stats = session.stats()
        assert stats["queries_executed"] == 2
        assert stats["planner"]["plans_built"] == 1
        assert stats["plan_cache"]["hits"] == 1
        assert stats["ops"]["output_tuples"] > 0

    def test_explain_mentions_origin(self, session):
        report = session.explain(TEXT)
        assert "plan origin      : planned now" in report
        assert "candidates" in report
        # the structural winner alone was scored at plan time; the
        # Minesweeper board is built by explain() itself
        assert "scored on demand" in report and "minesweeper" in report
        assert "plan origin      : cached" in session.explain(TEXT)

    def test_explain_reports_the_plans_age_after_a_write(self, session):
        session.execute(TEXT)
        session.catalog.apply_batch(
            [Update("R", "+", (9, 2)), Update("R", "+", (8, 3))]
        )
        report = session.explain(TEXT)
        assert "plan origin      : cached" in report
        assert "planned at       : generation 2 (now 3)" in report
        assert "cardinality      : R 3 → 5 (×1.67)" in report
        assert "cardinality      : S 2 → 2 (×1.00)" in report


class TestPlanCacheBehavior:
    def test_second_execution_skips_planning(self, session):
        first = session.execute(TEXT)
        built = session.planner.plans_built
        estimates = session.planner.estimate_runs
        second = session.execute(TEXT)
        assert not first.cached_plan
        assert second.cached_plan
        # planning skipped *entirely*: no new plans, no new scoring runs
        assert session.planner.plans_built == built
        assert session.planner.estimate_runs == estimates
        assert second.rows == first.rows

    def test_renamed_query_hits_cache(self, session):
        session.execute(TEXT)
        renamed = session.execute("Other(a, c) :- R(a, b), S(b, c)")
        assert renamed.cached_plan
        assert session.planner.plans_built == 1

    @pytest.mark.parametrize("mutation", ["apply_batch", "flush", "compact"])
    def test_plan_survives_catalog_mutation(self, session, mutation):
        # Replaces test_catalog_mutation_invalidates: the generation
        # moves, the plan stays, nothing is planned or scored.
        session.execute(TEXT)
        built = session.planner.plans_built
        estimates = session.planner.estimate_runs
        generation = session.catalog.generation
        if mutation == "apply_batch":
            session.catalog.apply_batch([Update("R", "+", (9, 2))])
        else:
            getattr(session.catalog, mutation)()
        assert session.catalog.generation == generation + 1
        result = session.execute(TEXT)
        assert result.cached_plan and result.plan_origin == "cached"
        assert result.plan.generation == generation
        assert session.planner.plans_built == built
        assert session.planner.estimate_runs == estimates
        assert session.cache.stats()["invalidated"] == 0

    def test_update_visible_under_surviving_plan(self, session):
        session.execute(TEXT)
        session.catalog.apply_batch([Update("R", "+", (9, 2))])
        result = session.execute(TEXT)
        assert result.cached_plan
        assert (9, 10) in result.rows


CYCLE4 = "Q(a, b, c, d) :- R4(a, b), S4(b, c), T4(c, d), U4(d, a)"
TRIANGLE = "Q(x, y, z) :- R4(x, y), S4(y, z), T4(x, z)"
PATH = "Q(a, c) :- R4(a, b), S4(b, c)"


class TestDriftReplanning:
    """Only data drift re-plans, and only a cost-based plan: a
    Minesweeper GAO, or any engine picked by measured work."""

    @pytest.fixture()
    def session(self):
        n = 12
        ring = [(i, (i + 1) % n) for i in range(n)]
        catalog = Catalog()
        for name in ("R4", "S4", "T4"):
            catalog.create_relation(name, ["A", "B"], ring)
        # U4(d, a) closes the cycle: one row (i, i+1, i+2, i+3) per i.
        catalog.create_relation(
            "U4", ["A", "B"], [((i + 3) % n, i) for i in range(n)]
        )
        return Session(catalog)

    @staticmethod
    def grow(session, name, lo, hi):
        session.catalog.apply_batch(
            [Update(name, "+", (100 + i, 200 + i)) for i in range(lo, hi)]
        )

    def test_growth_past_2x_replans_cycle4_exactly_once(self, session):
        first = session.execute(CYCLE4)
        # the ring is small and unsampled: generic join against
        # Minesweeper's GAOs, by measured work
        assert first.plan.engine == ENGINE_GENERIC
        assert first.plan.compared_by_work
        session.execute(TRIANGLE)
        session.execute(PATH)
        built = session.planner.plans_built

        self.grow(session, "R4", 0, 11)  # 12 -> 23 rows: under 2x
        assert session.execute(CYCLE4).plan_origin == "cached"
        assert session.planner.plans_built == built

        self.grow(session, "R4", 11, 12)  # 24 rows: 2x
        refreshed = session.execute(CYCLE4)
        assert refreshed.plan_origin == "refreshed (drift)"
        assert not refreshed.cached_plan
        assert refreshed.plan.cardinalities["R4"] == 24
        assert session.execute(CYCLE4).plan_origin == "cached"
        assert session.planner.plans_built == built + 1
        stats = session.cache.stats()
        assert stats["invalidated"] == stats["drift_replans"] == 1

        # The same growth re-plans the triangle's measured pick once,
        # and never the structural Yannakakis pick.
        result = session.execute(TRIANGLE)
        assert result.plan.compared_by_work
        assert result.plan_origin == "refreshed (drift)"
        assert session.execute(TRIANGLE).plan_origin == "cached"
        result = session.execute(PATH)
        assert result.plan_origin == "cached"
        assert result.plan.cardinalities["R4"] == 12
        assert session.planner.plans_built == built + 2

    def test_shrink_to_empty_and_back(self, session):
        rows = session.execute(CYCLE4).rows
        assert rows
        ring = [tuple(row) for row in session.catalog.relation("U4").tuples()]
        session.catalog.apply_batch([Update("U4", "-", r) for r in ring])
        emptied = session.execute(CYCLE4)
        assert emptied.plan_origin == "refreshed (drift)"
        assert emptied.rows == []
        assert session.execute(CYCLE4).plan_origin == "cached"
        session.catalog.apply_batch([Update("U4", "+", r) for r in ring])
        restored = session.execute(CYCLE4)
        assert restored.plan_origin == "refreshed (drift)"
        assert restored.rows == rows
        assert session.cache.stats()["drift_replans"] == 2


class TestAggregates:
    def test_count(self, session):
        result = session.execute("Q(COUNT) :- R(x, y), S(y, z)")
        assert result.value == 2
        assert result.columns == ("count",)
        assert result.rows == [(2,)]

    def test_min_max(self, session):
        assert session.execute(
            "Q(MIN(z)) :- R(x, y), S(y, z)"
        ).value == 10
        assert session.execute(
            "Q(MAX(x)) :- R(x, y), S(y, z)"
        ).value == 2

    def test_empty_join_aggregates(self, catalog):
        catalog.create_relation("Empty", ["A", "B"])
        session = Session(catalog)
        count = session.execute("Q(COUNT) :- Empty(x, y)")
        assert count.value == 0
        assert count.rows == [(0,)]
        low = session.execute("Q(MIN(x)) :- Empty(x, y)")
        assert low.value is None
        assert low.rows == []

    def test_min_leading_attribute_short_circuits(self):
        # MIN of the first GAO attribute streams one row and stops:
        # its probe work must be well below the full enumeration's.
        # Only Minesweeper streams, so the 4-cycle sits in its regime:
        # R's and U's A ranges are disjoint apart from one planted
        # cycle, which Minesweeper certifies in far less measured work
        # than generic join's walk over every A value.
        catalog = Catalog()
        for name, rows in zip("RSTU", disjoint_ranges_cycle4(250, 1)):
            catalog.create_relation(name, ["A", "B"], rows)
        session = Session(catalog)
        body = "R(a, b), S(b, c), T(c, d), U(d, a)"
        full = session.execute(f"Q(a, b, c, d) :- {body}")
        assert full.plan.engine == "minesweeper"
        # MIN over whichever variable the (deterministic) plan leads
        # with — that is the short-circuit case.
        lead_index = int(full.plan.gao[0][1:])  # canonical 'vK' -> K
        lead = ["a", "b", "c", "d"][lead_index]
        low = session.execute(f"Q(MIN({lead})) :- {body}")
        assert low.plan.gao[0] == full.plan.gao[0]
        assert low.value == min(row[lead_index] for row in full.rows)
        assert 0 < low.ops["findgap"] < full.ops["findgap"] / 2


class TestScriptRunner:
    def test_full_flow(self):
        script = """
        CREATE E(A, B)
        +E 1,2
        +E 2,3
        +E 3,1
        +E 1,3
        commit
        T(x, y, z) :- E(x, y), E(y, z), E(x, z)
        T(COUNT) :- E(x, y), E(y, z), E(x, z)
        STATS
        """
        out = run_script(line for line in script.strip().splitlines())
        joined = "\n".join(out)
        assert "# created E(A, B)" in joined
        assert "# batch 1 applied: E +4/-0" in joined
        assert "# columns: x,y,z" in joined
        assert "value=1" in joined  # exactly the (1,2,3) triangle
        assert "# session:" in joined

    def test_triangle_engine_selected_in_script(self):
        # R's and T's A ranges are disjoint apart from one planted
        # triangle: the triangle engine's regime.
        r, s, t = disjoint_ranges_triangle(128, planted=1)
        script = ["CREATE R(A, B)", "CREATE S(B, C)", "CREATE T(A, C)"]
        for name, rows in zip("RST", (r, s, t)):
            script += [f"+{name} {a},{b}" for a, b in rows]
        script += ["commit", "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)"]
        runner = ScriptRunner()
        runner.run(script)
        assert "256,0,0" in runner.out
        stats = runner.session.stats()
        assert stats["queries_executed"] == 1
        result = runner.session.execute(
            "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)"
        )
        assert result.plan.engine == ENGINE_TRIANGLE
        assert result.cached_plan

    def test_pending_updates_commit_before_query(self):
        script = [
            "CREATE R(A, B)",
            "CREATE S(B, C)",
            "+R 1,2",
            "+S 2,9",
            # no commit: the query must still see both rows
            "Q(x, z) :- R(x, y), S(y, z)",
        ]
        out = run_script(script)
        assert "1,9" in out

    def test_flush_compact_statements(self, catalog):
        out = run_script(
            ["flush R", "compact", "Q(x, z) :- R(x, y), S(y, z)"],
            Session(catalog),
        )
        assert "# flush R" in out
        assert "# compact all" in out
        assert "1,10" in out

    def test_explain_statement(self, catalog):
        out = run_script(
            ["EXPLAIN Q(x, z) :- R(x, y), S(y, z)"], Session(catalog)
        )
        assert any("candidates" in line for line in out)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(ScriptError, match="line 2"):
            run_script(["CREATE R(A, B)", "Q(x) :- Missing(x)"])
        with pytest.raises(ScriptError, match="line 1"):
            run_script(["hello world"])
        with pytest.raises(ScriptError, match="line 2"):
            run_script(["CREATE R(A, B)", "+R 1,2,3", "commit"])

    def test_duplicate_create_fails(self):
        with pytest.raises(ScriptError, match="already registered"):
            run_script(["CREATE R(A)", "CREATE R(A)"])

    def test_create_rejects_unqueryable_names(self):
        # a lowercase relation could be loaded but never referenced by
        # any query — reject at DDL time instead
        with pytest.raises(ScriptError, match="uppercase"):
            run_script(["CREATE follows(A, B)"])
        with pytest.raises(ScriptError, match="invalid attribute"):
            run_script(["CREATE R(1x, y)"])

    def test_explain_with_tab_separator(self, catalog):
        out = run_script(
            ["EXPLAIN\tQ(x, z) :- R(x, y), S(y, z)"], Session(catalog)
        )
        assert any("candidates" in line for line in out)


class TestDurableSession:
    def test_durable_session_round_trip(self, tmp_path):
        data_dir = str(tmp_path / "state")
        session = Session.durable(data_dir, fsync="off")
        assert session.recovery.records_replayed == 0
        run_script(
            ["CREATE R(A, B)", "CREATE S(B, C)",
             "+R 1,2", "+S 2,3", "commit"],
            session,
        )
        first = session.execute("Q(a, c) :- R(a, b), S(b, c)")
        session.close()
        again = Session.durable(data_dir, fsync="off")
        assert again.recovery.batches_replayed == 1
        assert again.execute("Q(a, c) :- R(a, b), S(b, c)").rows == (
            first.rows
        )
        again.close()

    def test_close_without_wal_is_noop(self):
        Session(Catalog()).close()

    def test_close_is_idempotent(self, tmp_path):
        session = Session.durable(str(tmp_path / "state"), fsync="off")
        assert not session.closed
        session.close()
        assert session.closed
        # A second close (pool discard after an explicit close, say)
        # must not blow up on the already-closed WAL.
        session.close()
        assert session.closed

    def test_session_context_manager_closes(self, tmp_path):
        with Session.durable(str(tmp_path / "state"), fsync="off") as s:
            run_script(["CREATE R(A)", "+R 1", "commit"], s)
            assert not s.closed
        assert s.closed
        # And the WAL really closed: a fresh recovery sees the batch.
        again = Session.durable(str(tmp_path / "state"), fsync="off")
        assert again.recovery.batches_replayed == 1
        again.close()

    def test_context_manager_closes_on_error(self):
        with pytest.raises(RuntimeError):
            with Session(Catalog()) as s:
                raise RuntimeError("boom")
        assert s.closed

    def test_disowned_wal_survives_session_close(self, tmp_path):
        owner = Session.durable(str(tmp_path / "state"), fsync="off")
        pooled = Session(owner.catalog, owns_wal=False)
        pooled.close()
        assert pooled.closed
        # The shared WAL is still usable by the owning session.
        run_script(["CREATE R(A)", "+R 1", "commit"], owner)
        owner.close()

    @pytest.mark.parametrize("pooled_obs", ["null", "traced"])
    def test_disowned_catalog_keeps_its_owners_observability(
        self, tmp_path, pooled_obs
    ):
        """A second session over a shared catalog must not re-bind the
        catalog (or re-point the WAL's cached instruments) to its own
        bundle: the owner's write path stays on the owner's books."""
        from repro.obs import Observability

        bundle = Observability(trace=True)
        owner = Session.durable(
            str(tmp_path / "state"), fsync="off", obs=bundle
        )
        wal = owner.catalog.wal
        append_hist = wal._append_hist
        assert owner.catalog.obs is bundle and append_hist is not None
        pooled = Session(
            owner.catalog,
            obs=Observability(trace=True) if pooled_obs == "traced" else None,
            owns_wal=False,
        )
        assert owner.catalog.obs is bundle
        assert wal._append_hist is append_hist
        # ... and the owner's writes are still measured on its bundle.
        before = append_hist.count
        run_script(["CREATE R(A)", "+R 1", "commit"], owner)
        assert append_hist.count > before
        assert any(
            span.name == "apply_batch" for span in bundle.tracer.finished
        )
        pooled.close()
        owner.close()

    def test_script_snapshot_statement(self, tmp_path):
        data_dir = str(tmp_path / "state")
        session = Session.durable(data_dir, fsync="off")
        out = run_script(
            ["CREATE R(A)", "+R 1", "commit", "SNAPSHOT"], session
        )
        session.close()
        assert any(line.startswith("# snapshot 1") for line in out)
        from repro.dynamic.snapshot import list_snapshots

        assert [s[0] for s in list_snapshots(data_dir)] == [1]

    def test_script_snapshot_commits_pending_first(self, tmp_path):
        data_dir = str(tmp_path / "state")
        session = Session.durable(data_dir, fsync="off")
        run_script(["CREATE R(A)", "+R 1", "SNAPSHOT"], session)
        session.close()
        from repro.dynamic import recover_catalog
        from repro.dynamic.snapshot import load_manifest, list_snapshots

        manifest = load_manifest(list_snapshots(data_dir)[0][1])
        # The staged +R 1 was committed (and WAL-logged) before the
        # snapshot was cut, so the image includes it.
        assert manifest["relations"]["R"]["live_rows"] == 1
        catalog, _ = recover_catalog(data_dir, attach=False)
        assert catalog.relation("R").index.tuples() == [(1,)]


_FOOTPRINT_SCRIPT = """
import sys
at_startup = set(sys.modules)  # __main__, whatever site's .pth files load
import repro.cli
from repro.datasets.instances import (
    disjoint_ranges_cycle4,
    disjoint_ranges_triangle,
)
from repro.dynamic import Catalog
from repro.serve import Session

n = 12
cycle = [(i, (i + 1) % n) for i in range(n)]
catalog = Catalog()
for name in "RST":
    catalog.create_relation(name, ["A", "B"], cycle)
catalog.create_relation("U", ["A", "B"], [((i + 3) % n, i) for i in range(n)])
for name, rows in zip(("R3", "S3", "T3"), disjoint_ranges_triangle(128, 1)):
    catalog.create_relation(name, ["A", "B"], rows)
for name, rows in zip(("R4", "S4", "T4", "U4"), disjoint_ranges_cycle4(250, 1)):
    catalog.create_relation(name, ["A", "B"], rows)
session = Session(catalog)
planned = {
    "yannakakis": "Q(x, z) :- R(x, y), S(y, z)",
    "triangle": "Q(x, y, z) :- R3(x, y), S3(y, z), T3(x, z)",
    "generic": "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)",
    "minesweeper": "Q(a, b, c, d) :- R4(a, b), S4(b, c), T4(c, d), U4(d, a)",
}
for engine, text in planned.items():
    result = session.execute(text)
    assert result.plan.engine == engine, (text, result.plan.engine)
    assert result.rows, text
assert "fractional cover : 1.5" in session.explain(planned["triangle"])
foreign = sorted(
    {name.split(".")[0] for name in set(sys.modules) - at_startup}
    - sys.stdlib_module_names - {"repro"}
)
assert not foreign, foreign
"""


def test_serving_process_loads_only_repro_and_the_standard_library():
    # Every process that plans a query (the HTTP server, each spawned
    # shard worker, a recovering catalog) pays for whatever the plan
    # path imports, eagerly or lazily: one third-party package there
    # is tens of MB and most of a second before the first answer.
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT],
        env=env, check=True, timeout=60,
    )

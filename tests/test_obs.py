"""Observability tests: span invariants, metrics, unified stats.

The trace-tree invariants (ISSUE 7) are the load-bearing part: spans
strictly nest, child durations never exceed their parent's, every span
closes exactly once — including on exception paths — and the JSONL
export round-trips through :func:`repro.obs.load_jsonl`.  Alongside:
the Prometheus exposition, the unified stats tree, null-path parity
with the un-instrumented session, and the script layer's TRACE ON/OFF.
"""

import io
import json

import pytest

from repro.dynamic import Catalog, Update
from repro.obs import (
    DEFAULT_OP_BUCKETS,
    NULL_OBS,
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    NullMetrics,
    NullTracer,
    Observability,
    TraceError,
    Tracer,
    flatten_stats,
    load_jsonl,
    render_stats_tree,
    render_tree,
    stats_to_prometheus,
    unified_stats,
)
from repro.serve import ScriptRunner, Session

TEXT = "Q(x, z) :- R(x, y), S(y, z)"


def make_catalog():
    cat = Catalog()
    cat.create_relation("R", ["A", "B"], [(1, 2), (2, 3), (3, 1)])
    cat.create_relation("S", ["B", "C"], [(2, 10), (3, 20)])
    return cat


def traced_session(**obs_kwargs):
    obs_kwargs.setdefault("trace", True)
    return Session(make_catalog(), obs=Observability(**obs_kwargs))


# ---------------------------------------------------------------------------
# Tracer invariants
# ---------------------------------------------------------------------------


class TestSpanNesting:
    def test_children_nest_under_open_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent_id == outer.span_id

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert parent.children == [a, b]
        assert a.parent_id == b.parent_id == parent.span_id

    def test_child_duration_never_exceeds_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("child") as child:
                sum(range(1000))
        assert child.duration_s <= parent.duration_s

    def test_deep_nesting_durations_monotone(self):
        tracer = Tracer()
        spans = []
        with tracer.span("d0") as s0:
            spans.append(s0)
            with tracer.span("d1") as s1:
                spans.append(s1)
                with tracer.span("d2") as s2:
                    spans.append(s2)
        for parent, child in zip(spans, spans[1:]):
            assert child.duration_s <= parent.duration_s

    def test_every_span_closes_exactly_once(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert all(s.closed for s in tracer.finished)
        assert len(tracer.finished) == 2
        assert tracer.depth == 0

    def test_double_close_raises(self):
        tracer = Tracer()
        span = tracer.span("once")
        with span:
            pass
        with pytest.raises(TraceError, match="closed twice"):
            span.__exit__(None, None, None)

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer").__enter__()
        tracer.span("inner").__enter__()
        with pytest.raises(TraceError, match="out of nesting order"):
            outer.__exit__(None, None, None)

    def test_exception_path_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom") as span:
                raise RuntimeError("kaboom")
        assert span.closed
        assert span.duration_s is not None
        assert span.attributes["error"] == "RuntimeError"
        assert tracer.depth == 0

    def test_exception_closes_nested_spans_in_order(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    raise ValueError("inner failure")
        assert inner.closed and outer.closed
        assert inner.attributes["error"] == "ValueError"
        assert outer.attributes["error"] == "ValueError"
        # children-first completion order
        assert tracer.finished == [inner, outer]

    def test_set_and_set_ops(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            span.set("rows", 3).set("engine", "minesweeper")
            span.set_ops({"findgap": 7, "probes": 0})
        assert span.attributes["rows"] == 3
        assert span.ops == {"findgap": 7}  # zero tallies dropped

    def test_record_span_synthetic_duration(self):
        tracer = Tracer()
        span = tracer.record_span("recover", 1.25, records_replayed=4)
        assert span.closed
        assert span.duration_s == 1.25
        assert span.attributes["records_replayed"] == 4
        assert tracer.roots == [span]

    def test_runtime_toggle(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("off") is NULL_SPAN
        tracer.enabled = True
        assert tracer.span("on") is not NULL_SPAN
        tracer.enabled = False
        assert tracer.record_span("off", 1.0) is NULL_SPAN


class TestNullPath:
    def test_null_tracer_hands_out_the_shared_span(self):
        assert NULL_TRACER.span("anything") is NULL_SPAN
        assert NULL_TRACER.record_span("x", 1.0) is NULL_SPAN
        assert NullTracer().span("x") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            assert span.set("k", "v") is NULL_SPAN
            assert span.set_ops({"findgap": 9}) is NULL_SPAN
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.ops == {}
        assert NULL_SPAN.name == ""

    def test_null_span_does_not_swallow_exceptions(self):
        with pytest.raises(RuntimeError):
            with NULL_SPAN:
                raise RuntimeError("must propagate")

    def test_null_metrics_hands_out_inert_instruments(self):
        null = NullMetrics()
        null.counter("c").inc()
        null.gauge("g").set(5)
        null.histogram("h").observe(1.0)
        assert null.snapshot() == {}
        assert null.render_prometheus() == ""

    def test_null_obs_surface(self):
        assert not NULL_OBS.enabled
        NULL_OBS.record_query("Q() :- R(x)", 10.0)
        assert NULL_OBS.slow_queries == []


# ---------------------------------------------------------------------------
# JSONL round-trip
# ---------------------------------------------------------------------------


class TestJsonlRoundTrip:
    def build_forest(self):
        tracer = Tracer()
        with tracer.span("query", text="Q") as q:
            with tracer.span("plan", cache="miss"):
                with tracer.span("score", gao="x,y"):
                    pass
            with tracer.span("execute") as e:
                e.set_ops({"findgap": 3})
        with tracer.span("apply_batch", batch=1):
            pass
        return tracer, q

    @staticmethod
    def flatten(spans):
        for span in spans:
            yield span
            yield from TestJsonlRoundTrip.flatten(span.children)

    def test_round_trip_preserves_structure(self):
        tracer, _ = self.build_forest()
        sink = io.StringIO()
        count = tracer.export_jsonl(sink)
        assert count == 5
        roots = load_jsonl(io.StringIO(sink.getvalue()))
        original = list(self.flatten(tracer.roots))
        loaded = list(self.flatten(roots))
        assert [s.name for s in loaded] == [s.name for s in original]
        assert [s.span_id for s in loaded] == [s.span_id for s in original]
        assert [s.parent_id for s in loaded] == [
            s.parent_id for s in original
        ]
        assert [s.attributes for s in loaded] == [
            s.attributes for s in original
        ]
        assert [s.duration_s for s in loaded] == [
            s.duration_s for s in original
        ]

    def test_parents_precede_children_on_disk(self):
        tracer, _ = self.build_forest()
        sink = io.StringIO()
        tracer.export_jsonl(sink)
        seen = {0}
        for line in sink.getvalue().splitlines():
            data = json.loads(line)
            assert data["parent_id"] in seen
            seen.add(data["span_id"])

    def test_loader_rejects_unknown_parent(self):
        line = json.dumps(
            {"span_id": 2, "parent_id": 99, "name": "x", "duration_s": 0.1}
        )
        with pytest.raises(ValueError, match="parent_id 99 not seen"):
            load_jsonl([line])

    def test_loader_rejects_duplicate_span_id(self):
        line = json.dumps(
            {"span_id": 1, "parent_id": 0, "name": "x", "duration_s": 0.1}
        )
        with pytest.raises(ValueError, match="duplicate span_id"):
            load_jsonl([line, line])

    def test_loader_rejects_open_or_negative_durations(self):
        bad = json.dumps(
            {"span_id": 1, "parent_id": 0, "name": "x", "duration_s": None}
        )
        with pytest.raises(ValueError, match="no valid duration"):
            load_jsonl([bad])
        negative = json.dumps(
            {"span_id": 1, "parent_id": 0, "name": "x", "duration_s": -1}
        )
        with pytest.raises(ValueError, match="no valid duration"):
            load_jsonl([negative])

    def test_loader_rejects_non_json(self):
        with pytest.raises(ValueError, match="not JSON"):
            load_jsonl(["{nope"])

    def test_export_to_path(self, tmp_path):
        tracer, _ = self.build_forest()
        path = tmp_path / "spans.jsonl"
        tracer.export_jsonl(str(path))
        assert len(load_jsonl(str(path))) == 2


class TestRenderTree:
    def test_render_shows_stages_and_ops(self):
        tracer, q = TestJsonlRoundTrip().build_forest()
        lines = render_tree(q)
        assert lines[0].startswith("query")
        assert "text=Q" in lines[0]
        joined = "\n".join(lines)
        assert "├─ plan" in joined
        assert "└─ score" in joined
        assert "└─ execute" in joined
        assert "findgap=3" in joined
        assert all("ms" in line for line in lines)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "Cache hits.")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.counter("a", labels={"k": "1"}) is not reg.counter("a")

    def test_kind_conflict_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing")

    def test_histogram_buckets_cumulative_with_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 99.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["buckets"] == {"1": 2, "10": 3, "+Inf": 4}
        assert summary["min"] == 0.5 and summary["max"] == 99.0

    def test_histogram_boundary_lands_in_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        h.observe(1.0)  # le="1" is inclusive
        assert h.summary()["buckets"]["1"] == 1

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry(namespace="repro")
        reg.counter("queries_total", "Total queries.",
                    labels={"cache": "hit"}).inc(2)
        reg.histogram("lat_seconds", "Latency.", buckets=(0.1,)).observe(
            0.05
        )
        text = reg.render_prometheus()
        assert "# HELP repro_queries_total Total queries.\n" in text
        assert "# TYPE repro_queries_total counter\n" in text
        assert 'repro_queries_total{cache="hit"} 2\n' in text
        assert 'repro_lat_seconds_bucket{le="0.1"} 1\n' in text
        assert 'repro_lat_seconds_bucket{le="+Inf"} 1\n' in text
        assert "repro_lat_seconds_sum 0.05\n" in text
        assert "repro_lat_seconds_count 1\n" in text

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok", labels={"bad-label": "x"})

    def test_snapshot_shape(self):
        reg = MetricsRegistry(namespace="t")
        reg.counter("c", labels={"k": "v"}).inc()
        snap = reg.snapshot()
        assert snap["t_c"]["kind"] == "counter"
        assert snap["t_c"]["k=v"] == 1


# ---------------------------------------------------------------------------
# Session integration
# ---------------------------------------------------------------------------


class TestSessionTracing:
    def test_untraced_session_has_no_trace(self):
        session = Session(make_catalog())
        result = session.execute(TEXT)
        assert result.trace is None
        assert session.obs is NULL_OBS

    def test_traced_query_span_tree(self):
        session = traced_session()
        result = session.execute(TEXT)
        trace = result.trace
        assert trace is not None and trace.name == "query"
        child_names = [c.name for c in trace.children]
        assert child_names[0] == "plan"
        assert child_names[-1] == "execute"
        plan_span = trace.children[0]
        assert plan_span.attributes["cache"] == "miss"
        # candidate scoring nests under plan
        assert {c.name for c in plan_span.children} == {"score"}
        # op tallies bridged into the query span
        assert trace.ops == result.ops or trace.ops == {
            k: v for k, v in result.ops.items() if v
        }

    def test_cached_plan_span_has_no_scoring_children(self):
        session = traced_session()
        session.execute(TEXT)
        result = session.execute(TEXT)
        plan_span = result.trace.children[0]
        assert plan_span.attributes["cache"] == "hit"
        assert plan_span.children == []

    def test_sharded_query_has_shard_spans(self):
        from repro.planner import PlannerConfig

        # A 4-cycle is cyclic and non-triangle, so the planner picks
        # Minesweeper — the only engine with a sharded path.
        cat = Catalog()
        rows = [(1, 2), (2, 3), (3, 4), (4, 1)]
        cat.create_relation("R", ["A", "B"], rows)
        cat.create_relation("S", ["B", "C"], rows)
        cat.create_relation("T", ["C", "D"], rows)
        cat.create_relation("U", ["D", "A"], rows)
        session = Session(
            cat,
            config=PlannerConfig(
                shards=2, workers=0, shard_threshold=1
            ),
            obs=Observability(trace=True),
        )
        result = session.execute(
            "Q(w, x, y, z) :- R(w, x), S(x, y), T(y, z), U(z, w)"
        )
        execute = result.trace.children[-1]
        shard_spans = [c for c in execute.children if c.name == "shard"]
        assert len(shard_spans) >= 1
        for span in shard_spans:
            assert span.attributes["mode"] == "in-process"
            assert "lo" in span.attributes and "hi" in span.attributes
            assert span.duration_s <= execute.duration_s

    def test_rows_invariant_under_tracing(self):
        plain = Session(make_catalog()).execute(TEXT)
        # metrics only (the TRACE OFF runtime state), then fully traced
        for trace in (False, True):
            observed = traced_session(trace=trace).execute(TEXT)
            assert plain.rows == observed.rows
            assert plain.ops == observed.ops

    def test_view_maintenance_ops_invariant_under_a_bound_catalog(self):
        """Instrumenting the write path never touches the op currency:
        the live view tallies the same counts un-bound, metrics-only
        and traced."""
        from repro.dynamic import build_catalog, triangle_stream

        schemas, initial, batches = triangle_stream(
            n_nodes=10, n_edges=20, n_batches=3, batch_size=4,
            insert_fraction=0.5, seed=12,
        )
        outcomes = []
        for obs in (None, Observability(trace=False), Observability(trace=True)):
            catalog, view = build_catalog(schemas, initial)
            if obs is not None:
                catalog.bind_obs(obs)
            for batch in batches:
                catalog.apply_batch(batch)
            outcomes.append((view.rows(), view.counters.snapshot()))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_query_metrics_recorded(self):
        session = traced_session()
        session.execute(TEXT)
        session.execute(TEXT)
        snap = session.obs.metrics.snapshot()
        totals = snap["repro_queries_total"]
        assert totals["cache=miss"] == 1
        assert totals["cache=hit"] == 1
        assert snap["repro_query_seconds"]["value"]["count"] == 2

    def test_plans_built_metric_names_its_reason(self):
        cat = Catalog()
        ring = [(i, (i + 1) % 6) for i in range(6)]
        for name in ("R", "S", "T", "U"):
            cat.create_relation(name, ["A", "B"], ring)
        session = Session(cat, obs=Observability())
        cycle = "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)"
        session.execute(cycle)
        session.execute(cycle)
        cat.apply_batch([Update("R", "+", (10 + i, i)) for i in range(6)])
        session.execute(cycle)  # R doubled: the cost-based plan drifted
        built = session.obs.metrics.snapshot()[
            "repro_planner_plans_built_total"
        ]
        assert built["reason=cold"] == 1 and built["reason=drift"] == 1
        assert session.planner.plans_built == 2
        text = session.obs.metrics.render_prometheus()
        assert 'repro_planner_plans_built_total{reason="drift"} 1\n' in text

    def test_slow_query_log_threshold(self):
        session = traced_session(slow_query_ms=0.0)
        session.execute(TEXT)
        assert len(session.obs.slow_queries) == 1
        entry = session.obs.slow_queries[0]
        assert entry["text"].startswith("Q(")
        assert "ops" in entry and entry["seconds"] >= 0
        fast = traced_session(slow_query_ms=1e9)
        fast.execute(TEXT)
        assert fast.obs.slow_queries == []

    def test_apply_batch_spans_cover_wal_and_views(self, tmp_path):
        obs = Observability(trace=True)
        session = Session.durable(str(tmp_path / "data"), obs=obs)
        runner = ScriptRunner(session)
        runner.run(
            ["CREATE R(A, B)", "+R 1,2", "+R 2,3", "commit"]
        )
        batch_spans = [
            s for s in obs.tracer.roots if s.name == "apply_batch"
        ]
        assert batch_spans, "apply_batch must be spanned"
        names = {c.name for c in batch_spans[0].children}
        assert "wal.append" in names
        assert "storage.apply" in names
        session.close()

    def test_durable_session_records_recovery_span(self, tmp_path):
        data = str(tmp_path / "data")
        first = Session.durable(data)
        runner = ScriptRunner(first)
        runner.run(["CREATE R(A, B)", "+R 1,2", "commit"])
        first.close()
        obs = Observability(trace=True)
        session = Session.durable(data, obs=obs)
        recover = [s for s in obs.tracer.roots if s.name == "recover"]
        assert len(recover) == 1
        assert recover[0].attributes["records_replayed"] == 2
        snap = obs.metrics.snapshot()
        assert snap["repro_recovery_seconds"]["value"]["count"] == 1
        assert (
            snap["repro_wal_append_seconds"]["value"]["count"] == 0
        )  # nothing appended yet after recovery
        session.close()

    def test_wal_append_and_fsync_histograms(self, tmp_path):
        obs = Observability(trace=True)
        session = Session.durable(
            str(tmp_path / "data"), fsync="always", obs=obs
        )
        runner = ScriptRunner(session)
        runner.run(["CREATE R(A, B)", "+R 1,2", "commit"])
        snap = obs.metrics.snapshot()
        # CREATE + batch = 2 appends, each fsynced under "always"
        assert snap["repro_wal_append_seconds"]["value"]["count"] == 2
        assert snap["repro_wal_fsync_seconds"]["value"]["count"] >= 2
        session.close()


class TestScriptTrace:
    def test_trace_on_off(self):
        runner = ScriptRunner(Session(make_catalog()))
        out = runner.run(["TRACE ON", TEXT, "TRACE OFF", TEXT])
        joined = "\n".join(out)
        assert "# trace on" in joined
        assert "# trace off" in joined
        tree_lines = [line for line in out if "query  " in line]
        # exactly one traced query tree (second query ran untraced)
        assert len(tree_lines) == 1
        assert any("└─ execute" in line for line in out)

    def test_trace_on_attaches_real_obs(self):
        session = Session(make_catalog())
        runner = ScriptRunner(session)
        runner.run(["TRACE ON"])
        assert session.obs.enabled
        assert session.obs.tracer.enabled

    def test_stats_emits_unified_tree(self):
        runner = ScriptRunner(Session(make_catalog()))
        out = runner.run([TEXT, "STATS"])
        joined = "\n".join(out)
        assert "# session:" in joined
        assert "# session.queries_executed" in joined
        assert "# plan_cache.hits" in joined
        assert "# catalog.generation" in joined


# ---------------------------------------------------------------------------
# Unified stats
# ---------------------------------------------------------------------------


class TestUnifiedStats:
    def test_tree_shape(self):
        session = Session(make_catalog())
        session.execute(TEXT)
        tree = unified_stats(session)
        assert tree["session"]["queries_executed"] == 1
        assert "plans_built" in tree["planner"]
        assert {"hits", "misses", "invalidated"} <= set(
            tree["plan_cache"]
        )
        assert "generation" in tree["catalog"]
        assert "R" in tree["catalog"]["relations"]

    def test_session_stats_is_the_unified_tree(self):
        """``Session.stats()`` is the tree itself: each counter has one
        path, with no flat alias beside it."""
        session = Session(make_catalog())
        session.execute(TEXT)
        stats = session.stats()
        assert stats == unified_stats(session)
        assert stats["session"]["queries_executed"] == 1
        assert stats["catalog"]["generation"] == session.catalog.generation
        for alias in (
            "queries_executed", "statements_prepared", "catalog_generation"
        ):
            assert alias not in stats

    def test_flatten_and_prometheus_agree_on_paths(self):
        session = Session(make_catalog())
        session.execute(TEXT)
        tree = unified_stats(session)
        flat = flatten_stats(tree)
        text = stats_to_prometheus(tree)
        exported = set()
        for line in text.splitlines():
            if line.startswith("repro_stat{"):
                path = line.split('path="', 1)[1].split('"', 1)[0]
                exported.add(path)
        numeric = {
            p
            for p, v in flat.items()
            if isinstance(v, (int, float, bool))
        }
        assert exported == numeric

    def test_render_tree_lines_sorted_and_aligned(self):
        session = Session(make_catalog())
        lines = render_stats_tree(unified_stats(session))
        paths = [line.split("=")[0].strip() for line in lines]
        assert paths == sorted(paths)
        assert len({line.index("= ") for line in lines}) == 1

    def test_wal_subtree_present_for_durable(self, tmp_path):
        session = Session.durable(str(tmp_path / "data"))
        tree = unified_stats(session)
        assert "wal" in tree["catalog"]
        assert tree["catalog"]["wal"]["fsync_policy"] == "batch"
        session.close()


class TestObservabilityBundle:
    def test_defaults(self):
        obs = Observability()
        assert obs.enabled
        assert not obs.tracer.enabled  # tracing is opt-in
        assert obs.metrics.enabled

    def test_op_bucket_constants_cover_small_and_large(self):
        assert DEFAULT_OP_BUCKETS[0] == 1
        assert DEFAULT_OP_BUCKETS[-1] >= 2**24

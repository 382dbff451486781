"""Per-layer metrics and the traced re-drive (``--trace 1``).

Every number here is taken *from outside*: the harness times calls into
each layer's public functions on the same seeded inputs the workloads
use, in-process, and reads counters from public surfaces.  Nested
layers are separated by differencing the same request at successive
depths — ``Client.query`` ⊃ ``Gateway.handle`` ⊃ ``Session.execute`` ⊃
{``parse``/``lower``, the engine call} — each depth a span whose
``parent`` is the enclosing depth; a layer's self time is its span's
duration minus its children's.  (Spans inside ``src/`` are a later
issue; none is added here.)

A traced run has three parts:

1. the **probe battery** — the same outside-in probes whatever the
   workload, so every per-layer metric exists on every run;
2. the **traced re-drive** of the workload's first N ops against an
   in-thread server with the program's own tracing on, op by op beside
   an untraced twin (alternating which goes first), whose paired
   difference is ``obs.trace_overhead_pct``;
3. the **ledger**: per op class of the workload, each layer's self
   time and share, and the check that they sum to the in-process
   end-to-end time of the re-drive.
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import OpCounters, join
from repro.baselines import yannakakis_join
from repro.core.triangle import triangle_join
from repro.dynamic import WriteAheadLog, open_catalog, parse_update, recover_catalog
from repro.lang import lower, parse, validate
from repro.net import Client, ClientError, TenantRegistry, TenantSpec, serve_http
from repro.planner import Planner
from repro.planner.planner import triangle_edges
from repro.storage import DeltaRelation

import gen
import harness
import oracle
import spec
import suite
import workloads

READ_CLASSES = ("path2", "path3_proj", "count_tri", "cycle4", "tri_rows")
#: Ledger layers, outermost first; ``engine`` is ``core`` + ``baselines``.
LAYERS = ("net", "lang", "planner", "serve", "engine", "dynamic", "storage", "parallel")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


class Spans:
    """Harness-side spans, kept in memory and written out at exit."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, object]] = []

    def timed(self, op_id: str, layer: str, name: str, parent: Optional[int],
              fn: Callable[[], object]) -> Tuple[object, int]:
        """Run ``fn`` inside a span; returns (its value, the span id)."""
        start = time.perf_counter()
        value = fn()
        end = time.perf_counter()
        return value, self.add(op_id, layer, name, parent, start, end)

    def add(self, op_id: str, layer: str, name: str, parent: Optional[int],
            start: float, end: float) -> int:
        self.rows.append({
            "id": len(self.rows), "op_id": op_id, "layer": layer, "name": name,
            "start": start, "end": end, "parent": parent,
        })
        return len(self.rows) - 1

    def seconds(self, span_id: int) -> float:
        row = self.rows[span_id]
        return row["end"] - row["start"]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for row in self.rows:
                handle.write(json.dumps(row) + "\n")

    def self_times(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """op class -> op id -> layer -> self milliseconds.

        Self time = the span's duration minus its children's.  A
        negative remainder (two separately timed depths inverted by
        noise) is kept as it is so the layers still sum to the root.
        """
        children: Dict[int, float] = {}
        for row in self.rows:
            if row["parent"] is not None:
                children[row["parent"]] = (
                    children.get(row["parent"], 0.0) + row["end"] - row["start"]
                )
        out: Dict[str, Dict[str, Dict[str, float]]] = {}
        for row in self.rows:
            own = row["end"] - row["start"] - children.get(row["id"], 0.0)
            op_class = row["op_id"].split("#", 1)[0]
            layers = out.setdefault(op_class, {}).setdefault(row["op_id"], {})
            layers[row["layer"]] = layers.get(row["layer"], 0.0) + own * 1e3
        return out


def _ledger_layer(layer: str) -> str:
    if layer in ("core", "baselines"):
        return "engine"
    return layer.split(".", 1)[0]


# ----------------------------------------------------------------------
# An in-thread server over every relation the workloads use
# ----------------------------------------------------------------------


def all_tables(settings: workloads.Settings) -> oracle.Tables:
    sizes, seed = settings.sizes, settings.seed
    return {
        **workloads.read_tables(sizes, seed),
        **workloads.cyclic_tables(sizes, seed),
        "L": workloads.write_tables(sizes, seed)["L"],
    }


class Env:
    """``serve_http`` on a thread over one durable tenant."""

    def __init__(self, settings: workloads.Settings, data_dir: str, trace: bool) -> None:
        self.tables = all_tables(settings)
        workloads.build_data_dir(
            data_dir, workloads.Tenant(self.tables, view=("tri", ["R", "S", "T"])))
        self.data_dir = data_dir
        self.registry = TenantRegistry(
            [TenantSpec(spec.TENANT)], data_dir=data_dir, fsync=spec.FSYNC, trace=trace)
        self.server = serve_http(self.registry)
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()
        self.tenant = self.registry.get(spec.TENANT)
        self.catalog = self.tenant.catalog
        self.gateway = self.server.gateway
        self.client = Client(self.server.url, tenant=spec.TENANT)

    def plan_cache(self) -> Dict[str, int]:
        return dict(self.registry.stats()["plan_cache"])

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.registry.close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "Env":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _body(**fields: object) -> bytes:
    return json.dumps({"tenant": spec.TENANT, **fields}).encode()


def _ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3


# ----------------------------------------------------------------------
# The probe battery
# ----------------------------------------------------------------------


class Battery:
    """Outside-in probes of every layer on the seeded inputs."""

    def __init__(self, settings: workloads.Settings, env: Env, spans: Spans,
                 scratch: str) -> None:
        self.settings = settings
        self.env = env
        self.spans = spans
        self.scratch = scratch
        self.metrics: Dict[str, float] = {}
        self.out = harness.Outcomes()
        self.model = oracle.Model(env.tables)
        self.reps = 3 if settings.smoke else 10

    def run(self) -> None:
        self.reads()
        self.net_floor()
        self.writes()
        self.lsm_and_durability()
        self.recovery()
        self.engine_suite()
        self.final_check()

    # -- reads: net > gateway > serve > {lang, engine}; planner cold ----

    def reads(self) -> None:
        env, spans, m = self.env, self.spans, self.metrics
        catalog = env.catalog
        estimate_runs = 0
        floor: Dict[str, Dict[str, List[float]]] = {}
        for cls in READ_CLASSES:
            texts = gen.renamings(cls, self.settings.seed)
            want = oracle.expected_digest(texts[0], self.model.tables())
            statement = parse(texts[0])
            canonical = lower(statement.canonicalize(), catalog)
            # Cold = no cached plan, not a cold process: planners of our
            # own (the sessions' stay untouched), the faster of two, so
            # the first call's lazy imports are not billed to planning.
            cold = []
            for attempt in range(2):
                planner = Planner()
                _, span = spans.timed(
                    f"{cls}~plan#{attempt}", "planner", "Planner.plan", None,
                    lambda: planner.plan(canonical, signature=statement.signature(),
                                         generation=catalog.generation))
                cold.append(spans.seconds(span) * 1e3)
            m[f"planner.plan_cold_ms.{cls}"] = min(cold)
            estimate_runs += planner.estimate_runs
            reps = 2 * self.reps if cls in ("path2", "path3_proj", "count_tri") else self.reps // 2 + 1
            depth = floor.setdefault(cls, {})
            # One untimed round first: lazy imports and first-call set-up
            # at every depth are not any layer's steady-state cost.
            self._read_probe(cls, texts[0], "warm", want, canonical, Spans(), {})
            for rep in range(reps):
                self._read_probe(cls, texts[rep % len(texts)], str(rep), want,
                                 canonical, spans, depth)
            m[f"serve.execute_cached_ms.{cls}"] = _ms(depth["session"])
        hot = floor["path2"]
        m["net.transport_self_ms"] = _ms(hot["client"]) - _ms(hot["gateway"])
        m["net.gateway_self_ms"] = _ms(hot["gateway"]) - _ms(hot["session"])
        m["net.response_bytes_per_row"] = statistics.median(hot["bytes_per_row"])
        m["lang.parse_us"] = _ms(hot["parse"]) * 1e3
        m["lang.lower_us"] = _ms(hot["lower"]) * 1e3
        m["baselines.yannakakis_ms"] = _ms(hot["engine"])
        m["serve.self_ms"] = (
            _ms(hot["session"]) - _ms(hot["parse"]) - _ms(hot["lower"]) - _ms(hot["engine"])
        )
        m["planner.estimate_runs"] = estimate_runs

    def _read_probe(self, cls: str, text: str, rep: str, want: str, canonical,
                    spans: Spans, depth: Dict[str, List[float]]) -> None:
        """One read at every depth, outermost first."""
        env, catalog = self.env, self.env.catalog
        op = f"{cls}#{rep}"
        self.out.attempted += 1
        try:
            response, s0 = spans.timed(
                op, "net", "Client.query", None, lambda: env.client.query(text))
        except ClientError as exc:
            self.out.fail("refused" if exc.status in harness.REFUSALS else "errors", str(exc))
            return
        if gen.rows_digest(response["rows"]) != want:
            self.out.fail("wrong", f"{cls}: answer differs from the oracle")
        body = _body(query=text)
        (_, raw, _), s1 = spans.timed(
            op, "net", "Gateway.handle", s0,
            lambda: env.gateway.handle("POST", "/v1/query", body))
        with env.tenant.pool.lease() as session:
            result, s2 = spans.timed(
                op, "serve", "Session.execute", s1, lambda: session.execute(text))
        parsed, s3 = spans.timed(
            op, "lang", "parse+validate+signature", s2, lambda: _parse(text, catalog))
        _, s4 = spans.timed(op, "lang", "lower", s2, lambda: lower(parsed, catalog))
        layer, name, call = _engine_call(result.plan, canonical)
        _, s5 = spans.timed(op, layer, name, s2, call)
        for key, span in (("client", s0), ("gateway", s1), ("session", s2),
                          ("parse", s3), ("lower", s4), ("engine", s5)):
            depth.setdefault(key, []).append(spans.seconds(span))
        depth.setdefault("bytes_per_row", []).append(
            len(raw) / max(1, len(response["rows"])))

    def net_floor(self) -> None:
        client, count = self.env.client, 5 * self.reps
        floor, scrape = [], []
        for _ in range(count):
            t0 = time.perf_counter()
            client.healthz()
            floor.append(time.perf_counter() - t0)
        for _ in range(self.reps):
            t0 = time.perf_counter()
            client.metrics()
            scrape.append(time.perf_counter() - t0)
        self.out.attempted += count + self.reps
        self.metrics["net.http_floor_ms"] = _ms(floor)
        self.metrics["obs.metrics_scrape_ms"] = _ms(scrape)

    # -- writes: net > gateway > tenant > catalog > {wal, view, storage} -

    def writes(self) -> None:
        env, spans, m, settings = self.env, self.spans, self.metrics, self.settings
        tables = env.tables
        # class -> (its update stream, updates per batch)
        churns = {
            "write_viewed": (workloads.churn("write_viewed", settings, tables), 8),
            "write_viewless": (workloads.churn("write_viewless", settings, tables), 8),
            "write": (workloads.churn("write", settings, tables), 2),
        }
        shadow = {
            name: DeltaRelation(sorted(rows), arity=2)
            for name, (_, rows) in tables.items()
        }
        wal = WriteAheadLog(os.path.join(self.scratch, "probe-wal"), fsync=spec.FSYNC)
        wal_updates = 0
        apply_ms: Dict[str, List[float]] = {c: [] for c in churns}
        view_ms: List[float] = []
        wal_s: List[float] = []
        delta_s: List[float] = []
        submit_s: List[float] = []
        wait_s: List[float] = []

        def next_batch(cls: str):
            churn, size = churns[cls]
            batch = churn.batch(size)
            self.model.apply(batch)
            lines = [gen.update_line(*u) for u in batch]
            return batch, lines, [parse_update(line) for line in lines]

        def shadow_apply(batch) -> None:
            for name, row, insert in batch:
                shadow[name].apply([row] if insert else [], [] if insert else [row])

        try:
            for rep in range(self.reps):
                for cls in churns:
                    op = f"{cls}#{rep}"
                    self.out.attempted += 4
                    batch, lines, _ = next_batch(cls)
                    shadow_apply(batch)
                    response, s0 = spans.timed(
                        op, "net", "Client.update", None,
                        lambda: env.client.update(lines, sync=True))
                    if response.get("applied") != len(lines):
                        self.out.fail("wrong", f"{cls}: applied {response.get('applied')} of {len(lines)}")
                    batch, lines, _ = next_batch(cls)
                    shadow_apply(batch)
                    body = _body(updates=lines, sync=True)
                    _, s1 = spans.timed(
                        op, "net", "Gateway.handle", s0,
                        lambda: env.gateway.handle("POST", "/v1/update", body))
                    batch, _, updates = next_batch(cls)
                    shadow_apply(batch)
                    _, s2 = spans.timed(
                        op, "net", "Tenant.apply_sync", s1,
                        lambda: env.tenant.apply_sync(updates))
                    batch, _, updates = next_batch(cls)
                    report, s3 = spans.timed(
                        op, "dynamic", "Catalog.apply_batch", s2,
                        lambda: env.catalog.apply_batch(updates))
                    if report.updates_applied != len(updates):
                        self.out.fail("wrong", f"{cls}: applied {report.updates_applied} of {len(updates)}")
                    # Children of the catalog call.  View maintenance is
                    # the BatchReport's own field; the WAL append and the
                    # index write are timed on twins fed the same batch.
                    start = spans.rows[s3]["start"]
                    seconds = report.views["tri"]["seconds"]
                    spans.add(op, "core", "LiveJoin.apply_delta (BatchReport.views)",
                              s3, start, start + seconds)
                    _, s4 = spans.timed(
                        op, "dynamic.wal", "WriteAheadLog.append_batch", s3,
                        lambda: wal.append_batch(updates))
                    wal_updates += len(updates)
                    _, s5 = spans.timed(
                        op, "storage", "DeltaRelation.apply", s3,
                        lambda: shadow_apply(batch))
                    apply_ms[cls].append(spans.seconds(s3))
                    if cls == "write_viewed":
                        view_ms.append(seconds)
                    wal_s.append(spans.seconds(s4))
                    delta_s.append(spans.seconds(s5) / len(updates))
                # Async ingest: submit, then 202 -> applied.
                _, _, updates = next_batch("write_viewless")
                self.out.attempted += 1
                t0 = time.perf_counter()
                ticket = env.tenant.ingest.submit(updates)
                t1 = time.perf_counter()
                if not env.tenant.ingest.wait(ticket, timeout_s=30):
                    self.out.fail("errors", "ingest ticket never applied")
                submit_s.append(t1 - t0)
                wait_s.append(time.perf_counter() - t1)
            wal.sync()
            wal_bytes = harness.dir_bytes(wal.directory)
        finally:
            wal.close()
        m["dynamic.apply_batch_ms.viewed"] = _ms(apply_ms["write_viewed"])
        m["dynamic.apply_batch_ms.viewless"] = _ms(apply_ms["write_viewless"])
        m["core.view_maintain_ms"] = _ms(view_ms)
        m["dynamic.wal_append_us"] = _ms(wal_s) * 1e3
        m["dynamic.wal_bytes_per_update"] = wal_bytes / wal_updates
        m["storage.delta_apply_us"] = _ms(delta_s) * 1e3
        m["net.ingest_submit_us"] = _ms(submit_s) * 1e3
        m["net.ingest_apply_wait_ms"] = _ms(wait_s)

    def lsm_and_durability(self) -> None:
        catalog, m = self.env.catalog, self.metrics
        tenant_dir = os.path.join(self.env.data_dir, spec.TENANT)

        def once(fn: Callable[[], object]) -> float:
            t0 = time.perf_counter()
            fn()
            return (time.perf_counter() - t0) * 1e3

        m["storage.flush_ms"] = once(catalog.flush)
        m["storage.compact_ms"] = once(catalog.compact)
        m["storage.runs_after"] = sum(
            rel["runs"] for rel in catalog.stats()["relations"].values())
        m["dynamic.state_roots_ms"] = once(catalog.state_roots)
        m["dynamic.snapshot_ms"] = once(lambda: catalog.snapshot(truncate_wal=True))
        m["dynamic.dir_bytes_per_live_tuple"] = (
            harness.dir_bytes(tenant_dir) / max(1, self.model.live_tuples()))

    def recovery(self) -> None:
        """``recover_catalog`` on a snapshot plus K WAL records, against
        the same snapshot alone: the difference, per record."""
        settings = self.settings
        records = 8 if settings.smoke else 40
        tables = workloads.write_tables(settings.sizes, settings.seed)
        root = os.path.join(self.scratch, "probe-recover")
        workloads.build_data_dir(root, workloads.Tenant(tables, view=("tri", ["R", "S", "T"])))
        tenant_dir = os.path.join(root, spec.TENANT)

        def recover() -> float:
            t0 = time.perf_counter()
            recover_catalog(tenant_dir, attach=False)
            return time.perf_counter() - t0

        clean = min(recover() for _ in range(2))
        stream = workloads.write_stream(settings, records, snapshot_at=-1)
        catalog, _ = open_catalog(tenant_dir, fsync=spec.FSYNC)
        try:
            for kind, logged in stream.log:
                if kind != "script":
                    catalog.apply_batch([parse_update(line) for line in logged])
        finally:
            catalog.wal.close()
        replayed = min(recover() for _ in range(2))
        self.metrics["dynamic.recover_ms_per_record"] = (replayed - clean) * 1e3 / records

    # -- the paper's engines --------------------------------------------

    def engine_suite(self) -> None:
        spans, m, settings = self.spans, self.metrics, self.settings
        t0 = time.perf_counter()
        workloads.certify_twins(settings)
        m["certificates.record_verify_ms"] = (time.perf_counter() - t0) * 1e3
        data = suite.make_data(settings.sizes, settings.seed)
        expected = suite.expected_digests(data)
        t0 = time.perf_counter()
        built = suite.Suite(data)
        m["storage.index_build_ms"] = (time.perf_counter() - t0) * 1e3

        counters = OpCounters()
        hard = OpCounters()
        for name, call in built.counted_calls(counters).items():
            call()
        triangle_join(*data.triangles["dyadic_hard"], counters=hard)
        tally = counters.snapshot()
        m["core.ops_per_pass"] = (
            tally["findgap"] + tally["probes"] + tally["interval_ops"] + tally["constraints"])
        m["core.rows_per_probe"] = tally["output_tuples"] / max(1, tally["probes"])
        m["core.findgap_over_cert"] = hard.snapshot()["findgap"] / data.hard_certificate

        per_class: Dict[str, List[float]] = {name: [] for name in suite.CLASSES}
        plain: List[float] = []
        for rep in range(2 if settings.smoke else 5):
            for name, call in built.calls.items():
                op = f"{name}#{rep}"
                layer = "parallel" if name == "sharded" else "core"
                rows, root = spans.timed(op, layer, name, None, call)
                self.out.attempted += 1
                if gen.rows_digest(rows) != expected[name]:
                    self.out.fail("wrong", f"{name}: answer differs from the oracle")
                per_class[name].append(spans.seconds(root))
                if name == "sharded":
                    # The same instance through the 1-shard path is the
                    # engine's share of the sharded call.
                    _, child = spans.timed(op, "core", "join (unsharded)", root, built.unsharded)
                    plain.append(spans.seconds(child))
        for name in suite.CLASSES:
            if name != "sharded":
                m[f"core.join_ms.{name}"] = _ms(per_class[name])
        m["parallel.sharded_inproc_ms"] = _ms(per_class["sharded"])
        m["parallel.overhead_ratio"] = _ms(per_class["sharded"]) / _ms(plain)
        t0 = time.perf_counter()
        pooled = join(built.queries["sharded"], shards=4, workers=2).rows
        m["parallel.sharded_pool_ms"] = (time.perf_counter() - t0) * 1e3
        self.out.attempted += 1
        if gen.rows_digest(pooled) != expected["sharded"]:
            self.out.fail("wrong", "sharded (pool): answer differs from the oracle")

    def final_check(self) -> None:
        """After every probe write: the server's answers equal the model's."""
        tables = self.model.tables()
        for cls in ("scan_l", "tri_rows", "path2", "count_tri"):
            text = gen.renamings(cls, self.settings.seed)[0]
            self.out.attempted += 1
            got = gen.rows_digest(self.env.client.query(text)["rows"])
            if got != oracle.expected_digest(text, tables):
                self.out.fail("lost", f"final {cls} differs from the model")


def _parse(text: str, catalog):
    statement = parse(text)
    validate(statement, catalog)
    statement.signature()
    return statement


def _engine_call(plan, canonical) -> Tuple[str, str, Callable[[], object]]:
    """The plan's engine, called directly on the canonical query."""
    query = canonical.query
    if plan.engine == "triangle":
        return "core", "triangle_join", lambda: sorted(triangle_join(
            *triangle_edges(query, plan.triangle), OpCounters(),
            cds_backend=plan.cds_backend))
    if plan.engine == "yannakakis":
        return "baselines", "yannakakis_join", lambda: yannakakis_join(
            query, list(plan.gao), OpCounters())
    return "core", "join", lambda: join(
        query, gao=list(plan.gao), strategy=plan.strategy, counters=OpCounters(),
        backend=plan.backend, cds_backend=plan.cds_backend).rows


# ----------------------------------------------------------------------
# The traced re-drive
# ----------------------------------------------------------------------


def _drive_stream(name: str, settings: workloads.Settings, count: int) -> workloads.Stream:
    if name == "serve_write":
        return workloads.write_stream(settings, count, snapshot_at=-1)
    if name == "mixed_rw":
        return workloads.mixed_stream(settings, count)
    return workloads.read_stream(name, settings, count)


def redrive(name: str, settings: workloads.Settings, workspace: harness.Workspace,
            spans: Spans) -> Dict[str, object]:
    """The workload's first N ops, in-process, traced beside untraced."""
    count = spec.SMOKE_OPS["trace"] if settings.smoke else spec.TRACE_OPS[name]
    if name == "engine_paper":
        return _redrive_engine(settings, count, spans)
    streams = [_drive_stream(name, settings, count) for _ in range(2)]
    out = harness.Outcomes(2 * count)
    first_ms: Dict[str, List[float]] = {}
    ratios: List[float] = []
    with Env(settings, workspace.subdir("drive-traced"), trace=True) as traced, \
            Env(settings, workspace.subdir("drive-plain"), trace=False) as plain:
        for texts in streams[0].texts.values():
            for text in texts:
                traced.client.query(text)
                plain.client.query(text)
        before = traced.plan_cache()
        clock = [harness.WriteClock(), harness.WriteClock()]
        for slot in range(count):
            took = [0.0, 0.0]
            order = (0, 1) if slot % 2 == 0 else (1, 0)
            for side in order:
                env = traced if side == 0 else plain
                op = streams[side].ops[slot]
                done = len(out.samples)
                t0 = time.perf_counter()
                harness.execute(slot, op, env.client, clock[side], out, None, 0.0)
                t1 = time.perf_counter()
                took[side] = t1 - t0
                # The op's end-to-end sample is whichever server went
                # first: the second runs the same code a millisecond
                # later, on warm caches.
                if side == order[0] and len(out.samples) > done:
                    kind = op.kind + ("~replan" if out.samples[-1].replanned else "")
                    spans.add(f"{kind}@{name}#{slot}", "e2e", "Client", None, t0, t1)
                    first_ms.setdefault(kind, []).append((t1 - t0) * 1e3)
            if min(took) > 0:
                ratios.append(took[0] / took[1])
        after = traced.plan_cache()
    gets = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    return {
        "outcomes": out,
        "digest": streams[0].digest(),
        "e2e_ms": {kind: statistics.median(v) for kind, v in first_ms.items()},
        "weights": {kind: len(v) for kind, v in first_ms.items()},
        "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
        "plans_built": after["misses"] - before["misses"],
        "hit_ratio": (after["hits"] - before["hits"]) / gets if gets else 1.0,
    }


def _redrive_engine(settings: workloads.Settings, passes: int, spans: Spans) -> Dict[str, object]:
    data = suite.make_data(settings.sizes, settings.seed)
    expected = suite.expected_digests(data)
    built = suite.Suite(data)
    out = harness.Outcomes(2 * passes * len(suite.CLASSES))
    traced_ms: Dict[str, List[float]] = {}
    ratios: List[float] = []
    for rep in range(passes):
        for name, call in built.calls.items():
            # "Traced" here is the harness's own span only: the library
            # calls take no tracer, which is the null path's point.
            t0 = time.perf_counter()
            rows = call()
            t1 = time.perf_counter()
            spans.add(f"{name}@engine_paper#{rep}", "e2e", name, None, t0, t1)
            call()
            t2 = time.perf_counter()
            if gen.rows_digest(rows) != expected[name]:
                out.fail("wrong", f"{name}: answer differs from the oracle")
            traced_ms.setdefault(name, []).append((t1 - t0) * 1e3)
            ratios.append((t1 - t0) / (t2 - t1))
    return {
        "outcomes": out,
        "digest": gen.sequence_digest([n, expected[n]] for n in suite.CLASSES),
        "e2e_ms": {kind: statistics.median(v) for kind, v in traced_ms.items()},
        "weights": {kind: len(v) for kind, v in traced_ms.items()},
        "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
        "plans_built": 0,
        "hit_ratio": 1.0,
    }


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------


def build_ledger(name: str, drive: Dict[str, object], spans: Spans,
                 metrics: Dict[str, float]) -> Dict[str, object]:
    """Per op class of the workload: each layer's self time (battery
    spans of the same class), its share, and the sum check against the
    class's in-process end-to-end time in the re-drive."""
    selfs = spans.self_times()
    rows: List[Dict[str, object]] = []
    totals = {layer: 0.0 for layer in LAYERS}
    total_ms = 0.0
    worst = 0.0
    for kind, e2e_ms in sorted(drive["e2e_ms"].items()):
        base = kind.split("~", 1)[0]
        probes = selfs.get(base, {})
        if not probes:
            continue
        layers = {layer: 0.0 for layer in LAYERS}
        for layer in {l for per_op in probes.values() for l in per_op}:
            layers[_ledger_layer(layer)] += statistics.median(
                per_op.get(layer, 0.0) for per_op in probes.values())
        if kind.endswith("~replan"):
            layers["planner"] += metrics[f"planner.plan_cold_ms.{base}"]
        summed = sum(layers.values())
        error = abs(summed - e2e_ms) / e2e_ms * 100.0
        worst = max(worst, error)
        weight = drive["weights"][kind]
        for layer, value in layers.items():
            totals[layer] += weight * value
        total_ms += weight * summed
        rows.append({"class": kind, "n": weight, "e2e_ms": e2e_ms,
                     "sum_ms": summed, "error_pct": error, "layers": layers})
    shares = {
        layer: (100.0 * value / total_ms if total_ms else 0.0)
        for layer, value in totals.items()
    }
    return {"rows": rows, "shares": shares, "sum_error_pct": worst}


def ledger_markdown(name: str, ledger: Dict[str, object], overhead_pct: float) -> List[str]:
    lines = [
        "| op class | n | in-process e2e ms | Σ self ms | error | "
        + " | ".join(LAYERS) + " |",
        "|---|---|---|---|---|" + "---|" * len(LAYERS),
    ]
    for row in ledger["rows"]:
        cells = " | ".join(
            f"{row['layers'][l]:.3f} ({100 * row['layers'][l] / row['sum_ms']:.0f}%)"
            if row["sum_ms"] else "—"
            for l in LAYERS
        )
        lines.append(
            f"| `{row['class']}` | {row['n']} | {row['e2e_ms']:.3f} | "
            f"{row['sum_ms']:.3f} | {row['error_pct']:.1f}% | {cells} |"
        )
    shares = ", ".join(f"{l} {v:.1f}%" for l, v in ledger["shares"].items() if v > 0.05)
    verdict = "holds" if ledger["sum_error_pct"] <= 10.0 else "EXCEEDED"
    lines += [
        "",
        f"Workload shares (op-weighted): {shares}.",
        f"Sum check (Σ self within 10 % of the re-drive's end-to-end, every "
        f"class): {verdict} (worst {ledger['sum_error_pct']:.1f}%).  "
        f"Trace overhead (paired, traced ÷ untraced): {overhead_pct:+.2f}%.",
    ]
    return lines


def answers_markdown(name: str, ledger: Dict[str, object], metrics: Dict[str, float]) -> List[str]:
    """Numbers for ROADMAP item 1's three open questions."""
    by_class = {row["class"]: row for row in ledger["rows"]}

    def split(row) -> str:
        layers, total = row["layers"], row["sum_ms"]
        return (
            f"{total:.2f} ms in-process = transport+JSON (`net`) "
            f"{100 * layers['net'] / total:.0f}% + `lang` "
            f"{100 * layers['lang'] / total:.0f}% + `serve` "
            f"{100 * layers['serve'] / total:.0f}% + engine "
            f"{100 * layers['engine'] / total:.0f}%"
        )

    lines: List[str] = []
    if name == "serve_read_hot" and "path2" in by_class:
        lines.append(f"- **A hot read (`path2`, cached plan):** {split(by_class['path2'])}.")
    if name == "serve_read_cyclic" and "cycle4" in by_class:
        lines.append(
            "- **A Minesweeper-planned read through the stack (`cycle4`):** "
            f"{split(by_class['cycle4'])}; its cold plan costs "
            f"{metrics['planner.plan_cold_ms.cycle4']:.0f} ms.")
    if name == "serve_write":
        for kind in ("write_viewless", "write_viewed"):
            if kind in by_class:
                row = by_class[kind]
                lines.append(
                    f"- **A sync batch of 8 (`{kind}`):** {row['sum_ms']:.2f} ms in-process, "
                    f"of which `dynamic` {row['layers']['dynamic']:.2f} ms, view maintenance "
                    f"(engine) {row['layers']['engine']:.2f} ms, `storage` "
                    f"{row['layers']['storage']:.2f} ms, `net` {row['layers']['net']:.2f} ms.")
    if name == "mixed_rw":
        for kind in ("path2~replan", "count_tri~replan"):
            if kind in by_class:
                row = by_class[kind]
                lines.append(
                    f"- **A read after a write (`{kind}`):** {row['e2e_ms']:.1f} ms in-process "
                    f"end to end; a cold `Planner.plan` for the class alone measures "
                    f"{row['layers']['planner']:.1f} ms in the battery.")
    return lines


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_traced(name: str, settings: workloads.Settings, workspace: harness.Workspace,
               artifacts: str) -> Dict[str, object]:
    spans = Spans()
    t0 = time.perf_counter()
    with Env(settings, workspace.subdir(f"battery-{name}"), trace=False) as env:
        battery = Battery(settings, env, spans, workspace.subdir(f"scratch-{name}"))
        battery.run()
    battery_s = time.perf_counter() - t0
    drive = redrive(name, settings, workspace, spans)
    out: harness.Outcomes = drive["outcomes"]
    metrics = battery.metrics
    ledger = build_ledger(name, drive, spans, metrics)
    totals = harness.Outcomes.combined(battery.out, out)
    metrics["obs.trace_overhead_pct"] = drive["overhead_pct"]
    metrics["planner.plans_built"] = drive["plans_built"]
    metrics["planner.cache_hit_ratio"] = drive["hit_ratio"]
    metrics["net.refused_share"] = (
        totals["failures"]["refused"] / max(1, totals["attempted"]))
    for layer, share in ledger["shares"].items():
        metrics[f"share.{layer}_pct"] = share
    metrics["ledger.sum_error_pct"] = ledger["sum_error_pct"]
    metrics["bench.battery_s"] = battery_s
    metrics["bench.spans"] = len(spans.rows)
    spans.write(os.path.join(artifacts, f"spans-{name}.jsonl"))
    return {
        "op_digest": drive["digest"],
        **totals,
        "layers": metrics,
        "ledger": ledger,
        "ledger_md": ledger_markdown(name, ledger, drive["overhead_pct"]),
        "answers_md": answers_markdown(name, ledger, metrics),
    }

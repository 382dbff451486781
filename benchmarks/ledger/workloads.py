"""The five workloads, measured with tracing off.

Every workload is a deterministic op sequence (a pure function of the
seed and the phase sizes) run in phases:

``engine_paper``
    in-process, one thread, closed loop: repeated passes over the
    suite of direct library calls (:mod:`suite`).
the four serving workloads
    the real server as a subprocess; after warm-up (charged to
    ``setup_s``) a closed-loop *capacity* phase (2 clients, fixed op
    count), an open-loop *latency* phase (fixed rate, each op timed
    from when it was due) and a *check* phase.

Phase op counts are fixed by ``--seconds`` and the frozen rates in
:mod:`spec`, never by how fast the system under test happens to be, so
both sides of a later A/B execute the identical sequence.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dynamic import open_catalog, recover_catalog, verify_state

import gen
import harness
import oracle
import spec
import suite
from harness import Op

Row = Tuple[int, ...]
READ_KINDS = ("path2", "path3_proj", "count_tri", "cycle4", "tri_rows", "scan_l")
#: ``engine_paper``: passes between two calibration samples.
PASSES_PER_SLICE = 4


class Settings:
    """Knobs of one run (what the CLI resolved)."""

    def __init__(self, seed: int, seconds: float, smoke: bool = False,
                 corrupt_oracle: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.corrupt_oracle = corrupt_oracle
        self.sizes = spec.SIZES["smoke" if smoke else "full"]
        #: Set-ups timed per run; the median is reported as ``setup_s``.
        self.setup_repeats = 1 if smoke else spec.SETUP_REPEATS

    def phase_ops(self, workload: str) -> Tuple[int, int, float, int]:
        """(capacity op count, latency op count, open-loop rate, ops
        per mix block — slices are cut at block boundaries)."""
        if self.smoke:
            return (spec.SMOKE_OPS["capacity"], spec.SMOKE_OPS["latency"],
                    spec.SMOKE_RATE_OPS_S, 1)
        traffic = spec.TRAFFIC[workload]
        block = sum(weight for _, weight in traffic["mix"])
        rate = traffic["rate_ops_s"]

        def whole_blocks(ops: float) -> int:
            return max(block, int(round(ops / block)) * block)

        capacity = whole_blocks(
            traffic["nominal_capacity_ops_s"] * spec.CAPACITY_SHARE * self.seconds
        )
        latency = whole_blocks(rate * (1 - spec.CAPACITY_SHARE) * self.seconds)
        return capacity, latency, rate, block


def _corrupt(digest: str) -> str:
    return "0" * len(digest) if digest[0] != "0" else "1" * len(digest)


def _timings(out: harness.Outcomes) -> Dict[str, Dict[str, object]]:
    return {kind: harness.summarize(v) for kind, v in out.by_kind().items()}


def _gated(latency: harness.Phase, capacity: harness.Phase,
           ops_per_sample: int = 1) -> Tuple[Dict[str, float], Dict[str, object]]:
    """The three timing metrics of a run at reference speed, and the
    ``bench`` entries that show how they came about."""
    p50 = harness.estimate(latency, harness.slice_p50)
    p95 = harness.estimate(latency, harness.slice_p95)
    rate = harness.estimate(capacity, harness.slice_throughput, rate=True)
    kernel_s = capacity.kernel_s + (latency.kernel_s if latency is not capacity else [])
    return (
        {
            "op_p50_ms": p50.reference,
            "op_p95_ms": p95.reference,
            "capacity_ops_s": ops_per_sample * rate.reference,
        },
        {
            "speed": statistics.median(harness.reference_scale(k) for k in kernel_s),
            "as_measured": {
                "op_p50_ms": p50.measured,
                "op_p95_ms": p95.measured,
                "capacity_ops_s": ops_per_sample * rate.measured,
            },
            "per_slice": {"p50_ms": p50.slices, "p95_ms": p95.slices,
                          "ops_s": rate.slices, "kernel_s": kernel_s},
        },
    )


# ----------------------------------------------------------------------
# engine_paper
# ----------------------------------------------------------------------


def run_engine_paper(settings: Settings) -> Dict[str, object]:
    t0 = time.perf_counter()
    data = suite.make_data(settings.sizes, settings.seed)
    datagen_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    expected = suite.expected_digests(data)
    if settings.corrupt_oracle:
        expected["bowtie"] = _corrupt(expected["bowtie"])
    certificate_sizes = certify_twins(settings)
    oracle_s = time.perf_counter() - t0

    setups: List[float] = []
    built: Optional[suite.Suite] = None
    for _ in range(settings.setup_repeats):
        t0 = time.perf_counter()
        built = suite.Suite(data)
        for call in built.calls.values():
            call()  # warm-up pass: lazy set-up finishes before timing
        elapsed = time.perf_counter() - t0
        setups.append(elapsed * harness.reference_scale(harness.kernel_seconds()))
    assert built is not None

    # One pass = one op; a slice = PASSES_PER_SLICE passes, with the
    # calibration kernel between slices.
    out = harness.Outcomes()
    passes = out.samples
    per_class: Dict[str, List[float]] = {name: [] for name in suite.CLASSES}
    marks = [harness.kernel_seconds()]
    min_passes = spec.SMOKE_OPS["passes"] if settings.smoke else PASSES_PER_SLICE
    deadline = time.perf_counter() + (0.0 if settings.smoke else settings.seconds)
    finished = 0.0
    while len(passes) < min_passes or time.perf_counter() < deadline:
        total = 0.0
        for name, call in built.calls.items():
            t0 = time.perf_counter()
            rows = call()
            elapsed = time.perf_counter() - t0
            total += elapsed
            per_class[name].append(elapsed * 1e3)
            # Judged outside the timer: hashing is the harness's cost.
            if gen.rows_digest(rows) != expected[name]:
                out.fail("wrong", f"{name}: answer differs from the oracle")
        finished += total
        passes.append(harness.Sample(len(passes), "pass", total * 1e3, finished, False))
        if len(passes) % PASSES_PER_SLICE == 0:
            marks.append(harness.kernel_seconds())
    if len(marks) < 2:
        marks.append(harness.kernel_seconds())
    cuts = [
        range(i * PASSES_PER_SLICE, (i + 1) * PASSES_PER_SLICE)
        for i in range(len(marks) - 1)
    ]
    out.attempted = len(passes) * len(suite.CLASSES)
    phase = harness.Phase(
        out, cuts, [(marks[i] + marks[i + 1]) / 2 for i in range(len(cuts))])
    gated, bench = _gated(phase, phase, ops_per_sample=len(suite.CLASSES))

    passes_ms = [s.latency_ms for s in passes]
    return {
        "op_digest": gen.sequence_digest(
            [name, expected[name]] for name in suite.CLASSES
        ),
        **harness.Outcomes.combined(out),
        "e2e": {
            **gated,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": harness.self_rss_mb(),
        },
        "named": {"pass_p50_ms": statistics.median(passes_ms)},
        "timings": {
            "pass": harness.summarize(passes_ms),
            **{name: harness.summarize(v) for name, v in per_class.items()},
        },
        "bench": {
            "datagen_s": datagen_s,
            "oracle_s": oracle_s,
            "sched_lag_p95_ms": 0.0,
            "certificate_sizes": certificate_sizes,
            **bench,
        },
    }


def certify_twins(settings: Settings) -> Dict[str, int]:
    """Record + check the Prop. 2.5 certificate once per Minesweeper
    instance — on a down-sized twin of each (same generator, the smoke
    sizes), because the randomized checker is quadratic in the
    certificate and the full-size instances would take ~15 s."""
    twin = suite.Suite(suite.make_data(spec.SIZES["smoke"], settings.seed))
    return {name: oracle.certify(p) for name, p in twin.prepared.items()}


# ----------------------------------------------------------------------
# Serving workloads: tenants, op streams, checks
# ----------------------------------------------------------------------


class Tenant:
    """What a serving workload needs built before the server starts."""

    def __init__(self, tables: oracle.Tables, view: Optional[Tuple[str, List[str]]] = None) -> None:
        self.tables = tables
        self.view = view


def read_tables(sizes: Dict[str, object], seed: int) -> oracle.Tables:
    """``E`` (ring with chords) and ``G`` (uniform graph): the hot reads."""
    f = gen.relabeler(seed)
    return {
        "E": (("A", "B"), gen.relabel_rows(gen.ring_with_chords(sizes["ring"]), f)),
        "G": (("A", "B"), gen.relabel_rows(
            gen.random_edges(*sizes["G"], "G", loops=False), f)),
    }


def cyclic_tables(sizes: Dict[str, object], seed: int) -> oracle.Tables:
    """``H`` for the 4-cycle, ``R``/``S``/``T`` for the triangle rows."""
    f = gen.relabeler(seed)
    nodes, edges = sizes["tri"]
    tables: oracle.Tables = {
        "H": (("A", "B"), gen.relabel_rows(
            gen.random_edges(*sizes["H"], "H", loops=False), f)),
    }
    for name, attrs in (("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))):
        tables[name] = (attrs, gen.relabel_rows(
            gen.random_edges(nodes, edges, f"tri/{name}"), f))
    return tables


def write_tables(sizes: Dict[str, object], seed: int) -> oracle.Tables:
    """``R``/``S``/``T`` under a live triangle view, plus view-less ``L``."""
    f = gen.relabeler(seed)
    tables = {k: v for k, v in cyclic_tables(sizes, seed).items() if k != "H"}
    tables["L"] = (("A", "B"), gen.relabel_rows(
        gen.random_edges(*sizes["L"], "L"), f))
    return tables


def build_data_dir(data_dir: str, tenant: Tenant) -> None:
    """Pre-build the tenant's durable state: relations, view, snapshot."""
    catalog, _ = open_catalog(os.path.join(data_dir, spec.TENANT), fsync=spec.FSYNC)
    try:
        for name, (attrs, rows) in tenant.tables.items():
            catalog.create_relation(name, list(attrs), sorted(rows))
        if tenant.view is not None:
            catalog.register_view(tenant.view[0], tenant.view[1])
        catalog.snapshot(truncate_wal=True)
    finally:
        catalog.wal.close()


class Stream:
    """A serving workload's op sequence plus its answer model."""

    def __init__(self, name: str, settings: Settings, tenant: Tenant,
                 read_classes: Sequence[str], versioned: bool = True) -> None:
        self.settings = settings
        self.tenant = tenant
        self.model = oracle.Model(tenant.tables)
        self.texts = {cls: gen.renamings(cls, settings.seed) for cls in read_classes}
        self._canon = {cls: texts[0] for cls, texts in self.texts.items()}
        self._pick = gen.stream_rng(settings.seed, f"texts/{name}")
        #: With reads in the stream every mutation records the answers
        #: after it; a write-only stream needs only the final state.
        self._versioned = versioned
        self.model.checkpoint(self._canon)
        self.ops: List[Op] = []
        self.log: List[object] = []
        self._mutations = 0
        self.corrupted = False

    # -- op factories ---------------------------------------------------

    def read(self, cls: str) -> None:
        text = self._pick.choice(self.texts[cls])
        model = self.model
        corrupt = self.settings.corrupt_oracle and not self.corrupted
        self.corrupted = self.corrupted or corrupt

        def check(response, acked_before: int, issued_after: int) -> bool:
            got = gen.rows_digest(response["rows"])
            allowed = {
                model.version(k)[cls]
                for k in range(acked_before, issued_after + 1)
            }
            if corrupt:
                allowed = {_corrupt(d) for d in allowed}
            return got in allowed

        self._add(cls, lambda client: client.query(text), check, text, False)

    def write(self, kind: str, batch: List[Tuple[str, Row, bool]]) -> None:
        lines = [gen.update_line(name, row, insert) for name, row, insert in batch]
        self.model.apply(batch)
        self._tick()
        self._add(
            kind,
            lambda client: client.update(lines, sync=True),
            lambda response, *_: response.get("applied") == len(lines),
            lines, True,
        )

    def script(self, text: str) -> None:
        self._tick()
        self._add(
            "script",
            lambda client: client.script(text),
            lambda response, *_: "output" in response,
            text, True,
        )

    def _tick(self) -> None:
        """One more serialized mutation: record the answers after it."""
        if self._versioned:
            self.model.checkpoint(self._canon)

    def finish(self) -> "Stream":
        if not self._versioned:
            self.model.checkpoint(self._canon)
        return self

    def _add(self, kind: str, send: Callable, check: Callable, logged: object,
             mutates: bool) -> None:
        ordinal = None
        if mutates:
            ordinal, self._mutations = self._mutations, self._mutations + 1
        self.ops.append(Op(len(self.ops), kind, send, check, ordinal))
        self.log.append([kind, logged])

    def digest(self) -> str:
        return gen.sequence_digest(self.log)


def churn(kind: str, settings: Settings, tables: oracle.Tables) -> gen.EdgeChurn:
    """The update stream behind one write class, over ``tables``."""
    sizes, seed = settings.sizes, settings.seed
    f = gen.relabeler(seed)
    # (stream, relations, node count, insert fraction).  ``L`` only
    # ever grows: inserts over a domain wide enough not to fill.
    stream, names, nodes, insert_fraction = {
        "write_viewed": ("tri", "RST", sizes["tri"][0], 0.5),
        "write_viewless": ("L", ("L",), 1000, 1.0),
        "write": ("mixed", ("E", "G"), max(sizes["ring"], sizes["G"][0]), 0.5),
    }[kind]
    return gen.EdgeChurn(
        seed, stream, {n: tables[n][1] for n in names},
        [f(v) for v in range(nodes)], insert_fraction)


def read_stream(name: str, settings: Settings, count: int) -> Stream:
    tables_fn = read_tables if name == "serve_read_hot" else cyclic_tables
    mix = spec.TRAFFIC[name]["mix"]
    stream = Stream(name, settings, Tenant(tables_fn(settings.sizes, settings.seed)),
                    [cls for cls, _ in mix])
    for cls in gen.mixed_sequence(settings.seed, name, mix, count):
        stream.read(cls)
    return stream.finish()


def write_stream(settings: Settings, count: int, snapshot_at: int) -> Stream:
    traffic = spec.TRAFFIC["serve_write"]
    sizes, seed = settings.sizes, settings.seed
    tenant = Tenant(write_tables(sizes, seed), view=("tri", ["R", "S", "T"]))
    stream = Stream("serve_write", settings, tenant, ["scan_l", "tri_rows"],
                    versioned=False)
    churns = {
        kind: churn(kind, settings, tenant.tables)
        for kind in ("write_viewed", "write_viewless")
    }
    kinds = gen.mixed_sequence(seed, "serve_write", traffic["mix"], count)
    size = traffic["batch_size"]
    for i, kind in enumerate(kinds, 1):
        if i == snapshot_at:
            stream.script("SNAPSHOT")
        elif i % traffic["compact_every"] == 0:
            stream.script("COMPACT")
        elif i % traffic["flush_every"] == 0:
            stream.script("FLUSH")
        else:
            stream.write(kind, churns[kind].batch(size))
    return stream.finish()


def mixed_stream(settings: Settings, count: int) -> Stream:
    mix = spec.TRAFFIC["mixed_rw"]["mix"]
    sizes, seed = settings.sizes, settings.seed
    tenant = Tenant(read_tables(sizes, seed))
    stream = Stream("mixed_rw", settings, tenant,
                    [cls for cls, _ in mix if cls != "write"])
    updates = churn("write", settings, tenant.tables)
    sizes_rng = gen.stream_rng(seed, "mixed/batch")
    # Every block opens the same way, so that what overlaps a re-plan
    # does not depend on the shuffle: the write; the cheap re-plan
    # (over before the next arrival); the costly one; then a read whose
    # plan is cached again (a second path2 there would re-plan beside
    # the first — nothing deduplicates that — and double both).  The
    # other six reads are shuffled.
    lead = ("write", "count_tri", "path2", "count_tri")
    for kind in gen.mixed_sequence(seed, "mixed_rw", mix, count, lead=lead):
        if kind == "write":
            stream.write("write", updates.batch(sizes_rng.randrange(1, 5)))
        else:
            stream.read(kind)
    return stream.finish()


# ----------------------------------------------------------------------
# Serving workloads: the run
# ----------------------------------------------------------------------


def _warm_up(client, stream: Stream) -> None:
    """Every distinct query text once: plans built, caches filled."""
    for texts in stream.texts.values():
        for text in texts:
            client.query(text)


def run_serving(name: str, settings: Settings, workspace: harness.Workspace) -> Dict[str, object]:
    capacity_n, latency_n, rate, block = settings.phase_ops(name)
    total = capacity_n + latency_n
    t0 = time.perf_counter()
    if name == "serve_write":
        knobs = spec.SMOKE_OPS if settings.smoke else spec.TRAFFIC[name]
        stream = write_stream(settings, total, total - knobs["snapshot_before_last"])
    elif name == "mixed_rw":
        stream = mixed_stream(settings, total)
    else:
        stream = read_stream(name, settings, total)
    oracle_s = stream.model.oracle_seconds
    datagen_s = time.perf_counter() - t0 - oracle_s

    data_dir = workspace.subdir(name)
    build_data_dir(data_dir, stream.tenant)

    setups: List[float] = []
    server = harness.ServerProc(data_dir)
    try:
        for repeat in range(settings.setup_repeats):
            t0 = time.perf_counter()
            client = server.start()
            _warm_up(client, stream)
            elapsed = time.perf_counter() - t0
            setups.append(elapsed * harness.reference_scale(harness.kernel_seconds()))
            if repeat + 1 < settings.setup_repeats:
                server.kill()
        stats_before = client.stats()

        clock = harness.WriteClock()
        capacity = harness.run_phase(
            server.url, stream.ops[:capacity_n], clock, block)
        latency = harness.run_phase(
            server.url, stream.ops[capacity_n:], clock, block, rate_ops_s=rate)
        stats_after = client.stats()

        check, check_named = _final_check(name, settings, stream, server, client)
    finally:
        server.kill()
    cap, lat = capacity.outcomes, latency.outcomes

    reads = lat.latencies(READ_KINDS)
    writes = lat.latencies(("write", "write_viewed", "write_viewless"))
    replans = [s.latency_ms for s in lat.samples if s.replanned]
    named: Dict[str, float] = dict(check_named)
    if reads:
        named["read_p50_ms"] = statistics.median(reads)
        named["read_p95_ms"] = harness.percentile(reads, 95)
    if writes:
        named["write_p50_ms"] = statistics.median(writes)
        if len(writes) >= spec.P95_MIN_SAMPLES:
            named["write_p95_ms"] = harness.percentile(writes, 95)
    if replans:
        named["replan_read_p50_ms"] = statistics.median(replans)

    e2e = {"setup_s": statistics.median(setups), "peak_rss_mb": server.peak_rss_mb}
    bench: Dict[str, object] = {}
    if lat.samples and len(cap.samples) > 1:  # else every op failed: no timing metric
        gated, bench = _gated(latency, capacity)
        e2e.update(gated)
    return {
        "op_digest": stream.digest(),
        **harness.Outcomes.combined(cap, lat, check),
        "e2e": e2e,
        "named": named,
        "timings": {"all": harness.summarize(lat.latencies()), **_timings(lat)},
        "capacity_timings": _timings(cap),
        "bench": {
            "datagen_s": datagen_s,
            "oracle_s": oracle_s,
            "sched_lag_p95_ms": harness.percentile(lat.lag_ms, 95) if lat.lag_ms else 0.0,
            "rate_ops_s": rate,
            "capacity_ops": capacity_n,
            "latency_ops": latency_n,
            "plan_cache": _plan_cache_delta(stats_before, stats_after),
            **bench,
        },
    }


def _plan_cache_delta(before: Dict[str, object], after: Dict[str, object]) -> Dict[str, float]:
    """Plan-cache movement over the measured phases (diff of /stats)."""
    b, a = before["plan_cache"], after["plan_cache"]
    hits = a["hits"] - b["hits"]
    misses = a["misses"] - b["misses"]
    gets = hits + misses
    return {
        "hits": hits,
        "plans_built": misses,
        "invalidated": a["invalidated"] - b["invalidated"],
        "hit_ratio": hits / gets if gets else 1.0,
    }


def _final_check(name: str, settings: Settings, stream: Stream,
                 server: harness.ServerProc, client
                 ) -> Tuple[harness.Outcomes, Dict[str, float]]:
    """Post-run answer check; for ``serve_write`` the durability check.

    SIGKILL, restart on the same directory, time to the first healthy
    response, then: every acknowledged batch readable (``L`` and the
    triangle rows equal the model), the live view equal to the model,
    and ``verify-state`` green.  A process kill keeps the OS page
    cache, so this is sandbox-level durability, not power loss.
    Returns the tally and the class metrics it measured.
    """
    out = harness.Outcomes()
    named: Dict[str, float] = {}
    final = stream.model.version(-1)

    def expect(cls: str, category: str) -> None:
        out.attempted += 1
        want = final[cls]
        if settings.corrupt_oracle and not stream.corrupted:
            stream.corrupted = True
            want = _corrupt(want)
        got = gen.rows_digest(client.query(stream.texts[cls][0])["rows"])
        if got != want:
            out.fail(category, f"final {cls} differs from the model")

    if name != "serve_write":
        for cls in stream.texts:
            expect(cls, "wrong")
        return out, named

    server.kill()
    t0 = time.perf_counter()
    client = server.start()
    named["recover_s"] = time.perf_counter() - t0
    for cls in ("scan_l", "tri_rows"):
        expect(cls, "lost")
    server.stop()  # graceful, so the audit below reads a quiescent dir

    tenant_dir = os.path.join(server.data_dir, spec.TENANT)
    out.attempted += 2
    catalog, _ = recover_catalog(tenant_dir, attach=False)
    if gen.rows_digest(catalog.query("tri")) != final["tri_rows"]:
        out.fail("lost", "recovered view `tri` differs from the model")
    report = verify_state(tenant_dir)
    if not report.ok:
        out.fail("errors", f"verify-state: {report.problems[:2]}")
    named["dir_bytes"] = harness.dir_bytes(tenant_dir)
    named["live_tuples"] = stream.model.live_tuples()
    return out, named


def run(name: str, settings: Settings, workspace: harness.Workspace) -> Dict[str, object]:
    """One workload, tracing off."""
    if name == "engine_paper":
        return run_engine_paper(settings)
    return run_serving(name, settings, workspace)

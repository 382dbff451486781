"""Supervisor overhead gate: resilience must be ~free when nothing fails.

The supervised pooled path (one monitored process per shard attempt,
death detection, timeouts, retry bookkeeping — see
``repro.parallel.supervisor``) replaced the bare ``Pool.imap`` fan-out.
This bench pins down what that machinery costs on the *fault-free*
pooled triangle workload:

* **rows** — the supervised run, a bare-pool reference run over the
  identical shard payloads, and the unsharded sequential engine must
  all return byte-identical row lists;
* **ops** — the instrumented snapshot of the smoke-sized workload
  (in-process and pooled-supervised alike) must equal the committed
  ``benchmarks/baselines/smoke_ops.json`` entry exactly: supervision
  must not change what work was done;
* **time** — min-over-rounds supervised wall clock must stay within
  ``MAX_OVERHEAD`` (3%) of the bare-pool reference, plus a small
  absolute epsilon absorbing process-spawn scheduler jitter on tiny
  smoke inputs.

The bare-pool reference rebuilds exactly what the pre-supervisor
executor did: ``plan_and_slice`` + ``multiprocessing.Pool.imap`` over
the same ``_run_shard`` payloads, so the delta is the supervisor's
Pipe polling and per-attempt bookkeeping and nothing else.
"""

import json
import multiprocessing
import os
import time

from repro.core.engine import ExecSpec, join
from repro.core.query import Query
from repro.datasets.instances import triangle_with_output
from repro.parallel.executor import _run_shard, run_sharded
from repro.parallel.planner import plan_and_slice
from repro.parallel.supervisor import ShardPayload
from repro.storage.relation import Relation
from repro.util.counters import NullCounters, OpCounters

from benchmarks._util import record, sizes

ROUNDS = sizes(5, 3)
WORKERS = 2
SHARDS = 2
#: Supervised pooled time may exceed the bare-pool reference by at most
#: this fraction on the fault-free workload ...
MAX_OVERHEAD = 0.03
#: ... plus this many seconds of absolute slack (process spawn times on
#: a loaded single-core CI box jitter by more than 3% of a smoke run).
ABS_SLACK_S = 0.005

BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "baselines",
    "smoke_ops.json",
)
#: The committed smoke-ops key this bench re-derives and re-checks.
BASELINE_KEY = "parallel/triangle/planted/n=40/w=2x2"

CASES = sizes(
    [("planted/n=500", 500, 120)],
    [("planted/n=40", 40, 10)],
)
GAO = ["A", "B", "C"]


def _spec(query):
    return ExecSpec(
        gao=GAO, strategy="general", shards=SHARDS, workers=WORKERS
    ).resolve(query)


def _triangle_query(n, k):
    r, s, t = triangle_with_output(n, k, seed=5)
    return Query(
        [
            Relation("R", ["A", "B"], r),
            Relation("S", ["B", "C"], s),
            Relation("T", ["A", "C"], t),
        ]
    )


def _bare_pool_run(prepared):
    """The pre-supervisor pooled path: plan, slice, ``Pool.imap``."""
    spec = _spec(prepared)
    plan, slices = plan_and_slice(prepared.relations, GAO[0], SHARDS)
    payloads = [
        ShardPayload(shard_rels, spec, False, shard.lo, shard.hi, None)
        for shard, shard_rels in zip(plan, slices)
    ]
    rows = []
    with multiprocessing.get_context().Pool(
        min(WORKERS, len(payloads))
    ) as pool:
        for shard_rows, _counters in pool.imap(
            _run_shard, payloads, chunksize=1
        ):
            rows.extend(shard_rows)
    return rows


def _supervised_run(prepared):
    return run_sharded(
        prepared.relations, _spec(prepared), NullCounters()
    ).rows


def _min_time(func):
    best = None
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        func()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


def _smoke_ops_snapshots():
    """Instrumented op snapshots of the baseline-keyed smoke workload,
    in-process sequential and pooled supervised."""
    snapshots = {}
    for mode, workers in (("inproc", 0), ("pooled", WORKERS)):
        counters = OpCounters()
        join(
            _triangle_query(40, 10),
            gao=GAO,
            strategy="general",
            counters=counters,
            shards=SHARDS,
            workers=workers,
        )
        snapshots[mode] = counters.snapshot()
    return snapshots


def test_supervisor_overhead_fault_free(benchmark):
    case, n, k = CASES[0]

    # --- op gate: supervision must not change the committed tallies ---
    with open(BASELINE) as handle:
        baseline = json.load(handle)[BASELINE_KEY]
    snapshots = _smoke_ops_snapshots()
    assert snapshots["inproc"] == baseline, (
        "in-process sharded op snapshot drifted from smoke_ops.json"
    )
    assert snapshots["pooled"] == baseline, (
        "supervised pooled op snapshot drifted from smoke_ops.json"
    )

    # --- row gate: supervised == bare pool == sequential, bytewise ---
    prepared = _triangle_query(n, k).with_gao(GAO, counters=NullCounters())
    seq = join(_triangle_query(n, k), gao=GAO, strategy="general")
    sup_rows = _supervised_run(prepared)
    bare_rows = _bare_pool_run(prepared)
    assert sup_rows == seq.rows
    assert bare_rows == seq.rows

    # --- time gate: the supervisor is within MAX_OVERHEAD of bare ---
    bare_s = _min_time(lambda: _bare_pool_run(prepared))
    sup_s = _min_time(lambda: _supervised_run(prepared))
    overhead = (sup_s - bare_s) / bare_s if bare_s > 0 else 0.0
    metrics = {
        "rows": len(seq.rows),
        "bare_pool_s": bare_s,
        "supervised_s": sup_s,
        "overhead_frac": round(overhead, 4),
    }
    benchmark.pedantic(
        lambda: _supervised_run(prepared), rounds=ROUNDS, iterations=1
    )
    record(benchmark, "RESILIENCE_overhead", case, metrics)
    assert sup_s <= bare_s * (1.0 + MAX_OVERHEAD) + ABS_SLACK_S, (
        f"supervised pooled run {sup_s:.4f}s exceeds bare-pool "
        f"reference {bare_s:.4f}s by more than {MAX_OVERHEAD:.0%} "
        f"(+{ABS_SLACK_S * 1000:.0f}ms slack): {overhead:.1%} overhead"
    )

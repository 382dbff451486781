"""The smoke workloads behind ``check_smoke_ops.py``.

Each entry of :data:`SMOKE_WORKLOADS` runs one small, deterministic
workload over the library's default configuration with counting on and
returns its operation-count snapshot; ``benchmarks/baselines/
smoke_ops.json`` pins every one of them.  The ``cds/*`` family runs each
shape under both CDS backends (``.../pointer`` and ``.../arena``), which
must tally identically.  Only deterministic op tallies belong in a
snapshot — never a timing.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict

from repro import dynamic
from repro.core.engine import ExecSpec, join
from repro.core.intersection import intersect_sorted
from repro.core.query import Query
from repro.core.triangle import triangle_join
from repro.datasets import instances
from repro.serve import Session
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

Ops = Dict[str, int]


def _triangle_query(r, s, t) -> Query:
    return Query(
        [
            Relation("R", ["A", "B"], r),
            Relation("S", ["B", "C"], s),
            Relation("T", ["A", "C"], t),
        ]
    )


def _ops(engine: Callable, *args, **knobs) -> Ops:
    """The op snapshot of one counted run of ``engine``."""
    counters = OpCounters()
    engine(*args, counters=counters, **knobs)
    return counters.snapshot()


def _dynamic_ops(**params) -> Ops:
    # rec_* is the *cumulative* cost of recomputing the view after
    # every batch — the baseline incremental maintenance is measured
    # against.
    schemas, initial, batches = dynamic.triangle_stream(**params)
    _, view, _, rec = dynamic.replay_with_recompute(schemas, initial, batches)
    snapshot = view.counters.snapshot()
    snapshot["rec_findgap"] = rec["findgap"]
    snapshot["rec_probes"] = rec["probes"]
    return snapshot


def _planner_ops(mode: str, n: int, k: int) -> Ops:
    """One serving execution, plan-cold or plan-cached; the snapshot
    carries the planner/cache call counters, so the drift gate also
    locks in "cached means zero planning"."""
    r, s, t = instances.triangle_with_output(n, k, seed=5)
    catalog = dynamic.Catalog()
    catalog.create_relation("R", ["A", "B"], r)
    catalog.create_relation("S", ["B", "C"], s)
    catalog.create_relation("T", ["A", "C"], t)
    session = Session(catalog)
    text = "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)"
    first = session.execute(text)
    snapshot = dict((first if mode == "cold" else session.execute(text)).ops)
    stats = session.stats()
    snapshot["plans_built"] = stats["planner"]["plans_built"]
    snapshot["plan_estimate_runs"] = stats["planner"]["estimate_runs"]
    snapshot["plan_cache_hits"] = stats["plan_cache"]["hits"]
    return snapshot


def _bowtie_query(n: int, seed: int = 3) -> Query:
    rng = random.Random(seed)
    r = sorted(rng.sample(range(n), n // 4))
    t = sorted(rng.sample(range(n), n // 4))
    s = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)})
    return Query(
        [
            Relation("R", ["X"], [(v,) for v in r]),
            Relation("S", ["X", "Y"], s),
            Relation("T", ["Y"], [(v,) for v in t]),
        ]
    )


def _path_query(k: int, n: int, seed: int = 11) -> Query:
    """R1(A0,A1) ⋈ ... ⋈ Rk(A{k-1},Ak), sparse: deep CDS patterns."""
    rng = random.Random(seed)
    return Query(
        [
            Relation(
                f"R{i}",
                [f"A{i}", f"A{i+1}"],
                sorted(
                    {
                        (rng.randrange(n), rng.randrange(n))
                        for _ in range(8 * n // 5)
                    }
                ),
            )
            for i in range(k)
        ]
    )


def _star_query(m: int, n: int, seed: int = 13) -> Query:
    """⋈ᵢ Rᵢ(A, Bᵢ): wide equality fanout under the root."""
    rng = random.Random(seed)
    return Query(
        [
            Relation(
                f"R{i}",
                ["A", f"B{i}"],
                sorted(
                    {(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)}
                ),
            )
            for i in range(m)
        ]
    )


def _cds_dynamic_ops(backend: str) -> Ops:
    schemas, initial, batches = dynamic.triangle_stream(
        n_nodes=10, n_edges=20, n_batches=3, batch_size=8,
        insert_fraction=0.5, seed=12,
    )
    catalog, view = dynamic.build_catalog(
        schemas, initial, spec=ExecSpec(cds_backend=backend)
    )
    for batch in batches:
        catalog.apply_batch(batch)
    snapshot = view.counters.snapshot()
    snapshot["seed_findgap"] = view.initial_ops.get("findgap", 0)
    return snapshot


def _cds_workloads() -> Dict[str, Callable[[], Ops]]:
    shapes = {
        "triangle/hard/n=8": (
            lambda: _triangle_query(*instances.triangle_hard(8)[:3]),
            ["A", "B", "C"], "general",
        ),
        "bowtie/dense/n=200": (
            lambda: _bowtie_query(200), ["X", "Y"], "chain",
        ),
        "deep/path/k=3/n=12": (
            lambda: _path_query(3, 12), ["A0", "A1", "A2", "A3"], "auto",
        ),
        "wide/star/m=3/n=16": (
            lambda: _star_query(3, 16), ["A", "B0", "B1", "B2"], "auto",
        ),
    }

    def join_ops(query, gao, strategy, backend) -> Ops:
        return _ops(
            join, query(), gao=gao, strategy=strategy, cds_backend=backend
        )

    def dyadic_ops(backend) -> Ops:
        return _ops(
            triangle_join, *instances.triangle_hard(8)[:3],
            cds_backend=backend,
        )

    out: Dict[str, Callable[[], Ops]] = {}
    for backend in ("pointer", "arena"):
        for shape, spec in shapes.items():
            out[f"cds/{shape}/{backend}"] = partial(join_ops, *spec, backend)
        out[f"cds/dynamic/triangle/e=20/{backend}"] = partial(
            _cds_dynamic_ops, backend
        )
        out[f"cds/dyadic/hard/n=8/{backend}"] = partial(dyadic_ops, backend)
    return out


#: name -> zero-argument callable returning the op-count snapshot.
SMOKE_WORKLOADS: Dict[str, Callable[[], Ops]] = {
    "triangle/dyadic/hard/n=8": lambda: _ops(
        triangle_join, *instances.triangle_hard(8)[:3]
    ),
    "triangle/dyadic/planted/n=40": lambda: _ops(
        triangle_join, *instances.triangle_with_output(40, 10, seed=5)
    ),
    "triangle/minesweeper/hard/n=8": lambda: _ops(
        join, _triangle_query(*instances.triangle_hard(8)[:3]),
        gao=["A", "B", "C"], strategy="general",
    ),
    "intersection/interleaved/n=200": lambda: _ops(
        intersect_sorted, instances.intersection_interleaved(200)
    ),
    "intersection/overlap/k=10": lambda: _ops(
        intersect_sorted, instances.intersection_with_overlap(500, 10, seed=4)
    ),
    "intersection/blocks/n=1000": lambda: _ops(
        intersect_sorted, instances.intersection_blocks(2, 1_000)
    ),
    "dynamic/triangle/mixed/e=20": lambda: _dynamic_ops(
        n_nodes=10, n_edges=20, n_batches=3, batch_size=4,
        insert_fraction=0.5, seed=12,
    ),
    # workers=0 (in-process sequential shard execution) tallies the
    # exact merged counts of the pooled 2x2 run, deterministically.
    "parallel/triangle/planted/n=40/w=2x2": lambda: _ops(
        join, _triangle_query(*instances.triangle_with_output(40, 10, seed=5)),
        gao=["A", "B", "C"], strategy="general", shards=2, workers=0,
    ),
    "planner/triangle/plan=cold/n=40": lambda: _planner_ops("cold", 40, 10),
    "planner/triangle/plan=cached/n=40": lambda: _planner_ops(
        "cached", 40, 10
    ),
    **_cds_workloads(),
}

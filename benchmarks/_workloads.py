"""Perf-regression workload registry (shared by bench_regression / perf_report).

Each workload is a named, deterministic (setup, run, ops) triple over the
library's *default configuration*, defined strictly against the API surface
that has existed since the seed commit — ``triangle_join``,
``intersect_sorted``, ``join``/``Query``/``Relation``, and the dataset
factories.  That lets ``perf_report.py`` execute this very file against an
older checkout (``PYTHONPATH=<old>/src``) to produce directly comparable
baseline timings: the timing always reflects each version's defaults, so
the BENCH_*.json trajectory measures what a default user actually gets.

Run standalone:

    PYTHONPATH=src python benchmarks/_workloads.py --repeat 5 --json

which prints ``{case: {"median_s": ..., "ops": {...}}}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

Workload = Tuple[Callable[[], object], str]
# setup() -> state; the registry maps name -> (make_run, description) where
# make_run() returns (run, instrumented) closures over pre-built inputs.


def _triangle_query(r, s, t):
    from repro.core.query import Query
    from repro.storage.relation import Relation

    return Query(
        [
            Relation("R", ["A", "B"], r),
            Relation("S", ["B", "C"], s),
            Relation("T", ["A", "C"], t),
        ]
    )


def _make_dyadic_hard(n: int):
    from repro.core.triangle import triangle_join
    from repro.datasets.instances import triangle_hard
    from repro.util.counters import OpCounters

    r, s, t, _cert = triangle_hard(n)

    def run():
        return triangle_join(r, s, t)

    def instrumented():
        counters = OpCounters()
        triangle_join(r, s, t, counters)
        return counters.snapshot()

    return run, instrumented


def _make_dyadic_planted(n: int, k: int):
    from repro.core.triangle import triangle_join
    from repro.datasets.instances import triangle_with_output
    from repro.util.counters import OpCounters

    r, s, t = triangle_with_output(n, k, seed=5)

    def run():
        return triangle_join(r, s, t)

    def instrumented():
        counters = OpCounters()
        triangle_join(r, s, t, counters)
        return counters.snapshot()

    return run, instrumented


def _make_minesweeper_hard(n: int):
    from repro.core.engine import join
    from repro.datasets.instances import triangle_hard
    from repro.util.counters import OpCounters

    r, s, t, _cert = triangle_hard(n)

    def run():
        return join(
            _triangle_query(r, s, t), gao=["A", "B", "C"], strategy="general"
        )

    def instrumented():
        counters = OpCounters()
        join(
            _triangle_query(r, s, t),
            gao=["A", "B", "C"],
            strategy="general",
            counters=counters,
        )
        return counters.snapshot()

    return run, instrumented


def _make_intersection(factory_name: str, *args, **kwargs):
    from repro.core.intersection import intersect_sorted
    from repro.datasets import instances
    from repro.util.counters import OpCounters

    sets = getattr(instances, factory_name)(*args, **kwargs)

    def run():
        return intersect_sorted(sets)

    def instrumented():
        counters = OpCounters()
        intersect_sorted(sets, counters)
        return counters.snapshot()

    return run, instrumented


def _make_parallel_triangle(n: int, k: int, shards: int, workers: int):
    # repro.parallel arrived in PR 3; older checkouts skip via the
    # ModuleNotFoundError probe below (see measure()).
    import repro.parallel  # noqa: F401

    from repro.core.engine import join
    from repro.datasets.instances import triangle_with_output
    from repro.util.counters import OpCounters

    r, s, t = triangle_with_output(n, k, seed=5)

    def run():
        return join(
            _triangle_query(r, s, t),
            gao=["A", "B", "C"],
            strategy="general",
            shards=shards,
            workers=workers,
        )

    def instrumented():
        # workers=0 (in-process sequential shard execution) tallies the
        # exact same merged counts as the pooled run, deterministically.
        counters = OpCounters()
        join(
            _triangle_query(r, s, t),
            gao=["A", "B", "C"],
            strategy="general",
            counters=counters,
            shards=shards,
            workers=0,
        )
        return counters.snapshot()

    return run, instrumented


def _make_parallel_intersection(n: int, shards: int, workers: int):
    import repro.parallel  # noqa: F401

    from repro.core.engine import join
    from repro.core.query import Query
    from repro.datasets.instances import intersection_interleaved
    from repro.storage.relation import Relation
    from repro.util.counters import OpCounters

    sets = intersection_interleaved(n)

    def query():
        return Query(
            [
                Relation(f"R{i}", ["A"], [(v,) for v in vals])
                for i, vals in enumerate(sets)
            ]
        )

    def run():
        return join(query(), gao=["A"], shards=shards, workers=workers)

    def instrumented():
        counters = OpCounters()
        join(query(), gao=["A"], counters=counters, shards=shards, workers=0)
        return counters.snapshot()

    return run, instrumented


def _make_dynamic(stream_name: str, **params):
    # repro.dynamic arrived in PR 2; on older checkouts (perf_report
    # --baseline-ref) the import fails and measure() skips the workload.
    from repro import dynamic

    stream = getattr(dynamic, stream_name)
    schemas, initial, batches = stream(**params)

    def run():
        catalog, view = dynamic.build_catalog(schemas, initial)
        for batch in batches:
            catalog.apply_batch(batch)
        return view

    def instrumented():
        # rec_* mirrors bench_dynamic.py / EXPERIMENTS.md: the
        # *cumulative* cost of recomputing the view after every batch
        # (the baseline incremental maintenance is measured against).
        _, view, _, rec = dynamic.replay_with_recompute(
            schemas, initial, batches
        )
        snapshot = view.counters.snapshot()
        snapshot["rec_findgap"] = rec["findgap"]
        snapshot["rec_probes"] = rec["probes"]
        return snapshot

    return run, instrumented


def _make_cds_join(backend: str, query_factory, gao, strategy: str):
    # repro.core.cds_arena arrived in PR 4; older checkouts skip via the
    # ModuleNotFoundError probe in measure().
    import repro.core.cds_arena  # noqa: F401

    from repro.core.engine import join
    from repro.util.counters import OpCounters

    # Build the indexes once: the cds/* family times the CDS, not
    # relation construction (the engines never mutate stored relations).
    query = query_factory()

    def run():
        return join(query, gao=gao, strategy=strategy, cds_backend=backend)

    def instrumented():
        counters = OpCounters()
        join(
            query, gao=gao, strategy=strategy, counters=counters,
            cds_backend=backend,
        )
        return counters.snapshot()

    return run, instrumented


def _cds_triangle_query(n: int):
    from repro.datasets.instances import triangle_hard

    r, s, t, _cert = triangle_hard(n)
    return lambda: _triangle_query(r, s, t)


def _cds_bowtie_query(n: int, seed: int = 3):
    import random

    from repro.core.query import Query
    from repro.storage.relation import Relation

    rng = random.Random(seed)
    r = sorted(rng.sample(range(n), n // 4))
    t = sorted(rng.sample(range(n), n // 4))
    s = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)})

    def query():
        return Query(
            [
                Relation("R", ["X"], [(v,) for v in r]),
                Relation("S", ["X", "Y"], s),
                Relation("T", ["Y"], [(v,) for v in t]),
            ]
        )

    return query


def _cds_deep_query(k: int, n: int, seed: int = 11):
    """Path query R1(A0,A1) ⋈ ... ⋈ Rk(A{k-1},Ak): deep CDS patterns."""
    import random

    from repro.core.query import Query
    from repro.storage.relation import Relation

    rng = random.Random(seed)
    # Sparse relations: most probes discover gaps instead of outputs,
    # so the run is CDS-bound (deep chains), not enumeration-bound.
    rels = [
        sorted(
            {(rng.randrange(n), rng.randrange(n)) for _ in range(8 * n // 5)}
        )
        for _ in range(k)
    ]

    def query():
        return Query(
            [
                Relation(f"R{i}", [f"A{i}", f"A{i+1}"], rows)
                for i, rows in enumerate(rels)
            ]
        )

    return query


def _cds_wide_query(m: int, n: int, seed: int = 13):
    """Star query ⋈ᵢ Rᵢ(A, Bᵢ): wide equality fanout under the root."""
    import random

    from repro.core.query import Query
    from repro.storage.relation import Relation

    rng = random.Random(seed)
    rels = [
        sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)})
        for _ in range(m)
    ]

    def query():
        return Query(
            [
                Relation(f"R{i}", ["A", f"B{i}"], rows)
                for i, rows in enumerate(rels)
            ]
        )

    return query


def _make_cds_dynamic(backend: str, **params):
    # ExecSpec arrived in PR 13 (before it build_catalog took the knob
    # as a keyword); older checkouts skip via the ImportError probe in
    # measure().
    import repro.core.cds_arena  # noqa: F401

    from repro import dynamic
    from repro.core.engine import ExecSpec

    schemas, initial, batches = dynamic.triangle_stream(**params)
    spec = ExecSpec(cds_backend=backend)

    def run():
        catalog, view = dynamic.build_catalog(schemas, initial, spec=spec)
        for batch in batches:
            catalog.apply_batch(batch)
        return view

    def instrumented():
        catalog, view = dynamic.build_catalog(schemas, initial, spec=spec)
        for batch in batches:
            catalog.apply_batch(batch)
        snapshot = view.counters.snapshot()
        snapshot["seed_findgap"] = view.initial_ops.get("findgap", 0)
        return snapshot

    return run, instrumented


def _make_cds_dyadic(backend: str, n: int):
    import repro.core.cds_arena  # noqa: F401

    from repro.core.triangle import triangle_join
    from repro.datasets.instances import triangle_hard
    from repro.util.counters import OpCounters

    r, s, t, _cert = triangle_hard(n)

    def run():
        return triangle_join(r, s, t, cds_backend=backend)

    def instrumented():
        counters = OpCounters()
        triangle_join(r, s, t, counters, cds_backend=backend)
        return counters.snapshot()

    return run, instrumented


def _make_planner(mode: str, n: int, k: int):
    """The serving layer's plan-cold vs plan-cached pair (ISSUE 5).

    ``cold`` builds a fresh session per run, so every execution pays
    parse + validate + plan (candidate scoring on the deterministic
    sample) + execute; ``cached`` warms one session and re-executes the
    same text, so every run is parse + signature lookup + execute —
    the amortization the plan cache exists to provide.  The
    instrumented snapshot carries the planner/cache call counters, so
    the op-drift gate also locks in "cached means zero planning".
    """
    # repro.serve arrived in PR 5; older checkouts skip via the
    # ModuleNotFoundError probe in measure().
    import repro.serve  # noqa: F401

    from repro.datasets.instances import triangle_with_output
    from repro.dynamic import Catalog
    from repro.serve import Session

    r, s, t = triangle_with_output(n, k, seed=5)
    text = "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)"

    def fresh_catalog():
        catalog = Catalog()
        catalog.create_relation("R", ["A", "B"], r)
        catalog.create_relation("S", ["B", "C"], s)
        catalog.create_relation("T", ["A", "C"], t)
        return catalog

    catalog = fresh_catalog()
    if mode == "cached":
        warm = Session(catalog)
        warm.execute(text)

        def run():
            return warm.execute(text)

    else:

        def run():
            return Session(catalog).execute(text)

    def instrumented():
        session = Session(fresh_catalog())
        first = session.execute(text)
        snapshot = dict(
            (first if mode == "cold" else session.execute(text)).ops
        )
        stats = session.stats()
        snapshot["plans_built"] = stats["planner"]["plans_built"]
        snapshot["plan_estimate_runs"] = stats["planner"]["estimate_runs"]
        snapshot["plan_cache_hits"] = stats["plan_cache"]["hits"]
        return snapshot

    return run, instrumented


def _cds_workloads(sizes: dict) -> "Dict[str, Callable]":
    """The ``cds/*`` family: pointer-vs-arena twins per shape.

    Every pair is asserted row- and op-identical by
    ``benchmarks/bench_cds_backends.py``; the registry carries both so
    BENCH_*.json records the backend comparison side by side.
    """
    out: Dict[str, Callable] = {}
    shapes = {
        "triangle/hard/n={n}".format(**sizes): (
            lambda: _cds_triangle_query(sizes["n"]),
            ["A", "B", "C"],
            "general",
        ),
        "bowtie/dense/n={bn}".format(**sizes): (
            lambda: _cds_bowtie_query(sizes["bn"]),
            ["X", "Y"],
            "chain",
        ),
        "deep/path/k={k}/n={dn}".format(**sizes): (
            lambda: _cds_deep_query(sizes["k"], sizes["dn"]),
            [f"A{i}" for i in range(sizes["k"] + 1)],
            "auto",
        ),
        "wide/star/m={m}/n={wn}".format(**sizes): (
            lambda: _cds_wide_query(sizes["m"], sizes["wn"]),
            ["A"] + [f"B{i}" for i in range(sizes["m"])],
            "auto",
        ),
    }
    for shape, (qf, gao, strategy) in shapes.items():
        for backend in ("pointer", "arena"):
            out[f"cds/{shape}/{backend}"] = (
                lambda qf=qf, gao=gao, strategy=strategy, backend=backend: (
                    _make_cds_join(backend, qf(), gao, strategy)
                )
            )
    for backend in ("pointer", "arena"):
        out[f"cds/dynamic/triangle/e={sizes['e']}/{backend}"] = (
            lambda backend=backend: _make_cds_dynamic(
                backend,
                n_nodes=sizes["nodes"], n_edges=sizes["e"],
                n_batches=sizes["batches"], batch_size=8,
                insert_fraction=0.5, seed=12,
            )
        )
        out[f"cds/dyadic/hard/n={sizes['dy']}/{backend}"] = (
            lambda backend=backend: _make_cds_dyadic(backend, sizes["dy"])
        )
    return out


#: name -> zero-argument factory returning (run, instrumented).  Sizes
#: track the paper-experiment benchmarks (bench_triangle.py /
#: bench_set_intersection.py) plus one larger hard instance.
WORKLOADS: Dict[str, Callable] = {
    "triangle/dyadic/hard/n=32": lambda: _make_dyadic_hard(32),
    "triangle/dyadic/hard/n=48": lambda: _make_dyadic_hard(48),
    "triangle/dyadic/planted/n=100": lambda: _make_dyadic_planted(100, 25),
    "triangle/dyadic/planted/n=300": lambda: _make_dyadic_planted(300, 75),
    "triangle/minesweeper/hard/n=16": lambda: _make_minesweeper_hard(16),
    "triangle/minesweeper/hard/n=32": lambda: _make_minesweeper_hard(32),
    "intersection/interleaved/n=20000": lambda: _make_intersection(
        "intersection_interleaved", 20_000
    ),
    "intersection/overlap/k=100": lambda: _make_intersection(
        "intersection_with_overlap", 50_000, 100, seed=4
    ),
    "intersection/blocks/n=100000": lambda: _make_intersection(
        "intersection_blocks", 2, 100_000
    ),
    "dynamic/triangle/mixed/e=200": lambda: _make_dynamic(
        "triangle_stream",
        n_nodes=40, n_edges=200, n_batches=6, batch_size=8,
        insert_fraction=0.5, seed=12,
    ),
    "dynamic/intersection/mixed/n=600": lambda: _make_dynamic(
        "intersection_stream",
        k=3, domain=5000, n_values=600, n_batches=6, batch_size=8,
        insert_fraction=0.5, seed=14,
    ),
    "parallel/triangle/planted/n=500/w=0x4": lambda: (
        _make_parallel_triangle(500, 120, shards=4, workers=0)
    ),
    "parallel/triangle/planted/n=500/w=2x4": lambda: (
        _make_parallel_triangle(500, 120, shards=4, workers=2)
    ),
    "parallel/intersection/interleaved/n=20000/w=0x4": lambda: (
        _make_parallel_intersection(20_000, shards=4, workers=0)
    ),
    "planner/triangle/plan=cold/n=300": lambda: (
        _make_planner("cold", 300, 75)
    ),
    "planner/triangle/plan=cached/n=300": lambda: (
        _make_planner("cached", 300, 75)
    ),
}
WORKLOADS.update(
    _cds_workloads(
        {
            "n": 32, "bn": 2000, "k": 5, "dn": 60, "m": 5, "wn": 40,
            "e": 200, "nodes": 40, "batches": 6, "dy": 48,
        }
    )
)

#: Small-input substitutes for smoke runs (same shapes, trivial sizes).
SMOKE_WORKLOADS: Dict[str, Callable] = {
    "triangle/dyadic/hard/n=8": lambda: _make_dyadic_hard(8),
    "triangle/dyadic/planted/n=40": lambda: _make_dyadic_planted(40, 10),
    "triangle/minesweeper/hard/n=8": lambda: _make_minesweeper_hard(8),
    "intersection/interleaved/n=200": lambda: _make_intersection(
        "intersection_interleaved", 200
    ),
    "intersection/overlap/k=10": lambda: _make_intersection(
        "intersection_with_overlap", 500, 10, seed=4
    ),
    "intersection/blocks/n=1000": lambda: _make_intersection(
        "intersection_blocks", 2, 1_000
    ),
    "dynamic/triangle/mixed/e=20": lambda: _make_dynamic(
        "triangle_stream",
        n_nodes=10, n_edges=20, n_batches=3, batch_size=4,
        insert_fraction=0.5, seed=12,
    ),
    "parallel/triangle/planted/n=40/w=2x2": lambda: (
        _make_parallel_triangle(40, 10, shards=2, workers=2)
    ),
    "planner/triangle/plan=cold/n=40": lambda: (
        _make_planner("cold", 40, 10)
    ),
    "planner/triangle/plan=cached/n=40": lambda: (
        _make_planner("cached", 40, 10)
    ),
}
SMOKE_WORKLOADS.update(
    _cds_workloads(
        {
            "n": 8, "bn": 200, "k": 3, "dn": 12, "m": 3, "wn": 16,
            "e": 20, "nodes": 10, "batches": 3, "dy": 8,
        }
    )
)


def measure(
    names: List[str] = None, repeat: int = 5, smoke: bool = False
) -> Dict[str, dict]:
    """Median wall-clock + op counts per workload, on this interpreter's
    ``repro`` (whichever checkout PYTHONPATH points at)."""
    registry = SMOKE_WORKLOADS if smoke else WORKLOADS
    names = list(registry) if names is None else names
    out: Dict[str, dict] = {}
    for name in names:
        try:
            run, instrumented = registry[name]()
        except ImportError as exc:
            if exc.name not in (
                "repro.dynamic", "repro.parallel", "repro.core.cds_arena",
                "repro.lang", "repro.planner", "repro.serve",
                "repro.core.engine",
            ):
                raise
            # Workload needs a subsystem this checkout predates
            # (repro.dynamic arrived in PR 2, repro.parallel in PR 3,
            # repro.core.cds_arena in PR 4, lang/planner/serve in PR 5,
            # repro.core.engine.ExecSpec in PR 13)
            # when baselining against an older ref: skip it;
            # perf_report only diffs names present on both sides.
            # Anything else (a broken import in the current tree)
            # still fails the run.
            print(f"skipping {name}: {exc}", file=sys.stderr)
            continue
        samples = []
        for _ in range(repeat):
            t0 = time.perf_counter()
            run()
            samples.append(time.perf_counter() - t0)
        ops = instrumented()
        out[name] = {
            "median_s": statistics.median(samples),
            "min_s": min(samples),
            "rounds": repeat,
            "ops": ops,
        }
    return out


def profile(
    names: List[str] = None, top: int = 15, smoke: bool = False
) -> None:
    """cProfile each workload once; print the top-N functions.

    The ``repro bench --profile`` entry point: makes hot-path claims
    reproducible from the CLI (sorted by cumulative time, which is what
    "where does the wall-clock go" questions need).
    """
    import cProfile
    import pstats

    registry = SMOKE_WORKLOADS if smoke else WORKLOADS
    names = list(registry) if names is None else names
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise SystemExit(
            f"unknown workloads {unknown}; available: {sorted(registry)}"
        )
    for name in names:
        try:
            run, _ = registry[name]()
        except ModuleNotFoundError as exc:
            if exc.name not in (
                "repro.dynamic", "repro.parallel", "repro.core.cds_arena",
                "repro.lang", "repro.planner", "repro.serve",
            ):
                raise
            print(f"skipping {name}: {exc}", file=sys.stderr)
            continue
        run()  # warm caches/lazy imports outside the profiled run
        profiler = cProfile.Profile()
        profiler.enable()
        run()
        profiler.disable()
        print(f"==== {name}")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny-input variants (plumbing check only)")
    parser.add_argument("--json", action="store_true",
                        help="print machine-readable JSON")
    parser.add_argument("--profile", action="store_true",
                        help="cProfile each workload once and print the "
                        "hottest functions instead of timing")
    parser.add_argument("--top", type=int, default=15,
                        help="rows of cProfile output per workload")
    parser.add_argument("names", nargs="*", help="workload names (default all)")
    args = parser.parse_args(argv)
    if args.profile:
        profile(args.names or None, top=args.top, smoke=args.smoke)
        return 0
    results = measure(args.names or None, repeat=args.repeat, smoke=args.smoke)
    if args.json:
        json.dump(results, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for name, row in results.items():
            print(f"{name:40s} {row['median_s'] * 1e3:9.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Plan-cold vs plan-cached serving (the ISSUE 5 amortization claim).

For each ``planner/*`` workload pair this measures a cold execution
(fresh session: parse + plan + execute) against a cached one (warm
session: parse + cache hit + execute) on identical data, asserts the
cache contract — identical rows, *zero* planner calls on the cached
path, before and after a write — and records both timings into
``summary.csv`` / the pytest-benchmark JSON, so the cached-vs-cold
trajectory is a diffable artifact.

The wall-clock ratio is machine-dependent and not asserted (the call
counters are the gate); the committed ``BENCH_*.json`` records it.
"""

import time

import pytest

from benchmarks._util import once, record, smoke_mode
import benchmarks._workloads as workloads

_SMOKE = smoke_mode()
_REGISTRY = workloads.SMOKE_WORKLOADS if _SMOKE else workloads.WORKLOADS
_N = 40 if _SMOKE else 300


def _case(mode: str) -> str:
    return f"planner/triangle/plan={mode}/n={_N}"


def test_cached_plan_skips_planning():
    """The cache contract, asserted on call counters and rows."""
    from repro.datasets.instances import triangle_with_output
    from repro.dynamic import Catalog
    from repro.serve import Session

    r, s, t = triangle_with_output(_N, _N // 4, seed=5)
    catalog = Catalog()
    catalog.create_relation("R", ["A", "B"], r)
    catalog.create_relation("S", ["B", "C"], s)
    catalog.create_relation("T", ["A", "C"], t)
    session = Session(catalog)
    text = "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)"
    first = session.execute(text)
    built = session.planner.plans_built
    estimates = session.planner.estimate_runs
    second = session.execute(text)
    assert second.cached_plan and not first.cached_plan
    assert session.planner.plans_built == built
    assert session.planner.estimate_runs == estimates
    assert second.rows == first.rows
    # ... and the plan outlives a write: no re-plan, no scoring run,
    # and the written row is in the answer.
    from repro.dynamic import Update

    top = max(v for rows in (r, s, t) for row in rows for v in row)
    a, b, c = top + 1, top + 2, top + 3
    catalog.apply_batch(
        [Update("R", "+", (a, b)), Update("S", "+", (b, c)),
         Update("T", "+", (a, c))]
    )
    third = session.execute(text)
    assert third.cached_plan
    assert session.planner.plans_built == built
    assert session.planner.estimate_runs == estimates
    assert third.rows == sorted(first.rows + [(a, b, c)])


@pytest.mark.parametrize("mode", ["cold", "cached"])
def test_planner_serving(benchmark, mode):
    """Time one serving execution per mode; cold/cached side by side."""
    run, instrumented = _REGISTRY[_case(mode)]()
    timings = {}
    for probe_mode in ("cold", "cached"):
        probe_run, _ = _REGISTRY[_case(probe_mode)]()
        t0 = time.perf_counter()
        probe_run()
        timings[probe_mode] = time.perf_counter() - t0
    ops = instrumented()
    if mode == "cached":
        assert ops["plan_cache_hits"] == 1
        assert ops["plans_built"] == 1  # only the warmup planned
    rows_cold = _REGISTRY[_case("cold")]()[0]().rows
    rows_cached = _REGISTRY[_case("cached")]()[0]().rows
    assert rows_cold == rows_cached, "cold/cached row drift"
    once(benchmark, run)
    speedup = (
        timings["cold"] / timings["cached"] if timings["cached"] else 0.0
    )
    record(
        benchmark,
        "planner_serving",
        _case(mode),
        {
            "cold_ms": round(timings["cold"] * 1e3, 3),
            "cached_ms": round(timings["cached"] * 1e3, 3),
            "cached_speedup_x1000": int(speedup * 1000),
            "plans_built": ops["plans_built"],
            "plan_estimate_runs": ops["plan_estimate_runs"],
        },
    )

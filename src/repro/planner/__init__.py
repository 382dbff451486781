"""Cost-based planning: classify, enumerate, score, cache.

The second layer of the query subsystem (ISSUE 5): the
:class:`Planner` turns a lowered query into an executable
:class:`Plan` — specialized triangle engine, Yannakakis for
alpha-acyclic inputs, generic join, or sharded/serial Minesweeper
under the cheapest *measured* GAO — and the :class:`PlanCache` amortizes that
decision across repeated traffic *and across writes*: keyed by the
statement's renaming-invariant signature, built once per key however
many readers miss together, and rebuilt only when the data a
cost-based plan was measured on has drifted.
"""

from repro.planner.cache import PlanCache
from repro.planner.plan import (
    ENGINE_GENERIC,
    ENGINE_MINESWEEPER,
    ENGINE_TRIANGLE,
    ENGINE_YANNAKAKIS,
    CandidatePlan,
    Plan,
    TriangleMapping,
)
from repro.planner.planner import (
    Planner,
    PlannerConfig,
    detect_triangle,
    plan_query,
    sample_query,
    triangle_edges,
)

__all__ = [
    "ENGINE_GENERIC",
    "ENGINE_MINESWEEPER",
    "ENGINE_TRIANGLE",
    "ENGINE_YANNAKAKIS",
    "CandidatePlan",
    "Plan",
    "PlanCache",
    "Planner",
    "PlannerConfig",
    "TriangleMapping",
    "detect_triangle",
    "plan_query",
    "sample_query",
    "triangle_edges",
]

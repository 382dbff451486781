"""The perf ledger's direct engine call agrees with the serving layer.

``benchmarks/ledger/layers.py::_engine_call`` times a plan's engine
called directly, bypassing the session.  It still reads the plan's
``backend`` / ``cds_backend`` names and passes them to ``join`` and
``triangle_join``, so it is the one reader of those ``None``-only
compatibility shims; only
the slow ledger smoke would otherwise reach it.  This loads the module
by path and checks, for a triangle, a Minesweeper and a Yannakakis
plan taken from a :class:`~repro.serve.Session`, that the direct call
returns the rows ``Session.execute`` does.
"""

import importlib.util
import os
import sys

import pytest

from repro.dynamic import Catalog
from repro.lang import lower, parse
from repro.planner import (
    ENGINE_MINESWEEPER,
    ENGINE_TRIANGLE,
    ENGINE_YANNAKAKIS,
)
from repro.serve import Session

LEDGER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks", "ledger",
)
#: The ledger's sibling modules, imported by plain name.
SIBLINGS = ("gen", "harness", "oracle", "spec", "suite", "workloads")

EDGES = [(1, 2), (2, 3), (3, 1), (1, 3), (3, 4), (4, 1), (2, 4), (4, 2)]
#: engine -> a statement the planner hands to it
STATEMENTS = {
    ENGINE_TRIANGLE: "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)",
    ENGINE_MINESWEEPER: "Q(a, b, c, d) :- R(a, b), R(b, c), R(c, d), R(d, a)",
    ENGINE_YANNAKAKIS: "Q(x, z) :- R(x, y), S(y, z)",
}


@pytest.fixture(scope="module")
def layers():
    """``benchmarks/ledger/layers.py``, loaded without leaving its
    siblings' plain names in ``sys.modules``."""
    before = set(sys.modules)
    sys.path.insert(0, LEDGER)
    try:
        spec = importlib.util.spec_from_file_location(
            "ledger_layers", os.path.join(LEDGER, "layers.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(LEDGER)
        for name in SIBLINGS:
            if name not in before:
                sys.modules.pop(name, None)
    return module


@pytest.fixture()
def catalog():
    catalog = Catalog()
    for name in ("R", "S", "T"):
        catalog.create_relation(name, ["A", "B"], EDGES)
    return catalog


@pytest.mark.parametrize("engine", sorted(STATEMENTS))
def test_engine_call_returns_the_session_rows(layers, catalog, engine):
    text = STATEMENTS[engine]
    result = Session(catalog).execute(text)
    plan = result.plan
    assert plan.engine == engine
    statement = parse(text)
    canonical = lower(statement.canonicalize(), catalog)

    _, _, call = layers._engine_call(plan, canonical)
    rows = list(call())

    # The engine's columns: the triangle roles, else the plan's GAO —
    # both in canonical variable names.
    columns = plan.triangle.vars if plan.triangle is not None else plan.gao
    rename = statement.canonical_rename()
    order = [rename[v] for v in columns]
    positions = [order.index(v) for v in statement.head_vars]
    projected = sorted({tuple(row[p] for p in positions) for row in rows})
    assert projected == result.rows
    assert result.rows

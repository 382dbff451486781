"""Engine regimes: the planner's measured pick on both sides of |C| ≪ N.

On an unsampled cyclic query the planner scores generic join once and
then the triangle engine or every Minesweeper GAO under a budget worth
generic join's weighted work (``planner.NS_PER_OP``).  The paper's
cyclic bounds (Thm 5.1, Thm 5.4) beat a worst-case-optimal join only
where the certificate is much smaller than the input, so:

* on the ledger-shaped random triangle and 4-cycle (|C| several times
  N) generic join must win;
* on Example B.1-style instances whose A ranges are disjoint (an O(1)
  certificate, ≤ 256 rows per relation) the triangle engine and
  Minesweeper must win.

Every case also re-runs the pick to completion, uncapped, and every
other candidate under an ops budget worth ``MARGIN`` times the pick's
weighted work, and checks that the pick is within ``FACTOR`` of the
cheapest candidate and that the best candidate of the other side costs
at least ``MARGIN`` times as much (the instance is in the regime, not
on the fence).  A run that trips its budget has cost more than
``MARGIN`` times the pick, and ``MARGIN >= FACTOR``, so recording it as
infinitely expensive leaves both verdicts what a run to completion
would make them, without paying for the pathological candidates.
"""

import math
import random

import pytest

from repro.core.engine import ExecSpec
from repro.core.query import Query
from repro.core.resilience import BudgetExceeded, QueryBudget
from repro.datasets.instances import (
    disjoint_ranges_cycle4,
    disjoint_ranges_triangle,
)
from repro.dynamic import Catalog
from repro.lang import lower, parse
from repro.planner import (
    ENGINE_GENERIC,
    ENGINE_MINESWEEPER,
    ENGINE_TRIANGLE,
    Planner,
    detect_triangle,
)
from repro.planner.planner import NS_PER_OP, engine_ops, engine_rows
from repro.serve import Session
from repro.util.counters import OpCounters

#: The pick's weighted work over the cheapest candidate's.  The planner
#: measures on the full data here (nothing is sampled), so the pick is
#: the cheapest exactly.
FACTOR = 1.0
#: The other side's best candidate over the pick, at least.
MARGIN = 2.0

TRIANGLE = "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)"
CYCLE4 = "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)"
#: The ledger's read: one 48-edge relation closing a 4-cycle on itself.
SELF_CYCLE4 = "Q(a, b, c, d) :- H(a, b), H(b, c), H(c, d), H(d, a)"


def random_edges(nodes, edges, seed):
    rng = random.Random(seed)
    out = set()
    while len(out) < edges:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            out.add((a, b))
    return sorted(out)


def catalog_of(relations):
    catalog = Catalog()
    for name, rows in relations.items():
        catalog.create_relation(name, ["A", "B"], rows)
    return catalog


#: case -> (statement, relations, expected pick)
CASES = {
    # tri_rows: 3 x 200 random edges over 40 nodes
    "random-triangle": (
        TRIANGLE,
        {name: random_edges(40, 200, f"tri/{name}") for name in "RST"},
        ENGINE_GENERIC,
    ),
    # cycle4: 48 random edges over 24 nodes, self-joined
    "random-4-cycle": (
        SELF_CYCLE4, {"H": random_edges(24, 48, "H")}, ENGINE_GENERIC,
    ),
    "disjoint-triangle": (
        TRIANGLE,
        dict(zip("RST", disjoint_ranges_triangle(128))),
        ENGINE_TRIANGLE,
    ),
    "disjoint-4-cycle": (
        CYCLE4,
        dict(zip("RSTU", disjoint_ranges_cycle4(128))),
        ENGINE_MINESWEEPER,
    ),
}


def full_work(query, engine, gao, mapping, cap=None):
    """Weighted work of one run to completion, or ``math.inf`` once it
    has cost more than ``cap`` (weighted work, ns)."""
    counters = OpCounters()
    admission = (
        None if cap is None
        else QueryBudget(max_ops=cap // NS_PER_OP[engine]).admit()
    )
    try:
        for _ in engine_rows(
            engine, query, ExecSpec(gao=tuple(gao)), mapping, counters,
            admission,
        ):
            pass
    except BudgetExceeded:
        return math.inf
    return engine_ops(engine, counters) * NS_PER_OP[engine]


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    text, relations, expected = CASES[request.param]
    catalog = catalog_of(relations)
    lowered = lower(parse(text).canonicalize(), catalog)
    # detached copies: the measuring runs must not share indexes
    from repro.storage.relation import Relation

    query = Query([
        Relation(r.name, r.attributes, r.tuples())
        for r in lowered.query.relations
    ])
    return request.param, text, catalog, lowered, query, expected


def test_the_pick_is_the_regimes_engine(case):
    name, text, catalog, lowered, _, expected = case
    result = Session(catalog).execute(text)
    assert result.plan.engine == expected, (name, result.plan.scoreboard)
    assert result.plan.compared_by_work
    assert not result.plan.sampled


def test_the_pick_is_within_factor_of_the_cheapest(case):
    name, _, _, lowered, query, expected = case
    planner = Planner()
    plan = planner.plan(lowered)
    mapping = detect_triangle(query)
    gaos = planner._candidates(query)
    candidates = [(ENGINE_GENERIC, gaos[0])]
    if mapping is not None:
        candidates.append((ENGINE_TRIANGLE, mapping.vars))
    else:
        candidates += [(ENGINE_MINESWEEPER, gao) for gao in gaos]
    # Only the triangle engine reads the mapping.
    pick = (plan.engine, plan.gao)
    picked = full_work(query, *pick, mapping)
    work = {
        c: full_work(query, *c, mapping, cap=int(MARGIN * picked))
        for c in candidates
        if c != pick
    }
    work[pick] = picked
    assert picked == plan.scoreboard[0].work, name
    assert picked <= FACTOR * min(work.values()), (name, work)
    others = [w for (engine, _), w in work.items() if engine != expected]
    assert min(others) >= MARGIN * picked, (name, picked, min(others))


def test_losers_are_abandoned_at_the_generic_budget(case):
    # Cold planning costs at most about (candidates + 1) generic runs:
    # every candidate that lost to generic join stopped at its work.
    name, _, _, lowered, _, _ = case
    plan = Planner().plan(lowered)
    generic = next(
        c for c in plan.scoreboard if c.engine == ENGINE_GENERIC
    )
    for cand in plan.scoreboard:
        if cand.engine == ENGINE_GENERIC:
            continue
        if cand.capped:
            assert cand.note == "abandoned past generic join's work"
            budget = generic.work // NS_PER_OP[cand.engine]
            assert cand.ops > budget
        else:
            assert cand.work <= generic.work, (name, cand)

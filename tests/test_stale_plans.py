"""Stale-plan safety as a property: every GAO is a correct plan.

The plan cache keeps a plan across writes (see
:mod:`repro.planner.cache`) on the strength of one fact from the paper:
a GAO decides what a run *costs* (Ex. B.6), never what it returns.
This file checks that fact the way the paper would — a fast untrusted
decision, a small trusted checker.  Over seeded random instances and
random update streams on the five ledger query shapes, after every
batch:

* rows under the plan built *before* the stream
  == rows under a plan built now
  == ``baselines.hash_join_plan`` (an engine that shares no code with
  either), and
* for the 4-cycle, planned by measured work onto generic join or a
  Minesweeper GAO, the Prop. 2.5 certificate a Minesweeper run records
  under the *stale* GAO passes ``certificates/verifier.py``.

A last case pins which plans go stale at all: any plan whose board
compared engines by measured work drifts at ``DRIFT_FACTOR``; the
Yannakakis pick is structural and never does.

Every assertion message carries the seed.
"""

import random

import pytest

from repro.baselines.hash_join import hash_join_plan
from repro.certificates.recorder import record_certificate
from repro.certificates.verifier import check_certificate
from repro.core.query import Query
from repro.dynamic import Catalog, Update
from repro.lang import lower, parse
from repro.planner import (
    ENGINE_GENERIC,
    ENGINE_MINESWEEPER,
    ENGINE_TRIANGLE,
    ENGINE_YANNAKAKIS,
    PlanCache,
)
from repro.planner.plan import DRIFT_FACTOR
from repro.serve import Session
from repro.storage.relation import Relation

#: class -> (query text, stored relations) — benchmarks/ledger/gen.py's
#: five read shapes.
SHAPES = {
    "path2": ("Q(x, z) :- E(x, y), E(y, z)", ("E",)),
    "path3_proj": ("Q(a, d) :- E(a, b), E(b, c), E(c, d)", ("E",)),
    "count_tri": ("Q(COUNT) :- G(x, y), G(y, z), G(x, z)", ("G",)),
    "cycle4": (
        "Q(a, b, c, d) :- H(a, b), H(b, c), H(c, d), H(d, a)", ("H",),
    ),
    "tri_rows": (
        "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)", ("R", "S", "T"),
    ),
}
#: class -> the engines the planner may pick for it on these small,
#: unsampled instances (cyclic shapes are picked by measured work).
ENGINES = {
    "path2": {ENGINE_YANNAKAKIS},
    "path3_proj": {ENGINE_YANNAKAKIS},
    "count_tri": {ENGINE_TRIANGLE, ENGINE_GENERIC},
    "cycle4": {ENGINE_MINESWEEPER, ENGINE_GENERIC},
    "tri_rows": {ENGINE_TRIANGLE, ENGINE_GENERIC},
}
SEEDS = range(400, 406)
BATCHES = 5
DOMAIN = 5


class PinnedPlan(PlanCache):
    """A cache that only ever serves the one plan it was given — the
    stale reader, however far the data drifts."""

    def __init__(self, plan):
        super().__init__()
        self.plan = plan

    def resolve(self, signature, sizes, build):
        return self.plan, "cached"


def random_edge(rng):
    return rng.randint(0, DOMAIN), rng.randint(0, DOMAIN)


def random_batch(rng, catalog, names):
    """Inserts and deletes; deletes aim at live rows so they land, and
    some batches are big enough to drift a relation past 2x."""
    updates = []
    for _ in range(rng.choice((1, 2, 4, 12))):
        name = rng.choice(names)
        live = catalog.relation(name).tuples()
        if live and rng.random() < 0.45:
            updates.append(Update(name, "-", tuple(rng.choice(live))))
        else:
            updates.append(Update(name, "+", random_edge(rng)))
    return updates


def detached(lowered):
    """The lowered query over plain copies of the current rows."""
    return Query(
        [
            Relation(r.name, r.attributes, r.tuples())
            for r in lowered.query.relations
        ]
    )


def baseline_rows(catalog, text):
    """What the statement means, from the hash-join baseline alone."""
    statement = parse(text)
    query = detached(lower(statement, catalog))
    variables = list(statement.variables())
    full = hash_join_plan(query, variables)
    if statement.aggregate is not None:
        return [(len(full),)]
    positions = [variables.index(v) for v in statement.head_vars]
    return sorted({tuple(row[p] for p in positions) for row in full})


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rows_under_a_stale_plan_never_change(shape, seed):
    text, names = SHAPES[shape]
    rng = random.Random(f"{shape}/{seed}")
    catalog = Catalog()
    for name in names:
        catalog.create_relation(
            name, ["A", "B"],
            sorted({random_edge(rng) for _ in range(rng.randint(3, 9))}),
        )
    old = Session(catalog).execute(text).plan
    stale = Session(catalog, plan_cache=PinnedPlan(old))
    assert old.engine in ENGINES[shape], old.engine

    for batch in range(BATCHES):
        where = f"shape={shape} seed={seed} batch={batch}"
        catalog.apply_batch(random_batch(rng, catalog, names))
        under_old = stale.execute(text)
        assert under_old.plan is old, where
        fresh = Session(catalog).execute(text)
        want = baseline_rows(catalog, text)
        assert under_old.rows == want, f"stale plan diverged: {where}"
        assert fresh.rows == want, f"fresh plan diverged: {where}"

        if shape != "cycle4":
            continue
        # Prop. 2.5 under the stale GAO: the comparisons a Minesweeper
        # run makes on today's data certify today's output.
        statement = parse(text)
        gao = Session._localize(statement, old)
        prepared = detached(lower(statement, catalog)).with_gao(list(gao))
        rows, argument = record_certificate(prepared)
        positions = [gao.index(v) for v in statement.head_vars]
        assert sorted(
            tuple(row[p] for p in positions) for row in rows
        ) == want, f"recorded run diverged: {where}"
        assert argument.satisfied_by(prepared), where
        refutation = check_certificate(
            prepared, argument, samples=6, seed=seed
        )
        assert refutation is None, f"certificate refuted: {where}"


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_measured_picks_drift_and_structural_picks_do_not(shape):
    text, names = SHAPES[shape]
    rng = random.Random(f"drift/{shape}")
    catalog = Catalog()
    for name in names:
        catalog.create_relation(
            name, ["A", "B"],
            sorted({random_edge(rng) for _ in range(8)}),
        )
    session = Session(catalog)
    plan = session.execute(text).plan
    measured = shape not in ("path2", "path3_proj")
    assert plan.compared_by_work is measured
    # One relation grows to DRIFT_FACTOR times its planned size.
    name = names[0]
    size = len(catalog.relation(name))
    catalog.apply_batch([
        Update(name, "+", (100 + i, 200 + i))
        for i in range((DRIFT_FACTOR - 1) * size)
    ])
    again = session.execute(text)
    assert again.plan_origin == (
        "refreshed (drift)" if measured else "cached"
    ), shape
    assert again.rows == baseline_rows(catalog, text), shape

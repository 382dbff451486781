"""Property test: every engine computes the same natural join.

Hypothesis drives random small instances through Minesweeper (both probe
strategies), LFTJ, generic join, hash plans, Yannakakis (when acyclic),
the triangle engine (on triangle shapes), and the naive evaluator.
"""

import dataclasses
import inspect
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hash_join import hash_join_plan
from repro.baselines.leapfrog import leapfrog_triejoin
from repro.baselines.yannakakis import yannakakis_join
from repro.certificates.recorder import record_certificate
from repro.core.cds import ConstraintTree
from repro.core.engine import ExecSpec, iterate_join, join
from repro.core.generic_join import generic_join
from repro.core.incremental import LiveJoin
from repro.core.minesweeper import Minesweeper
from repro.core.query import Query, naive_join
from repro.core.triangle import triangle_join
from repro.datasets.instances import triangle_with_output
from repro.storage.delta import DeltaRelation
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

SHAPES = {
    "chain2": [("R", ["A", "B"]), ("S", ["B", "C"])],
    "triangle": [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["A", "C"])],
    "bowtie": [("R", ["A"]), ("S", ["A", "B"]), ("T", ["B"])],
    "chain3": [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["C", "D"])],
    "wide": [("R", ["A", "B", "C"]), ("S", ["A", "C"]), ("T", ["B", "C"])],
}


def rows_strategy(arity):
    return st.lists(
        st.tuples(*[st.integers(0, 5)] * arity), min_size=1, max_size=8
    )


@st.composite
def query_strategy(draw):
    shape_name = draw(st.sampled_from(sorted(SHAPES)))
    shape = SHAPES[shape_name]
    rels = []
    for name, attrs in shape:
        rows = draw(rows_strategy(len(attrs)))
        rels.append(Relation(name, attrs, rows))
    query = Query(rels)
    attrs = query.attributes()
    gao = draw(st.permutations(attrs))
    return shape_name, query, list(gao)


@settings(max_examples=120, deadline=None)
@given(query_strategy())
def test_all_engines_agree(case):
    shape_name, query, gao = case
    expected = naive_join(query, gao)
    prepared = query.with_gao(gao)

    assert sorted(join(query, gao=gao).rows) == expected
    assert sorted(join(query, gao=gao, strategy="general").rows) == expected
    assert leapfrog_triejoin(prepared) == expected
    assert generic_join(prepared) == expected
    assert hash_join_plan(query, gao) == expected
    if query.is_alpha_acyclic():
        assert yannakakis_join(query, gao) == expected


@settings(max_examples=60, deadline=None)
@given(
    rows_strategy(2),
    rows_strategy(2),
    rows_strategy(2),
)
def test_triangle_engine_agrees(r, s, t):
    query = Query(
        [
            Relation("R", ["A", "B"], r),
            Relation("S", ["B", "C"], s),
            Relation("T", ["A", "C"], t),
        ]
    )
    expected = naive_join(query, ["A", "B", "C"])
    assert triangle_join(r, s, t) == expected


@settings(max_examples=40, deadline=None)
@given(query_strategy())
def test_memoization_and_merging_do_not_change_results(case):
    """Ablation knobs affect cost only, never the answer."""
    _, query, gao = case
    expected = naive_join(query, gao)
    assert sorted(join(query, gao=gao, memoize=False).rows) == expected
    prepared = query.with_gao(gao)
    unmerged = ConstraintTree(
        prepared.n, counters=prepared.counters, merge_intervals=False
    )
    assert sorted(Minesweeper(prepared, cds=unmerged).run()) == expected


# ----------------------------------------------------------------------
# One ExecSpec: every route to an answer agrees, whoever owns the tally
# ----------------------------------------------------------------------

GAO = ("A", "B", "C")


def _planted_query():
    r, s, t = triangle_with_output(40, 10, seed=5)
    return Query(
        [
            Relation("R", ["A", "B"], r),
            Relation("S", ["B", "C"], s),
            Relation("T", ["A", "C"], t),
        ]
    )


def _run_route(route, query, counters):
    """``(rows, counters the run tallied into)`` for one route."""
    if route == "iterate_join":
        rows, prepared = iterate_join(query, ExecSpec(gao=GAO), counters)
        return list(rows), prepared.counters
    knobs = {
        "serial": {},
        "sharded": {"shards": 3, "workers": 0},
        "limit": {"limit": 2},
    }[route]
    result = join(query, gao=GAO, counters=counters, **knobs)
    return result.rows, result.counters


ROUTES = ("serial", "sharded", "limit", "iterate_join")


@pytest.mark.parametrize("route", ROUTES)
def test_routes_agree_for_every_input_and_tally_owner(route):
    outcomes = []
    for prepare in (False, True):
        for pass_counters in (False, True):
            query = _planted_query()
            if prepare:
                query = query.with_gao(GAO)
            counters = OpCounters() if pass_counters else None
            rows, tallied = _run_route(route, query, counters)
            if pass_counters:
                assert tallied is counters
            outcomes.append((rows, tallied.snapshot()))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    rows, ops = outcomes[0]
    assert ops["findgap"] > 0
    serial = join(_planted_query(), gao=GAO).rows
    assert rows == (serial[:2] if route == "limit" else serial)


@pytest.mark.parametrize("route", ROUTES)
def test_passed_counters_start_from_zero_on_a_prepared_query(route):
    # The drift this pins: the serial path used to drop ``counters`` for
    # an already-prepared query and tally into the query's own shared
    # object, which accumulated across calls.
    prepared = _planted_query().with_gao(GAO)
    snapshots = []
    for _ in range(3):
        counters = OpCounters()
        _, tallied = _run_route(route, prepared, counters)
        assert tallied is counters
        snapshots.append(counters.snapshot())
    assert snapshots[0]["findgap"] > 0
    assert snapshots[1] == snapshots[0] and snapshots[2] == snapshots[0]


@pytest.mark.parametrize("knobs,message", [
    ({"limit": -1}, "limit must be non-negative, got -1"),
    ({"workers": -1}, "workers must be non-negative, got -1"),
    ({"shards": 0}, "shards must be >= 1, got 0"),
])
def test_out_of_range_knobs_are_rejected_in_one_voice(knobs, message):
    def live_relations():
        return [
            Relation.from_index(
                r.name, r.attributes, DeltaRelation(r.tuples(), arity=2)
            )
            for r in _planted_query().relations
        ]

    spec = ExecSpec(**knobs)
    entry_points = [
        lambda: spec.resolve(_planted_query()),
        lambda: spec.resolve(),
        lambda: join(_planted_query(), **knobs),
        lambda: iterate_join(_planted_query(), spec),
    ]
    if "limit" not in knobs:  # a live view never runs under a limit
        entry_points.append(lambda: LiveJoin("Q", live_relations(), spec))
    for call in entry_points:
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value).startswith(message)


def test_resolve_is_idempotent_and_decides_everything():
    query = _planted_query()
    resolved = ExecSpec(workers=2).resolve(query)
    assert resolved == ExecSpec(
        gao=tuple(query.choose_gao()[0]), strategy="general",
        shards=2, workers=2,
    )
    assert resolved.resolve(query) == resolved
    assert resolved.sharded and not ExecSpec().resolve(query).sharded
    assert ExecSpec(workers=1).resolve(query).sharded  # a real 1-pool
    assert ExecSpec.from_record(
        {**resolved.to_record(), "name": "V", "relations": ["R"]}
    ) == resolved
    assert pickle.loads(pickle.dumps(resolved)) == resolved


def test_tiers_are_not_run_knobs():
    """No run option picks an index or CDS tier: ``ExecSpec`` has six
    fields, a live view's record four keys, and neither ``Relation``,
    ``Relation.from_index``, ``Minesweeper`` nor ``record_certificate``
    takes a tier name.  The three ledger shims accept only ``None``."""
    from repro.planner import Plan, PlannerConfig

    assert [f.name for f in dataclasses.fields(ExecSpec)] == [
        "gao", "strategy", "memoize", "limit", "shards", "workers",
    ]
    tiers = {"backend", "cds_backend", "merge_intervals"}
    assert not tiers & {f.name for f in dataclasses.fields(PlannerConfig)}
    assert not tiers & {f.name for f in dataclasses.fields(Plan)}
    assert Plan.backend is None and Plan.cds_backend is None
    record = ExecSpec(gao=("A", "B"), workers=2).resolve().to_record()
    assert json.dumps(record, sort_keys=True) == (
        '{"gao": ["A", "B"], "shards": 2, "strategy": "auto", "workers": 2}'
    )
    for callable_ in (
        Relation, Relation.from_index, Minesweeper, record_certificate,
    ):
        named = set(inspect.signature(callable_).parameters)
        assert not tiers & named, (callable_, named)
    # The one CDS argument is the object itself, not a name for it.
    assert "cds" in inspect.signature(Minesweeper).parameters

    query = _planted_query()
    r, s, t = triangle_with_output(40, 10, seed=5)
    shims = [
        lambda tier: join(query, backend=tier),
        lambda tier: join(query, cds_backend=tier),
        lambda tier: triangle_join(r, s, t, cds_backend=tier),
    ]
    for shim in shims:
        shim(None)
        for tier in ("auto", "arena", "pointer", "flat", "trie"):
            with pytest.raises(ValueError, match="takes no"):
                shim(tier)

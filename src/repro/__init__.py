"""repro — a reproduction of "Beyond Worst-case Analysis for Joins with
Minesweeper" (Ngo, Nguyen, Ré, Rudra; PODS 2014).

Public API highlights
---------------------
``repro.Relation``            an indexed relation (GAO-consistent trie)
``repro.Query``               a natural-join query
``repro.join``                evaluate with Minesweeper (auto GAO/strategy)
``repro.ExecSpec``            the run knobs, declared once (join's keywords)
``repro.naive_join``          ground-truth evaluation
``repro.baselines``           Yannakakis, Leapfrog Triejoin, generic join, ...
``repro.certificates``        certificate construction and verification
``repro.datasets``            paper instance families and synthetic graphs
``repro.dynamic``             writable relations, live views, streaming
``repro.parallel``            sharded parallel execution (run_sharded)
``repro.lang``                conjunctive-query text syntax (parse/lower)
``repro.planner``             cost-based plans + plan cache
``repro.serve``               sessions, prepared statements, script replay
"""

from repro.core import (
    Constraint,
    explain,
    search_gao,
    ExecSpec,
    JoinResult,
    LiveJoin,
    Minesweeper,
    PreparedQuery,
    Query,
    WILDCARD,
    join,
    naive_join,
)
from repro.dynamic import Catalog, Update
from repro.lang import parse
from repro.planner import Plan, PlanCache, Planner
from repro.serve import Session
from repro.storage import (
    BTree,
    DeltaRelation,
    FlatTrieRelation,
    IntervalList,
    Relation,
    SortedList,
    TrieRelation,
)
from repro.util import NEG_INF, POS_INF, NullCounters, OpCounters

__version__ = "1.0.0"

__all__ = [
    "Constraint",
    "explain",
    "search_gao",
    "ExecSpec",
    "JoinResult",
    "LiveJoin",
    "Minesweeper",
    "PreparedQuery",
    "Query",
    "WILDCARD",
    "join",
    "naive_join",
    "BTree",
    "Catalog",
    "DeltaRelation",
    "FlatTrieRelation",
    "IntervalList",
    "Plan",
    "PlanCache",
    "Planner",
    "Relation",
    "Session",
    "parse",
    "SortedList",
    "TrieRelation",
    "Update",
    "NEG_INF",
    "POS_INF",
    "NullCounters",
    "OpCounters",
    "__version__",
]

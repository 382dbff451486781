"""Semijoin reduction as a standalone preprocessing operator.

Yannakakis' full reducer (two semijoin passes over a join tree) removes
every dangling tuple of an alpha-acyclic query; for cyclic queries,
iterated pairwise semijoins reach a fixpoint that is a sound (if
incomplete) reduction.  Exposed separately so any engine — including
Minesweeper — can be run on the reduced instance, and so experiments can
measure exactly the Θ(N) cost the paper charges Yannakakis with
(Appendix J: the reducer must touch every tuple even when |C| is tiny).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.yannakakis import full_reduce
from repro.core.query import Query
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


def semijoin(
    target: Relation,
    source: Relation,
    counters: Optional[OpCounters] = None,
) -> Relation:
    """target ⋉ source: keep target tuples matching source on shared attrs."""
    counters = counters if counters is not None else OpCounters()
    shared = [a for a in target.attributes if a in source.attributes]
    if not shared:
        return target
    src_key = [source.attributes.index(a) for a in shared]
    tgt_key = [target.attributes.index(a) for a in shared]
    keys: Set[Row] = set()
    for row in source.tuples():
        counters.comparisons += 1
        keys.add(tuple(row[i] for i in src_key))
    kept: List[Row] = []
    for row in target.tuples():
        counters.comparisons += 1
        if tuple(row[i] for i in tgt_key) in keys:
            kept.append(row)
    return Relation(target.name, target.attributes, kept)


def full_reducer(
    query: Query,
    counters: Optional[OpCounters] = None,
) -> Query:
    """Remove all dangling tuples of an alpha-acyclic query.

    Yannakakis' two semijoin passes over the GYO join forest, run by
    :func:`repro.baselines.yannakakis.full_reduce` (the planned
    Yannakakis engine's own reducer); the reduced rows are wrapped in
    :class:`Relation` objects once, at the end.  Raises ValueError for
    cyclic queries (use :func:`pairwise_reduce` there).
    """
    counters = counters if counters is not None else OpCounters()
    nodes, _ = full_reduce(query, counters)
    return Query(
        [
            Relation(r.name, r.attributes, nodes[r.name].rows)
            for r in query.relations
        ]
    )


def pairwise_reduce(
    query: Query,
    counters: Optional[OpCounters] = None,
    max_passes: int = 10,
) -> Query:
    """Iterate pairwise semijoins to a fixpoint (sound for any query).

    For cyclic queries this is the classic incomplete reducer: the result
    may keep globally-dangling tuples, but never drops an output-
    contributing one.
    """
    counters = counters if counters is not None else OpCounters()
    relations: Dict[str, Relation] = {r.name: r for r in query.relations}
    names = list(relations)
    for _ in range(max_passes):
        changed = False
        for target_name in names:
            for source_name in names:
                if target_name == source_name:
                    continue
                before = len(relations[target_name])
                relations[target_name] = semijoin(
                    relations[target_name], relations[source_name], counters
                )
                if len(relations[target_name]) != before:
                    changed = True
        if not changed:
            break
    return Query([relations[r.name] for r in query.relations])

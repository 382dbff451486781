"""Yannakakis' algorithm for alpha-acyclic queries (1981).

The classic worst-case-optimal-in-(N + Z) algorithm the paper compares
against (Sections 4.4, Appendix J): build a join tree by GYO ear removal,
run a *full reducer* (bottom-up then top-down semijoins), and join along
the tree.  Its Achilles' heel under certificate complexity: the semijoin
passes touch every tuple of every relation, so on instances with a tiny
certificate but large dangling relations it does Ω(N) work where
Minesweeper does Õ(|C|).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.query import Query
from repro.core.resilience import AdmittedQuery
from repro.hypergraph.acyclicity import gyo_reduction
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


class _Node:
    __slots__ = ("attributes", "rows", "children")

    def __init__(self, attributes: Sequence[str], rows: List[Row]):
        self.attributes = list(attributes)
        self.rows = rows
        self.children: List["_Node"] = []


def _semijoin(
    target: _Node,
    source: _Node,
    counters: OpCounters,
    admission: Optional[AdmittedQuery],
) -> None:
    """target := target ⋉ source (keep target rows with a match)."""
    shared = [a for a in target.attributes if a in source.attributes]
    if not shared:
        return
    src_key = [source.attributes.index(a) for a in shared]
    tgt_key = [target.attributes.index(a) for a in shared]
    keys: Set[Row] = set()
    for row in source.rows:
        counters.comparisons += 1
        if admission is not None:
            admission.tick(counters, "yannakakis")
        keys.add(tuple(row[i] for i in src_key))
    kept: List[Row] = []
    for row in target.rows:
        counters.comparisons += 1
        if admission is not None:
            admission.tick(counters, "yannakakis")
        if tuple(row[i] for i in tgt_key) in keys:
            kept.append(row)
    target.rows = kept


def _join(
    left_attrs: List[str],
    left_rows: List[Row],
    right_attrs: List[str],
    right_rows: List[Row],
    counters: OpCounters,
    admission: Optional[AdmittedQuery],
) -> Tuple[List[str], List[Row]]:
    shared = [a for a in left_attrs if a in right_attrs]
    l_key = [left_attrs.index(a) for a in shared]
    r_key = [right_attrs.index(a) for a in shared]
    extra = [i for i, a in enumerate(right_attrs) if a not in left_attrs]
    table: Dict[Row, List[Row]] = {}
    for row in right_rows:
        counters.comparisons += 1
        if admission is not None:
            admission.tick(counters, "yannakakis")
        table.setdefault(tuple(row[i] for i in r_key), []).append(row)
    out: List[Row] = []
    for row in left_rows:
        counters.comparisons += 1
        if admission is not None:
            admission.tick(counters, "yannakakis")
        key = tuple(row[i] for i in l_key)
        for match in table.get(key, ()):
            out.append(row + tuple(match[i] for i in extra))
    return left_attrs + [right_attrs[i] for i in extra], out


def yannakakis_join(
    query: Query,
    gao: Sequence[str],
    counters: Optional[OpCounters] = None,
    admission: Optional[AdmittedQuery] = None,
) -> List[Row]:
    """Full-reducer + tree join; raises ValueError on cyclic queries.

    Rows come back ascending in ``gao`` order.  ``admission`` (an
    :class:`~repro.core.resilience.AdmittedQuery`) is checked once per
    row of every semijoin and join pass, and once more on the exact
    output size before the final deduplication and sort.
    """
    counters = counters if counters is not None else OpCounters()
    acyclic, parent = gyo_reduction(query.hypergraph())
    if not acyclic:
        raise ValueError("Yannakakis requires an alpha-acyclic query")
    nodes: Dict[str, _Node] = {
        r.name: _Node(r.attributes, r.tuples())
        for r in query.relations
    }
    roots: List[_Node] = []
    for name, node in nodes.items():
        parent_name = parent.get(name)
        if parent_name is None:
            roots.append(node)
        else:
            nodes[parent_name].children.append(node)

    def reduce_up(node: _Node) -> None:
        for child in node.children:
            reduce_up(child)
            _semijoin(node, child, counters, admission)

    def reduce_down(node: _Node) -> None:
        for child in node.children:
            _semijoin(child, node, counters, admission)
            reduce_down(child)

    def join_subtree(node: _Node) -> Tuple[List[str], List[Row]]:
        attrs, rows = list(node.attributes), list(node.rows)
        for child in node.children:
            attrs, rows = _join(
                attrs, rows, *join_subtree(child), counters, admission
            )
        return attrs, rows

    for root in roots:
        reduce_up(root)
        reduce_down(root)
    attrs: List[str] = []
    rows: List[Row] = [()]
    for root in roots:
        attrs, rows = _join(
            attrs, rows, *join_subtree(root), counters, admission
        )
    if admission is not None:
        # The rows are distinct full tuples already: the count is exact.
        admission.check_rows(len(rows))
        admission.check_deadline("yannakakis")
    positions = [attrs.index(a) for a in gao]
    out = sorted({tuple(row[i] for i in positions) for row in rows})
    counters.output_tuples += len(out)
    return out

"""Generic (NPRR-style) worst-case optimal join.

The attribute-at-a-time recursive join of Ngo–Porat–Ré–Rudra: at each GAO
depth, enumerate candidate values from the participating relation with the
*smallest* current fan-out and probe the others — the min-size choice that
yields the AGM-bound worst-case guarantee.  Like LFTJ it is worst-case
optimal but not certificate-adaptive (Appendix J).  It is one of the
planned engines (the planner measures it against the CDS engines on
cyclic queries), so it streams its rows like Minesweeper does.

Probes are counted in ``counters.findgap`` and candidate enumeration in
``counters.comparisons``.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

from repro.core.query import PreparedQuery
from repro.core.resilience import AdmittedQuery
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


def iterate_generic(
    query: PreparedQuery,
    counters: Optional[OpCounters] = None,
    admission: Optional[AdmittedQuery] = None,
) -> Iterator[Row]:
    """Yield the rows of a prepared query by generic join, in GAO order.

    The search enumerates each depth's candidates in ascending order, so
    rows come out distinct and lexicographically sorted, each as soon
    as it is found: a consumer that stops early pays only for the
    search so far.  ``admission`` (an
    :class:`~repro.core.resilience.AdmittedQuery`) is ticked once per
    candidate value, and checked once more on the output size and the
    deadline when the stream ends.
    """
    counters = counters if counters is not None else OpCounters()
    n = len(query.gao)
    relations = query.relations
    tries = [r.index for r in relations]
    #: Per GAO depth: the positions (in ``relations``) of the atoms that
    #: bind that depth's attribute, in relation order.
    parts_at = [
        [
            i
            for i, r in enumerate(relations)
            if depth in query.gao_positions[r.name]
        ]
        for depth in range(n)
    ]
    binding: List[int] = []
    emitted = 0

    def search(depth: int, nodes: List[object]) -> Iterator[Row]:
        nonlocal emitted
        if depth == n:
            emitted += 1
            counters.output_tuples += 1
            yield tuple(binding)
            return
        parts = parts_at[depth]
        key_lists = [tries[i].node_keys(nodes[i]) for i in parts]
        smallest = min(range(len(parts)), key=lambda j: len(key_lists[j]))
        others = [j for j in range(len(parts)) if j != smallest]
        lead = parts[smallest]
        for position, value in enumerate(key_lists[smallest], 1):
            counters.comparisons += 1
            if admission is not None:
                admission.tick(counters, "generic")
            found = []
            for j in others:
                counters.findgap += 1
                keys = key_lists[j]
                k = bisect.bisect_left(keys, value)
                if k >= len(keys) or keys[k] != value:
                    break
                found.append((parts[j], k + 1))
            else:
                next_nodes = list(nodes)
                next_nodes[lead] = tries[lead].child_at(nodes[lead], position)
                for i, k in found:
                    next_nodes[i] = tries[i].child_at(nodes[i], k)
                binding.append(value)
                yield from search(depth + 1, next_nodes)
                binding.pop()

    yield from search(0, [trie.root_handle() for trie in tries])
    if admission is not None:
        admission.check_rows(emitted)
        admission.check_deadline("generic")


def generic_join(
    query: PreparedQuery,
    counters: Optional[OpCounters] = None,
    admission: Optional[AdmittedQuery] = None,
) -> List[Row]:
    """Every row of :func:`iterate_generic`, as a list."""
    return list(iterate_generic(query, counters, admission))

"""Generic (NPRR-style) worst-case optimal join.

The attribute-at-a-time recursive join of Ngo–Porat–Ré–Rudra: at each GAO
depth, enumerate candidate values from the participating relation with the
*smallest* current fan-out and probe the others — the min-size choice that
yields the AGM-bound worst-case guarantee.  Like LFTJ it is worst-case
optimal but not certificate-adaptive (Appendix J).

Probes are counted in ``counters.findgap`` and candidate enumeration in
``counters.comparisons``.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.core.query import PreparedQuery
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


def generic_join(
    query: PreparedQuery,
    counters: Optional[OpCounters] = None,
) -> List[Row]:
    """Evaluate a prepared query with generic join; output in GAO order."""
    counters = counters if counters is not None else OpCounters()
    gao = query.gao
    relations = query.relations
    participation: Dict[str, List[int]] = {
        r.name: list(query.gao_positions[r.name]) for r in relations
    }
    tries = {r.name: r.index for r in relations}
    output: List[Row] = []

    def search(depth: int, binding: List[int], nodes: Dict[str, object]) -> None:
        if depth == len(gao):
            output.append(tuple(binding))
            counters.output_tuples += 1
            return
        parts = [r.name for r in relations if depth in participation[r.name]]
        key_lists = {
            name: tries[name].node_keys(nodes[name]) for name in parts
        }
        smallest = min(parts, key=lambda name: len(key_lists[name]))
        for value in key_lists[smallest]:
            counters.comparisons += 1
            in_all = True
            for name in parts:
                if name == smallest:
                    continue
                counters.findgap += 1
                keys = key_lists[name]
                i = bisect.bisect_left(keys, value)
                if i >= len(keys) or keys[i] != value:
                    in_all = False
                    break
            if not in_all:
                continue
            next_nodes = dict(nodes)
            for name in parts:
                trie = tries[name]
                keys = key_lists[name]
                position = bisect.bisect_left(keys, value) + 1
                child = trie.child_at(nodes[name], position)
                if child is None:
                    next_nodes.pop(name, None)
                else:
                    next_nodes[name] = child
            binding.append(value)
            search(depth + 1, binding, next_nodes)
            binding.pop()

    search(0, [], {r.name: tries[r.name].root_handle() for r in relations})
    return sorted(output)

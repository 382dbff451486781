"""Leapfrog Triejoin (Veldhuizen 2014) — worst-case optimal baseline.

LFTJ walks the GAO one attribute at a time; at each depth the relations
containing that attribute expose sorted iterators over their next trie
level, and a *leapfrog* gallop intersects them: the lagging iterator seeks
(binary search) to the current maximum, round-robin, until all agree.

Worst-case optimal in the AGM bound, but not certificate-adaptive: on the
Appendix J path families it enumerates every dangling partial binding,
ω(|C|) of them (reproduced in benchmark E3).

Seeks are tallied in ``counters.findgap`` (they are exactly the index-probe
currency Minesweeper is charged in) and element comparisons in
``counters.comparisons``.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.core.query import PreparedQuery
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


class _LevelIterator:
    """A sorted-key iterator over one relation's current trie node."""

    __slots__ = ("keys", "position")

    def __init__(self, keys: List[int]) -> None:
        self.keys = keys
        self.position = 0

    def at_end(self) -> bool:
        return self.position >= len(self.keys)

    def key(self) -> int:
        return self.keys[self.position]

    def seek(self, target: int, counters: OpCounters) -> None:
        """Advance to the first key >= target."""
        counters.findgap += 1
        self.position = bisect.bisect_left(
            self.keys, target, self.position
        )


def _leapfrog_intersection(
    iterators: List[_LevelIterator], counters: OpCounters
) -> List[int]:
    """All values present in every iterator (the leapfrog gallop)."""
    if any(it.at_end() for it in iterators):
        return []
    out: List[int] = []
    iterators = sorted(iterators, key=lambda it: it.key())
    p = 0
    max_key = iterators[-1].key()
    while True:
        it = iterators[p]
        if it.at_end():
            return out
        counters.comparisons += 1
        if it.key() == max_key:
            out.append(max_key)
            it.position += 1
            if it.at_end():
                return out
            max_key = it.key()
        else:
            it.seek(max_key, counters)
            if it.at_end():
                return out
            max_key = it.key()
        p = (p + 1) % len(iterators)


def leapfrog_triejoin(
    query: PreparedQuery,
    counters: Optional[OpCounters] = None,
) -> List[Row]:
    """Evaluate a prepared query with LFTJ; output in GAO order."""
    counters = counters if counters is not None else OpCounters()
    gao = query.gao
    relations = query.relations
    # For each relation, the GAO depths at which it participates, in order.
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
        parts = [
            r.name for r in relations if depth in participation[r.name]
        ]
        iterators = {
            name: _LevelIterator(tries[name].node_keys(nodes[name]))
            for name in parts
        }
        values = _leapfrog_intersection(list(iterators.values()), counters)
        for value in values:
            next_nodes = dict(nodes)
            dead = False
            for name in parts:
                trie = tries[name]
                keys = trie.node_keys(nodes[name])
                position = bisect.bisect_left(keys, value) + 1
                child = trie.child_at(nodes[name], position)
                if child is None:
                    # Relation fully bound; it no longer constrains.
                    next_nodes.pop(name, None)
                else:
                    next_nodes[name] = child
            if not dead:
                binding.append(value)
                search(depth + 1, binding, next_nodes)
                binding.pop()

    search(0, [], {r.name: tries[r.name].root_handle() for r in relations})
    return sorted(output)

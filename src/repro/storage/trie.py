"""GAO-consistent search-trie index with ``FindGap`` (paper Section 2.1).

A relation R(A_{s(1)}, ..., A_{s(k)}) whose attributes are listed consistent
with the global attribute order is stored as an *unbounded-fanout search
tree* (paper Figure 3): level j holds, for every distinct prefix of length
j-1, the sorted distinct values of attribute A_{s(j)} under that prefix.

The paper's index interface is reproduced exactly:

* **index tuples** are 1-based: ``R[x1, ..., xj]`` is the xj-th smallest
  value in the set R[x1, ..., x_{j-1}, *];
* coordinates 0 and len+1 are *out-of-range* and denote -inf / +inf
  (conventions (1)-(2));
* ``find_gap(x, a)`` takes an index tuple of length 0 <= j < k and a value
  ``a`` and returns ``(x_minus, x_plus)`` with
  R[(x, x_minus)] <= a <= R[(x, x_plus)], x_minus maximal, x_plus minimal.
  It runs in O(log |R|) via binary search and satisfies
  x_minus == x_plus iff a occurs in R[(x, *)].

This pointer trie is the plain tier's index: one node object per distinct
prefix, nothing cached or flattened, the reference
:class:`repro.storage.flat_trie.FlatTrieRelation` is property-checked
against (and the index behind the ``trie`` ablations).  The
index-tuple methods above come from
:class:`repro.storage.index_tuple.IndexTupleAPI`; this class supplies
the handle API and ``_node_at``.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.storage.index_tuple import IndexTuple, IndexTupleAPI
from repro.util.counters import OpCounters
from repro.util.sentinels import NEG_INF, POS_INF, ExtendedValue


class _TrieNode:
    """One internal node: sorted child values and their subtrees."""

    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.children: List[Optional["_TrieNode"]] = []


class TrieRelation(IndexTupleAPI):
    """An ordered search-trie over a set of k-ary integer tuples.

    Parameters
    ----------
    tuples:
        The relation's tuples (duplicates are collapsed; set semantics).
    arity:
        Number of columns; inferred from data when omitted.
    counters:
        Optional :class:`OpCounters`; ``find_gap`` increments
        ``counters.findgap`` so experiments can count index probes.
    """

    def __init__(
        self,
        tuples: Iterable[Sequence[int]],
        arity: Optional[int] = None,
        counters: Optional[OpCounters] = None,
    ) -> None:
        data = sorted({tuple(t) for t in tuples})
        if data:
            inferred = len(data[0])
            if any(len(t) != inferred for t in data):
                raise ValueError("all tuples must share the same arity")
            if arity is not None and arity != inferred:
                raise ValueError(
                    f"declared arity {arity} != tuple arity {inferred}"
                )
            arity = inferred
        if arity is None:
            raise ValueError("arity required for an empty relation")
        if arity < 1:
            raise ValueError("arity must be >= 1")
        for t in data:
            for v in t:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise TypeError(f"non-integer value {v!r} in tuple {t}")
        self.arity = arity
        self._counters = counters
        self._count = counters is not None and counters.enabled
        self._tuples: List[Tuple[int, ...]] = data
        self._root = self._build(data, depth=0)

    @property
    def counters(self) -> Optional[OpCounters]:
        return self._counters

    @counters.setter
    def counters(self, counters: Optional[OpCounters]) -> None:
        self._counters = counters
        self._count = counters is not None and counters.enabled

    def _build(
        self, block: Sequence[Tuple[int, ...]], depth: int
    ) -> _TrieNode:
        node = _TrieNode()
        is_leaf_level = depth == self.arity - 1
        i, n = 0, len(block)
        while i < n:
            value = block[i][depth]
            j = i
            while j < n and block[j][depth] == value:
                j += 1
            node.keys.append(value)
            if is_leaf_level:
                node.children.append(None)
            else:
                node.children.append(self._build(block[i:j], depth + 1))
            i = j
        return node

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, item: Sequence[int]) -> bool:
        t = tuple(item)
        i = bisect.bisect_left(self._tuples, t)
        return i < len(self._tuples) and self._tuples[i] == t

    def tuples(self) -> List[Tuple[int, ...]]:
        """All tuples in lexicographic (GAO) order."""
        return list(self._tuples)

    def _node_at(self, index_tuple: IndexTuple) -> _TrieNode:
        """The node holding R[index_tuple, *]; indices must be in range."""
        node = self._root
        for depth, x in enumerate(index_tuple):
            if not 1 <= x <= len(node.keys):
                raise IndexError(
                    f"coordinate {x} out of range at depth {depth} "
                    f"(valid 1..{len(node.keys)})"
                )
            child = node.children[x - 1]
            if child is None:
                raise IndexError(
                    f"index tuple {index_tuple} descends past arity "
                    f"{self.arity}"
                )
            node = child
        return node

    # ------------------------------------------------------------------
    # Handle API (the same one FlatTrieRelation offers): a handle is the
    # node object itself.
    # ------------------------------------------------------------------

    def root_handle(self) -> _TrieNode:
        """Handle to the root node."""
        return self._root

    @staticmethod
    def node_keys(node: _TrieNode) -> List[int]:
        """The node's sorted child values.  Treat as read-only."""
        return node.keys

    @staticmethod
    def fanout_at(node: _TrieNode) -> int:
        """Number of child values of the node behind the handle."""
        return len(node.keys)

    @staticmethod
    def value_at(node: _TrieNode, position: int) -> ExtendedValue:
        """The 1-based ``position``-th child value; 0 / fanout+1 -> ±inf."""
        keys = node.keys
        if position == 0:
            return NEG_INF
        if position == len(keys) + 1:
            return POS_INF
        if not 1 <= position <= len(keys):
            raise IndexError(
                f"position {position} out of range (valid 0..{len(keys) + 1})"
            )
        return keys[position - 1]

    @staticmethod
    def child_at(node: _TrieNode, position: int) -> Optional[_TrieNode]:
        """Handle of the subtree under the ``position``-th child value.

        Returns None at the leaf level; ``position`` must be in range.
        """
        if not 1 <= position <= len(node.keys):
            raise IndexError(
                f"position {position} out of range (valid 1..{len(node.keys)})"
            )
        return node.children[position - 1]

    def gap_at(self, node: _TrieNode, a: int) -> Tuple[int, int]:
        """``find_gap`` against the node behind a handle (no root re-walk)."""
        if self._count:
            self._counters.findgap += 1
        keys = node.keys
        i = bisect.bisect_left(keys, a)
        if i < len(keys) and keys[i] == a:
            return (i + 1, i + 1)
        return (i, i + 1)

"""CSR-backed search-trie index: flat arrays instead of pointer nodes.

A drop-in replacement for :class:`repro.storage.trie.TrieRelation` that
stores the paper's unbounded-fanout search tree (Section 2.1, Figure 3) in
*compressed sparse row* form: one contiguous ``values`` array per level
holding every distinct prefix-extension in global lexicographic order, and
one ``offsets`` array per level mapping each level-(j-1) entry to the span
of its children in level j.  Built once from the sorted tuple set.  An
index is mutated only as a :class:`~repro.storage.delta.DeltaRelation`'s
own view (:meth:`FlatTrieRelation.splice_insert` /
:meth:`~FlatTrieRelation.splice_delete` patch the arrays in place), never
as a caller's index.

Why: the pointer trie allocates one Python object (plus two list objects)
per distinct prefix.  Here a *node* is three integers ``(level, lo, hi)`` —
the half-open span of its child values — so navigation is integer
arithmetic on preallocated lists and ``gap_at`` is a single bounded
``bisect_left``.

This is the fast tier's index.  Engines hold *handles* (``root_handle`` /
``gap_at`` / ``value_at`` / ``child_at`` / ``fanout_at`` / ``node_keys``)
and descend level by level without re-walking from the root; the paper's
index-tuple API (``find_gap`` / ``value`` / ``fanout`` / …) comes from
:class:`repro.storage.index_tuple.IndexTupleAPI` over those handles and
``_node_at``, the same code ``TrieRelation`` and ``DeltaRelation`` use;
equivalence with the pointer trie is property-checked in
``tests/test_flat_trie.py``.
"""

from __future__ import annotations

import bisect
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.storage.index_tuple import IndexTuple, IndexTupleAPI
from repro.util.counters import OpCounters
from repro.util.sentinels import NEG_INF, POS_INF, ExtendedValue

#: A flat-trie node handle: (level, lo, hi) — the node's sorted child
#: values are ``values[level][lo:hi]``.
NodeHandle = Tuple[int, int, int]


class FlatTrieRelation(IndexTupleAPI):
    """An ordered CSR search-trie over a set of k-ary integer tuples.

    Parameters mirror :class:`repro.storage.trie.TrieRelation`:

    tuples:
        The relation's tuples (duplicates collapsed; set semantics).
    arity:
        Number of columns; inferred from data when omitted.
    counters:
        Optional :class:`OpCounters`; ``find_gap`` / ``gap_at`` increment
        ``counters.findgap`` when the counters are enabled.
    """

    __slots__ = ("arity", "_counters", "_count", "_tuples", "_vals", "_offs")

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
        # _vals[j]: all level-j values (one per distinct (j+1)-prefix), in
        # lexicographic order.  _offs[j] (j >= 1): span boundaries in
        # _vals[j] per level-(j-1) entry; _offs[0] is the root's span.
        vals: List[List[int]] = []
        offs: List[List[int]] = []
        for d in range(arity):
            vals_d: List[int] = []
            off_d: List[int] = [0]
            last_pfx: Optional[Tuple[int, ...]] = None
            last_ext: Optional[Tuple[int, ...]] = None
            have = False
            for t in data:
                pfx = t[:d]
                ext = t[: d + 1]
                if have and pfx != last_pfx:
                    off_d.append(len(vals_d))
                if not have or ext != last_ext:
                    vals_d.append(t[d])
                last_pfx, last_ext, have = pfx, ext, True
            off_d.append(len(vals_d))
            vals.append(vals_d)
            offs.append(off_d)
        self._vals = vals
        self._offs = offs

    # ------------------------------------------------------------------
    # In-place splices: the arrays a fresh build over the patched tuple
    # set would produce, at one bisect per level plus C-level list
    # insert / del and one offset shift per touched level.  No op is
    # tallied.  Only a DeltaRelation's private view is ever spliced.
    # ------------------------------------------------------------------

    def splice_budget(self) -> int:
        """How many splices cost less than one rebuild of this index.

        In units of one offset entry shifted in Python (CPython 3.11,
        EXPERIMENTS.md §2 "Splice or rebuild"): a rebuild costs about 32
        per tuple per level; a splice shifts up to every offset entry,
        moves the tuple and value lists in C (about 1 per 32 tuples) and
        pays a fixed 64.  So a batch into a relation whose offset arrays
        are short (few distinct prefixes) splices, and a large batch
        into a high-fanout one (arity 3, about one offset entry per
        tuple) rebuilds.
        """
        n = len(self._tuples)
        cost = sum(map(len, self._offs)) + n // 32 + 64
        return 32 * self.arity * n // cost

    def copy(self) -> "FlatTrieRelation":
        """An array-for-array copy (no re-sort, no rebuild)."""
        clone = FlatTrieRelation.__new__(FlatTrieRelation)
        clone.arity = self.arity
        clone.counters = self._counters
        clone._tuples = self._tuples[:]
        clone._vals = [v[:] for v in self._vals]
        clone._offs = [o[:] for o in self._offs]
        return clone

    def splice_insert(self, t: Tuple[int, ...]) -> None:
        """Add tuple ``t`` (a no-op when present)."""
        tuples = self._tuples
        i = bisect.bisect_left(tuples, t)
        if i < len(tuples) and tuples[i] == t:
            return
        vals, offs, arity = self._vals, self._offs, self.arity
        if not tuples:
            # The builder pads an empty index's offsets to [0, 0].
            for off in offs[1:]:
                del off[1:]
        tuples.insert(i, t)
        # Descend through the prefix t already shares with the index.
        lo, hi, parent, d = 0, len(vals[0]), 0, 0
        while True:
            vd = vals[d]
            j = bisect.bisect_left(vd, t[d], lo, hi)
            if j == hi or vd[j] != t[d]:
                break
            lo, hi = offs[d + 1][j], offs[d + 1][j + 1]
            parent, d = j, d + 1
        # Levels d.. gain one entry each: at position j under ``parent``,
        # whose span (and every later one) grows by one.
        for e in range(d, arity):
            vals[e].insert(j, t[e])
            off = offs[e]
            off[parent + 1:] = [x + 1 for x in off[parent + 1:]]
            if e + 1 < arity:
                below = offs[e + 1]
                start = below[j]
                below.insert(j + 1, start)  # the new entry: empty span
                parent, j = j, start

    def splice_delete(self, t: Tuple[int, ...]) -> None:
        """Remove tuple ``t`` (a no-op when absent)."""
        tuples = self._tuples
        i = bisect.bisect_left(tuples, t)
        if i == len(tuples) or tuples[i] != t:
            return
        del tuples[i]
        vals, offs, arity = self._vals, self._offs, self.arity
        # Per level: (parent entry, t's entry, the parent's fanout).
        path: List[Tuple[int, int, int]] = []
        lo, hi, parent = 0, len(vals[0]), 0
        for d in range(arity):
            j = bisect.bisect_left(vals[d], t[d], lo, hi)
            path.append((parent, j, hi - lo))
            if d + 1 < arity:
                lo, hi = offs[d + 1][j], offs[d + 1][j + 1]
            parent = j
        # Drop entries leaf-up while each one was its parent's only child.
        for e in range(arity - 1, -1, -1):
            parent, j, fanout = path[e]
            del vals[e][j]
            off = offs[e]
            off[parent + 1:] = [x - 1 for x in off[parent + 1:]]
            if e + 1 < arity:
                del offs[e + 1][j + 1]  # its span is empty by now
            if fanout > 1:
                break
        if not tuples:
            for off in offs[1:]:
                off.append(0)

    # ------------------------------------------------------------------
    # Counters plumbing (the enabled flag is cached for the hot path)
    # ------------------------------------------------------------------

    @property
    def counters(self) -> Optional[OpCounters]:
        return self._counters

    @counters.setter
    def counters(self, counters: Optional[OpCounters]) -> None:
        self._counters = counters
        self._count = counters is not None and counters.enabled

    # ------------------------------------------------------------------
    # Basic accessors (TrieRelation parity)
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

    def _node_at(self, index_tuple: IndexTuple) -> NodeHandle:
        """Handle of the node R[index_tuple, *]; validates indices."""
        lo, hi = 0, len(self._vals[0])
        level = 0
        for depth, x in enumerate(index_tuple):
            if not 1 <= x <= hi - lo:
                raise IndexError(
                    f"coordinate {x} out of range at depth {depth} "
                    f"(valid 1..{hi - lo})"
                )
            if depth + 1 >= self.arity:
                raise IndexError(
                    f"index tuple {index_tuple} descends past arity "
                    f"{self.arity}"
                )
            entry = lo + x - 1
            off = self._offs[depth + 1]
            lo, hi = off[entry], off[entry + 1]
            level = depth + 1
        return level, lo, hi

    # ------------------------------------------------------------------
    # Handle API: engines descend level by level, no root re-walk
    # ------------------------------------------------------------------

    def root_handle(self) -> NodeHandle:
        """Handle to the root node (span of the level-0 values)."""
        return (0, 0, len(self._vals[0]))

    def node_keys(self, node: NodeHandle) -> List[int]:
        """The node's sorted child values."""
        level, lo, hi = node
        return self._vals[level][lo:hi]

    def fanout_at(self, node: NodeHandle) -> int:
        """Number of child values of the node behind ``node``."""
        return node[2] - node[1]

    def value_at(self, node: NodeHandle, position: int) -> ExtendedValue:
        """The 1-based ``position``-th child value; 0 / fanout+1 -> ±inf."""
        level, lo, hi = node
        if position == 0:
            return NEG_INF
        if position == hi - lo + 1:
            return POS_INF
        if not 1 <= position <= hi - lo:
            raise IndexError(
                f"position {position} out of range (valid 0..{hi - lo + 1})"
            )
        return self._vals[level][lo + position - 1]

    def child_at(self, node: NodeHandle, position: int) -> Optional[NodeHandle]:
        """Handle of the subtree under the ``position``-th child value.

        Returns None at the leaf level; ``position`` must be in range.
        """
        level, lo, hi = node
        if not 1 <= position <= hi - lo:
            raise IndexError(
                f"position {position} out of range (valid 1..{hi - lo})"
            )
        if level + 1 >= self.arity:
            return None
        off = self._offs[level + 1]
        entry = lo + position - 1
        return (level + 1, off[entry], off[entry + 1])

    def gap_at(self, node: NodeHandle, a: int) -> Tuple[int, int]:
        """``find_gap`` against the node behind ``node`` (no root re-walk)."""
        level, lo, hi = node
        if self._count:
            self._counters.findgap += 1
        vals = self._vals[level]
        i = bisect.bisect_left(vals, a, lo, hi)
        if i < hi and vals[i] == a:
            x = i - lo + 1
            return (x, x)
        x = i - lo
        return (x, x + 1)

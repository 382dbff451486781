"""Writable relation: one owned FlatTrie, spliced at write time.

:class:`DeltaRelation` makes the paper's (static) index model *writable*
without giving up the index-tuple / handle interface every engine in this
library is written against.  The paper's cost model needs nothing but a
sorted, GAO-consistent index with ``FindGap`` (§2), so the relation *is*
one :class:`~repro.storage.flat_trie.FlatTrieRelation` — its **view** —
and every read-side method (``find_gap``, ``value`` /
``child_values``, the handle API, ``tuples`` …) is the flat backend's,
byte-for-byte: Minesweeper, the probe strategies and the baselines run
on a ``DeltaRelation`` unchanged.

Writes patch the view in place before they return
(:meth:`FlatTrieRelation.splice_insert` / ``splice_delete``: a
``bisect`` per trie level, C-level list insert / del and one
offset-array shift per touched level), unless the batch is longer than
:meth:`FlatTrieRelation.splice_budget` — the splices would cost more
than one rebuild — in which case the write rebuilds the view once from
(view tuples − deletes) ∪ inserts.  So small batches into a large
relation never rebuild it, a large batch costs one rebuild, and reads
never mutate anything: concurrent readers under a shared lock see a
finished view.  A ``FlatTrieRelation`` adopted at construction is the
caller's index, so the first splice copies it once instead of patching
it.  ``stats()["view_builds"]`` counts rebuilds and copies.

Do not mutate the relation while an engine is iterating over it: node
handles are stamped with the relation's *generation* (bumped on every
effective write), and reading through a handle issued before a write
raises :class:`StaleHandleError` (a ``RuntimeError``) instead of
silently reading arrays the write has since spliced.

``tests/test_delta_relation.py`` property-checks that after *any* random
insert / delete sequence the relation is tuple- and handle-API-equivalent
to a ``FlatTrieRelation`` built from scratch, and its view
array-for-array equal to one as soon as the write returns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.storage.flat_trie import FlatTrieRelation, NodeHandle
from repro.storage.index_tuple import IndexTuple, IndexTupleAPI
from repro.util.counters import OpCounters
from repro.util.sentinels import ExtendedValue

Row = Tuple[int, ...]
#: A DeltaRelation node handle: the inner FlatTrie handle stamped with
#: the generation it was issued at (see the handle API below).
DeltaHandle = Tuple[int, NodeHandle]


class StaleHandleError(RuntimeError):
    """A node handle issued before a mutation was used after it."""


class DeltaRelation(IndexTupleAPI):
    """A writable ordered trie index over k-ary integer tuples.

    Parameters
    ----------
    tuples:
        Initial contents (duplicates collapsed; set semantics).  An
        existing :class:`FlatTrieRelation` is adopted as the view
        without copying or rebuilding (the first write copies it).
    arity:
        Number of columns; inferred from the initial data when omitted
        (required for an initially empty relation).
    counters:
        Optional :class:`OpCounters` threaded into the view, so probes
        against a ``DeltaRelation`` tally exactly like probes against
        the static backends.
    """

    def __init__(
        self,
        tuples: Iterable[Sequence[int]] = (),
        arity: Optional[int] = None,
        counters: Optional[OpCounters] = None,
    ) -> None:
        if isinstance(tuples, FlatTrieRelation):
            view = tuples
            if arity is not None and arity != view.arity:
                raise ValueError(
                    f"declared arity {arity} != index arity {view.arity}"
                )
            if counters is None:
                counters = view.counters  # inherit, don't clobber
            else:
                view.counters = counters
        else:
            view = FlatTrieRelation(tuples, arity=arity, counters=counters)
        self.arity: int = view.arity
        self._counters = counters
        #: Bumped on every effective write; node handles carry the
        #: generation they were issued under, and reads through an older
        #: one raise.
        self._generation = 0
        self._view = view
        #: The view is the caller's index: copy it before a splice.
        self._view_shared = view is tuples
        self._stats = {"inserts": 0, "deletes": 0, "view_builds": 0}

    # ------------------------------------------------------------------
    # Counters plumbing (mirrors the static backends)
    # ------------------------------------------------------------------

    @property
    def counters(self) -> Optional[OpCounters]:
        return self._counters

    @counters.setter
    def counters(self, counters: Optional[OpCounters]) -> None:
        self._counters = counters
        self._view.counters = counters

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _validate(self, row: Sequence[int]) -> Row:
        t = tuple(row)
        if len(t) != self.arity:
            raise ValueError(
                f"tuple {t} does not match arity {self.arity}"
            )
        for v in t:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"non-integer value {v!r} in tuple {t}")
        return t

    def insert(self, row: Sequence[int]) -> bool:
        """Add a tuple; returns True iff it was not already present."""
        t = self._validate(row)
        if t in self._view:
            return False
        self.apply_effective([t], [])
        return True

    def delete(self, row: Sequence[int]) -> bool:
        """Remove a tuple; returns True iff it was present."""
        t = self._validate(row)
        if t not in self._view:
            return False
        self.apply_effective([], [t])
        return True

    def effective_delta(
        self,
        inserts: Iterable[Sequence[int]],
        deletes: Iterable[Sequence[int]],
    ) -> Tuple[List[Row], List[Row]]:
        """The sub-batch that would actually change the relation.

        Pure peek — nothing is applied.  Returns ``(ins, dels)`` where
        ``ins`` are the requested inserts not currently present and
        ``dels`` the requested deletes currently present, each
        deduplicated in first-appearance order.  A tuple appearing on
        both sides is rejected (net the batch first — last write wins).
        """
        ins = [self._validate(r) for r in inserts]
        dels = [self._validate(r) for r in deletes]
        overlap = set(ins) & set(dels)
        if overlap:
            raise ValueError(
                f"tuples {sorted(overlap)} appear as both insert and "
                "delete; net the batch first (last write wins)"
            )
        view = self._view
        eff_ins: List[Row] = []
        seen: set = set()
        for t in ins:
            if t not in seen and t not in view:
                seen.add(t)
                eff_ins.append(t)
        eff_del: List[Row] = []
        seen.clear()
        for t in dels:
            if t not in seen and t in view:
                seen.add(t)
                eff_del.append(t)
        return eff_ins, eff_del

    def apply(
        self,
        inserts: Iterable[Sequence[int]] = (),
        deletes: Iterable[Sequence[int]] = (),
    ) -> Tuple[List[Row], List[Row]]:
        """Apply a batch; returns the effective ``(inserts, deletes)``."""
        eff_ins, eff_del = self.effective_delta(inserts, deletes)
        self.apply_effective(eff_ins, eff_del)
        return eff_ins, eff_del

    def apply_effective(
        self, eff_ins: Sequence[Row], eff_del: Sequence[Row]
    ) -> None:
        """Write a pre-filtered batch into the view before returning.

        ``eff_ins`` / ``eff_del`` must be exactly the output of
        :meth:`effective_delta` against the current state (the caller —
        e.g. the catalog's delta-rule orchestration — has already paid
        for the membership checks; re-filtering here would double the
        write path's probe cost).  Splices the batch into the view, or
        rebuilds the view once when the batch is past its splice budget.
        """
        if not eff_ins and not eff_del:
            return
        view = self._view
        if len(eff_ins) + len(eff_del) > view.splice_budget():
            live = set(view.tuples())
            live.difference_update(eff_del)
            live.update(eff_ins)
            self._view = FlatTrieRelation(
                live, arity=self.arity, counters=self._counters
            )
            self._view_shared = False
            self._stats["view_builds"] += 1
        else:
            if self._view_shared:
                view = self._view = view.copy()
                self._view_shared = False
                self._stats["view_builds"] += 1
            for t in eff_del:
                view.splice_delete(t)
            for t in eff_ins:
                view.splice_insert(t)
        self._generation += 1
        self._stats["inserts"] += len(eff_ins)
        self._stats["deletes"] += len(eff_del)

    def stats(self) -> Dict[str, int]:
        """Lifetime write counts and view builds.

        ``runs`` is 1 for a non-empty relation and 0 for an empty one
        (the relation is one index); the perf ledger's
        ``storage.runs_after`` reads it.
        """
        return {"runs": int(len(self._view) > 0), **self._stats}

    # ------------------------------------------------------------------
    # Trie API (FlatTrieRelation parity, via the view)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._view)

    def __contains__(self, item: Sequence[int]) -> bool:
        return item in self._view

    def tuples(self) -> List[Row]:
        """All live tuples in lexicographic (GAO) order."""
        return self._view.tuples()

    # Handle API (the index-tuple API comes from IndexTupleAPI over it)
    #
    # Handles are opaque to every engine, so a DeltaRelation handle is
    # ``(generation, inner_flat_trie_handle)``: issuing stamps the
    # current generation, and every read through a handle checks the
    # stamp first.  A write bumps the generation, turning all previously
    # issued handles into loud errors instead of coordinates into arrays
    # the write has since spliced.

    def _wrap(
        self, inner: Optional[NodeHandle]
    ) -> Optional[DeltaHandle]:
        return None if inner is None else (self._generation, inner)

    def _unwrap(self, node: DeltaHandle) -> NodeHandle:
        generation, inner = node
        if generation != self._generation:
            raise StaleHandleError(
                f"node handle from generation {generation} used at "
                f"generation {self._generation}; handles do not survive "
                "insert/delete — re-acquire from root_handle()"
            )
        return inner

    def _node_at(self, index_tuple: IndexTuple) -> DeltaHandle:
        return (self._generation, self._view._node_at(index_tuple))

    def root_handle(self) -> DeltaHandle:
        return (self._generation, self._view.root_handle())

    def node_keys(self, node: DeltaHandle) -> List[int]:
        return self._view.node_keys(self._unwrap(node))

    def fanout_at(self, node: DeltaHandle) -> int:
        return self._view.fanout_at(self._unwrap(node))

    def value_at(self, node: DeltaHandle, position: int) -> ExtendedValue:
        return self._view.value_at(self._unwrap(node), position)

    def child_at(
        self, node: DeltaHandle, position: int
    ) -> Optional[DeltaHandle]:
        return self._wrap(self._view.child_at(self._unwrap(node), position))

    def gap_at(self, node: DeltaHandle, a: int) -> Tuple[int, int]:
        return self._view.gap_at(self._unwrap(node), a)

    def __repr__(self) -> str:
        return f"DeltaRelation(arity={self.arity}, {len(self)} live)"

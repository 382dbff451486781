"""LSM-style writable relation: sorted memtable + immutable FlatTrie runs.

:class:`DeltaRelation` makes the paper's (static) index model *writable*
without giving up the index-tuple / handle interface every engine in this
library is written against.  The layout is a miniature log-structured
merge tree:

* **memtable** — an in-memory staging area absorbing writes (sorted when
  sealed); each entry is either a live insert or a *tombstone* (a
  recorded delete that shadows older data);
* **runs** — a stack of immutable sealed memtables, each holding its live
  inserts as a CSR :class:`~repro.storage.flat_trie.FlatTrieRelation`
  plus its tombstone set.  Newer runs shadow older ones;
* :meth:`flush` seals the memtable into a new run; :meth:`compact`
  merges the whole run stack (tombstones annihilate the tuples they
  shadow) into a single fresh ``FlatTrieRelation`` run with no
  tombstones.

Reads resolve through a merged **view** — itself a ``FlatTrieRelation``
over the current live tuple set, brought current at the first read after
a write by splicing the queued writes into its arrays — so every
read-side method (``find_gap``,
``value`` / ``child_values``, the handle API, ``tuples`` …)
behaves byte-for-byte like the static flat backend, and Minesweeper, the
probe strategies, and the baselines run on a ``DeltaRelation`` unchanged.
Do not mutate the relation while an engine is iterating over it: node
handles are stamped with the relation's *generation* (bumped on every
insert / delete), and reading through a handle issued before a mutation
raises :class:`StaleHandleError` (a ``RuntimeError``) instead of
silently reading arrays the mutation has since spliced.

Cost model: a write is O(1) on top of the memtable — it appends to a
queue of writes the view has not seen — and *probes* stay delta-bound
(the subsystem's currency — FindGap / probe counts).  The first read
after writes splices the queue into the view — a ``bisect`` per trie
level, C-level list insert / del and one offset-array shift per touched
level (:meth:`FlatTrieRelation.splice_insert` / ``splice_delete``) —
unless the queue outgrew :meth:`FlatTrieRelation.splice_budget` (the
splices would cost more than one rebuild), in which case the write that
overflowed it dropped the view and the read rebuilds it from the LSM
layout (``_merged_live``), as it does after
:meth:`DeltaRelation.restore`.  So small batches into a large relation
never rebuild it, and a write-only stretch (WAL replay, a large batch)
costs at most one rebuild.  Sealed runs and a ``FlatTrieRelation``
adopted at construction are never spliced: while the view *is* such an
index (at construction, after :meth:`~DeltaRelation.compact`), the next
splice first copies it once.  ``stats()["view_builds"]`` counts builds
and copies.

``tests/test_delta_relation.py`` property-checks that after *any* random
insert / delete / flush / compact / restore sequence the relation is
tuple- and handle-API-equivalent to a ``FlatTrieRelation`` built from
scratch, and its spliced view array-for-array equal to one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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


class _Run:
    """One immutable sealed memtable: live inserts + tombstones."""

    __slots__ = ("trie", "tombstones")

    def __init__(
        self, trie: FlatTrieRelation, tombstones: FrozenSet[Row]
    ) -> None:
        self.trie = trie
        self.tombstones = tombstones

    def __len__(self) -> int:
        return len(self.trie) + len(self.tombstones)


class DeltaRelation(IndexTupleAPI):
    """A writable ordered trie index over k-ary integer tuples.

    Parameters
    ----------
    tuples:
        Initial contents (duplicates collapsed; set semantics).  Loaded
        directly into the first run, not the memtable.  An existing
        :class:`FlatTrieRelation` is adopted as the first run without
        copying or rebuilding.
    arity:
        Number of columns; inferred from the initial data when omitted
        (required for an initially empty relation).
    counters:
        Optional :class:`OpCounters` threaded into the read view, so
        probes against a ``DeltaRelation`` tally exactly like probes
        against the static backends.
    memtable_limit:
        When set, the memtable auto-flushes into a run once it reaches
        this many entries (inserts + tombstones).  ``None`` = manual.
    """

    def __init__(
        self,
        tuples: Iterable[Sequence[int]] = (),
        arity: Optional[int] = None,
        counters: Optional[OpCounters] = None,
        memtable_limit: Optional[int] = None,
    ) -> None:
        if isinstance(tuples, FlatTrieRelation):
            base = tuples
            if arity is not None and arity != base.arity:
                raise ValueError(
                    f"declared arity {arity} != index arity {base.arity}"
                )
            if counters is None:
                counters = base.counters  # inherit, don't clobber
            else:
                base.counters = counters
        else:
            base = FlatTrieRelation(tuples, arity=arity, counters=counters)
        self.arity: int = base.arity
        self._counters = counters
        if memtable_limit is not None and memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        self.memtable_limit = memtable_limit
        #: newest state per key written since the last flush
        #: (True = live insert, False = tombstone).
        self._memtable: Dict[Row, bool] = {}
        #: Bumped on every mutation; node handles carry the generation
        #: they were issued under, and reads through an older one raise.
        self._generation = 0
        self._runs: List[_Run] = []
        if len(base):
            self._runs.append(_Run(base, frozenset()))
        #: The current read view; None after a write until the next read.
        self._view_cache: Optional[FlatTrieRelation] = base
        #: The view a write left behind, and the writes it has not seen
        #: (at most ``_splice_budget`` of them; past that it is dropped).
        self._stale_view: Optional[FlatTrieRelation] = None
        self._pending: List[Tuple[Row, bool]] = []
        self._splice_budget = 0
        #: The view is also a run or the caller's index: copy before a
        #: splice.
        self._view_shared = base is tuples or bool(self._runs)
        self._stats = {
            "inserts": 0,
            "deletes": 0,
            "flushes": 0,
            "compactions": 0,
            "view_builds": 0,
        }

    # ------------------------------------------------------------------
    # Counters plumbing (mirrors the static backends)
    # ------------------------------------------------------------------

    @property
    def counters(self) -> Optional[OpCounters]:
        return self._counters

    @counters.setter
    def counters(self, counters: Optional[OpCounters]) -> None:
        self._counters = counters
        if self._view_cache is not None:
            self._view_cache.counters = counters

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

    def _write(self, t: Row, live: bool) -> None:
        self._memtable[t] = live
        view = self._view_cache
        if view is not None:
            self._view_cache = None
            self._stale_view = view
            self._splice_budget = view.splice_budget()
        if self._stale_view is not None:
            self._pending.append((t, live))
            if len(self._pending) > self._splice_budget:
                # One rebuild at the next read is now the cheaper way.
                self._stale_view = None
                self._pending = []
        self._generation += 1
        self._stats["inserts" if live else "deletes"] += 1

    def _maybe_autoflush(self) -> None:
        if (
            self.memtable_limit is not None
            and len(self._memtable) >= self.memtable_limit
        ):
            self.flush()

    def insert(self, row: Sequence[int]) -> bool:
        """Add a tuple; returns True iff it was not already present."""
        t = self._validate(row)
        if t in self:
            return False
        self._write(t, True)
        self._maybe_autoflush()
        return True

    def delete(self, row: Sequence[int]) -> bool:
        """Remove a tuple (tombstone); returns True iff it was present."""
        t = self._validate(row)
        if t not in self:
            return False
        self._write(t, False)
        self._maybe_autoflush()
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
        eff_ins: List[Row] = []
        seen: set = set()
        for t in ins:
            if t not in seen and t not in self:
                seen.add(t)
                eff_ins.append(t)
        eff_del: List[Row] = []
        seen.clear()
        for t in dels:
            if t not in seen and t in self:
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
        """Write a pre-filtered batch without re-checking effectiveness.

        ``eff_ins`` / ``eff_del`` must be exactly the output of
        :meth:`effective_delta` against the current state (the caller —
        e.g. the catalog's delta-rule orchestration — has already paid
        for the membership checks; re-filtering here would double the
        write path's probe cost).
        """
        for t in eff_del:
            self._write(t, False)
        for t in eff_ins:
            self._write(t, True)
        self._maybe_autoflush()

    def flush(self) -> bool:
        """Seal the memtable into a new immutable run.

        The run keeps the memtable's live inserts as a fresh CSR
        ``FlatTrieRelation`` and its tombstones as a set (they keep
        shadowing older runs until :meth:`compact`).  Logical contents
        are unchanged, so a cached read view stays valid.  Returns True
        iff there was anything to seal.
        """
        if not self._memtable:
            return False
        live = sorted(
            t for t, is_live in self._memtable.items() if is_live
        )
        tombs = frozenset(
            t for t, is_live in self._memtable.items() if not is_live
        )
        self._runs.append(
            _Run(FlatTrieRelation(live, arity=self.arity), tombs)
        )
        self._memtable = {}
        self._stats["flushes"] += 1
        return True

    def compact(self) -> bool:
        """Merge memtable + all runs into one tombstone-free run.

        The read view becomes the single run (the next splice copies
        it first).  Returns True iff the run stack actually
        shrank or held tombstones.
        """
        self.flush()
        worthwhile = len(self._runs) > 1 or any(
            run.tombstones for run in self._runs
        )
        merged = self._view()
        self._runs = []
        if len(merged):
            self._runs.append(_Run(merged, frozenset()))
            self._view_shared = True
        if worthwhile:
            self._stats["compactions"] += 1
        return worthwhile

    def stats(self) -> Dict[str, int]:
        """LSM bookkeeping: memtable/run sizes and lifetime op counts."""
        return {
            "memtable": len(self._memtable),
            "runs": len(self._runs),
            "run_tuples": sum(len(r.trie) for r in self._runs),
            "tombstones": sum(len(r.tombstones) for r in self._runs),
            **self._stats,
        }

    # ------------------------------------------------------------------
    # Persistence (snapshot/restore of the exact LSM layout)
    # ------------------------------------------------------------------

    def run_states(self) -> List[Tuple[List[Row], List[Row]]]:
        """Per-run ``(rows, tombstones)``, oldest run first, sorted."""
        return [
            (run.trie.tuples(), sorted(run.tombstones))
            for run in self._runs
        ]

    def memtable_state(self) -> List[Tuple[Row, bool]]:
        """Memtable entries as ``(row, live)`` in insertion order."""
        return list(self._memtable.items())

    @classmethod
    def restore(
        cls,
        arity: int,
        runs: Iterable[Tuple[Iterable[Row], Iterable[Row]]],
        memtable: Iterable[Tuple[Row, bool]] = (),
        counters: Optional[OpCounters] = None,
        memtable_limit: Optional[int] = None,
    ) -> "DeltaRelation":
        """Rebuild a relation from :meth:`run_states` + :meth:`memtable_state`.

        Restores the exact LSM layout (run boundaries, tombstones, and
        pending memtable entries), not just the merged live tuple set —
        so a recovered catalog's storage stats and subsequent
        flush/compact behaviour match the snapshotted original.
        Restoring never auto-flushes, even past ``memtable_limit``.
        """
        self = cls((), arity=arity, counters=counters,
                   memtable_limit=memtable_limit)
        for rows, tombstones in runs:
            self._runs.append(
                _Run(
                    FlatTrieRelation(rows, arity=arity),
                    frozenset(tuple(t) for t in tombstones),
                )
            )
        for row, live in memtable:
            self._memtable[tuple(row)] = bool(live)
        self._view_cache = None
        return self

    # ------------------------------------------------------------------
    # Read path: the merged view
    # ------------------------------------------------------------------

    def _merged_live(self) -> List[Row]:
        """Current live tuples: newest source wins, tombstones shadow."""
        decided: Dict[Row, bool] = dict(self._memtable)
        setdefault = decided.setdefault
        for run in reversed(self._runs):
            for t in run.tombstones:
                setdefault(t, False)
            for t in run.trie.tuples():
                setdefault(t, True)
        return sorted(t for t, live in decided.items() if live)

    def _view(self) -> FlatTrieRelation:
        """The merged read view, brought current after writes."""
        view = self._view_cache
        if view is None:
            view = self._view_cache = self._refresh_view()
        return view

    def _refresh_view(self) -> FlatTrieRelation:
        """Splice the queued writes into the stale view, or build one."""
        view = self._stale_view
        if view is not None:
            if self._view_shared:
                view = view.copy()
                self._view_shared = False
                self._stats["view_builds"] += 1
            for t, live in self._pending:
                if live:
                    view.splice_insert(t)
                else:
                    view.splice_delete(t)
            self._stale_view, self._pending = None, []
            view.counters = self._counters
            return view
        self._view_shared = (
            not self._memtable
            and len(self._runs) == 1
            and not self._runs[0].tombstones
        )
        if self._view_shared:
            view = self._runs[0].trie
            view.counters = self._counters
            return view
        self._stats["view_builds"] += 1
        return FlatTrieRelation(
            self._merged_live(), arity=self.arity, counters=self._counters
        )

    # ------------------------------------------------------------------
    # Trie API (FlatTrieRelation parity, via the view)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._view())

    def __contains__(self, item: Sequence[int]) -> bool:
        # Resolved against the LSM structure directly (no view rebuild):
        # memtable first, then runs newest to oldest.
        t = tuple(item)
        if t in self._memtable:
            return self._memtable[t]
        for run in reversed(self._runs):
            if t in run.tombstones:
                return False
            if t in run.trie:
                return True
        return False

    def tuples(self) -> List[Row]:
        """All live tuples in lexicographic (GAO) order."""
        return self._view().tuples()

    # Handle API (the index-tuple API comes from IndexTupleAPI over it)
    #
    # Handles are opaque to every engine, so a DeltaRelation handle is
    # ``(generation, inner_flat_trie_handle)``: issuing stamps the
    # current generation, and every read through a handle checks the
    # stamp first.  A mutation (insert / delete) bumps the generation,
    # turning all previously issued handles into loud errors instead of
    # coordinates into arrays the write has since spliced.  flush() /
    # compact() keep the logical contents AND the cached view object,
    # so they do not invalidate handles.

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
        return (self._generation, self._view()._node_at(index_tuple))

    def root_handle(self) -> DeltaHandle:
        return (self._generation, self._view().root_handle())

    def node_keys(self, node: DeltaHandle) -> List[int]:
        return self._view().node_keys(self._unwrap(node))

    def fanout_at(self, node: DeltaHandle) -> int:
        return self._view().fanout_at(self._unwrap(node))

    def value_at(self, node: DeltaHandle, position: int) -> ExtendedValue:
        return self._view().value_at(self._unwrap(node), position)

    def child_at(
        self, node: DeltaHandle, position: int
    ) -> Optional[DeltaHandle]:
        return self._wrap(self._view().child_at(self._unwrap(node), position))

    def gap_at(self, node: DeltaHandle, a: int) -> Tuple[int, int]:
        return self._view().gap_at(self._unwrap(node), a)

    def __repr__(self) -> str:
        return (
            f"DeltaRelation(arity={self.arity}, {len(self)} live, "
            f"memtable={len(self._memtable)}, runs={len(self._runs)})"
        )

"""The Minesweeper outer algorithm (paper Algorithm 2).

The loop: ask the CDS for an *active* tuple t (one no known gap covers);
probe every relation around t with ``FindGap`` along all 2^p low/high index
chains; if t's projection is present in every relation, emit t and rule out
exactly t; otherwise insert every discovered gap as a constraint.  At least
one discovered gap always covers t (the charging argument in the proof of
Theorem 3.2), so the algorithm makes progress and terminates.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.core.cds import ConstraintTree
from repro.core.cds_arena import ArenaConstraintTree, make_probe_strategy
from repro.core.constraints import Constraint, WILDCARD
from repro.core.query import PreparedQuery
from repro.core.resilience import AdmittedQuery
from repro.storage.delta import DeltaRelation, StaleHandleError
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.relation import Relation
from repro.util.counters import OpCounters
from repro.util.sentinels import NEG_INF, POS_INF

#: Either tier of the constraint data structure.
CDS = Union[ArenaConstraintTree, ConstraintTree]

LOW, HIGH = 0, 1  # the paper's  l / h  exploration symbols


class MinesweeperError(RuntimeError):
    """Raised when the engine detects it has stopped making progress."""


class Minesweeper:
    """Evaluate a prepared natural-join query with the Minesweeper algorithm.

    Parameters
    ----------
    query:
        A :class:`PreparedQuery` (relations indexed consistently with its
        GAO).
    strategy:
        ``"auto"`` (chain when the GAO is a nested elimination order, else
        general / shadow-chain), or explicitly ``"chain"`` / ``"general"``.
    memoize:
        Pass False to disable Algorithm 4/7 gap-inference memoization
        (ablation E12).
    cds:
        The constraint data structure to run over, empty and tallying
        into ``query.counters``.  ``None`` (every production caller)
        builds a fresh :class:`~repro.core.cds_arena.ArenaConstraintTree`.
        Tests and ablations pass the plain tier's
        :class:`~repro.core.cds.ConstraintTree` instead (E13 passes one
        over unmerged interval lists); the probe strategy follows the
        object's type.  Rows and operation counts are the same on
        either tree — only wall-clock differs.
    """

    def __init__(
        self,
        query: PreparedQuery,
        strategy: str = "auto",
        memoize: bool = True,
        cds: Optional[CDS] = None,
        admission: Optional["AdmittedQuery"] = None,
    ) -> None:
        self.query = query
        self.counters: OpCounters = query.counters
        self.cds: CDS = (
            cds
            if cds is not None
            else ArenaConstraintTree(query.n, counters=self.counters)
        )
        if strategy == "auto":
            strategy = "chain" if query.is_neo_gao() else "general"
        self.probe = make_probe_strategy(self.cds, strategy, memoize=memoize)
        self.strategy = strategy
        #: Optional observer called as
        #: ``gap_hook(relation, gao_position, chain, target, lo_idx, hi_idx)``
        #: for every FindGap the exploration performs (used by the
        #: certificate recorder, Proposition 2.5).
        self.gap_hook = None
        # Generous safety valve: Theorem 3.2 bounds non-output probes by
        # O(2^r |C|) and |C| <= r N; outputs are unbounded a priori and
        # are credited separately inside iterate().  A caller's limits
        # go through ``admission``, never through this guard.
        r = query.max_arity()
        m = len(query.relations)
        n = query.total_tuples()
        self.max_probes = 1000 + 64 * (2**r) * max(r, 1) * m * (n + 1)
        #: Optional :class:`~repro.core.resilience.AdmittedQuery` — the
        #: one abort for a caller's limits (the serving layer's query
        #: budget, the planner's scoring cap).  It raises the *typed*
        #: taxonomy (``BudgetExceeded`` / ``QueryTimeout``) that
        #: surfaces through sessions, scripts, and the CLI.  Checked
        #: cooperatively once per probe; the deadline is only read
        #: every ``AdmittedQuery.DEADLINE_STRIDE`` ticks.
        self.admission = admission

    # ------------------------------------------------------------------

    def run(self) -> List[Tuple[int, ...]]:
        """Compute the join; returns output tuples in GAO order."""
        return list(self.iterate())

    def iterate(self) -> Iterator[Tuple[int, ...]]:
        """Yield output tuples as they are discovered (GAO order).

        Because Minesweeper's work is certificate-bound rather than
        input-bound, early termination (``itertools.islice`` for top-k)
        stops the engine after work proportional to the part of the
        certificate it actually consumed — the Fagin-style use case the
        paper relates to in §6.3.
        """
        counters = self.counters
        n = self.query.n
        budget = self.max_probes
        admission = self.admission
        # Per-relation explorer closures, resolved once (see
        # _make_explorer): flat indexes get CSR-inlined variants with
        # their arrays captured, writable relations are explored
        # through their FlatTrie view, and a gap_hook observer
        # forces the generic index-tuple formulation.
        explorers = [self._make_explorer(rel) for rel in self.query.relations]
        cds = self.cds
        insert_many = cds.insert_many
        get_probe_point = self.probe.get_probe_point
        while True:
            t = get_probe_point()
            if t is None:
                return
            counters.probes += 1
            if counters.probes - counters.output_tuples > budget:
                raise MinesweeperError(
                    f"probe budget {budget} exhausted at t={t}; "
                    "the CDS is not making progress"
                )
            if admission is not None:
                admission.tick(counters)
            is_member = True
            discovered: List[Constraint] = []
            for explore in explorers:
                member, constraints = explore(t)
                if not member:
                    is_member = False
                if constraints:
                    discovered.extend(constraints)
            if is_member:
                counters.output_tuples += 1
                v = t[n - 1]
                insert_many((Constraint.trusted(t[: n - 1], v - 1, v + 1),))
                yield t
            else:
                # Insert order is the per-relation exploration order, as
                # before; the covering check is order-insensitive (it
                # reads only the constraint and t), so it runs after the
                # batch insert — which binds the CDS hot-path locals
                # once per probe instead of once per constraint.
                insert_many(discovered)
                if not any(c.satisfied_by(t) for c in discovered):
                    raise MinesweeperError(
                        f"no discovered gap covers probe point {t}; "
                        "exploration bug"
                    )

    # ------------------------------------------------------------------

    def _make_explorer(self, relation: Relation):
        """One-argument ``explore(t) -> (member, constraints)`` closure.

        Resolved once per run: flat (CSR) indexes of arity 1 and 2 get
        closures with the value/offset arrays captured (no per-probe
        attribute walks); a writable
        :class:`~repro.storage.delta.DeltaRelation` of those arities is
        explored through its FlatTrie view — probe-for-probe what its
        handle API answers, with one generation check per explore
        preserving the mid-run mutation guarantee.  Every other index
        and arity, and every run with a ``gap_hook`` observer, binds the
        node-handle formulation (:meth:`_explore`).  Membership answers,
        constraint order, and FindGap tallies are identical across all
        of these forms.
        """
        from functools import partial

        positions = self.query.gao_positions[relation.name]
        index = relation.index
        if self.gap_hook is None and isinstance(index, DeltaRelation):
            flat = self._make_flat_closure(index._view, positions)
            if flat is not None:
                generation = index._generation

                def explore_delta(t, _flat=flat, _index=index,
                                  _generation=generation):
                    if _index._generation != _generation:
                        raise StaleHandleError(
                            f"relation {relation.name!r} mutated while an "
                            "engine was iterating; Minesweeper explores a "
                            "fixed snapshot (apply deltas after evaluation, "
                            "as LiveJoin does)"
                        )
                    return _flat(t)

                return explore_delta
        elif self.gap_hook is None and isinstance(index, FlatTrieRelation):
            flat = self._make_flat_closure(index, positions)
            if flat is not None:
                return flat
        return partial(self._explore, relation, positions)

    def _make_flat_closure(self, index: FlatTrieRelation, positions):
        """Arity-specialized closure over a FlatTrie's CSR arrays."""
        counters = self.counters
        count = index._count
        if index.arity == 1:
            vals0 = index._vals[0]
            p0 = positions[0]
            n0 = len(vals0)
            wild0 = (WILDCARD,) * p0
            trusted = Constraint.trusted

            def explore1(t):
                a = t[p0]
                if count:
                    counters.findgap += 1
                i = bisect_left(vals0, a, 0, n0)
                if i < n0 and vals0[i] == a:
                    return True, ()
                low = NEG_INF if i == 0 else vals0[i - 1]
                high = POS_INF if i == n0 else vals0[i]
                return False, (trusted(wild0, low, high),)

            return explore1
        if index.arity == 2:
            vals0 = index._vals[0]
            vals1 = index._vals[1]
            offs1 = index._offs[1]
            p0, p1 = positions
            n0 = len(vals0)
            wild0 = (WILDCARD,) * p0
            wild1 = [WILDCARD] * p1
            trusted = Constraint.trusted

            def explore2(t):
                """Arity-2 CSR exploration, arrays in cells.

                Mirrors the generic chain enumeration exactly: one root
                FindGap, then one FindGap per in-range {LOW, HIGH} child
                chain (the two chains coincide when the root value is
                present — both are still probed and tallied), with
                constraints emitted in the same v-order.
                """
                a = t[p0]
                b = t[p1]
                if count:
                    counters.findgap += 1
                i = bisect_left(vals0, a, 0, n0)
                if i < n0 and vals0[i] == a:
                    lo0 = hi0 = i + 1
                else:
                    lo0 = i
                    hi0 = i + 1
                member = lo0 == hi0
                # Level-1 records in v-order: (LOW,) then (HIGH,).
                records = []
                for coord in (lo0, hi0):
                    if 1 <= coord <= n0:
                        entry = coord - 1
                        s = offs1[entry]
                        e = offs1[entry + 1]
                        if count:
                            counters.findgap += 1
                        j = bisect_left(vals1, b, s, e)
                        if j < e and vals1[j] == b:
                            lo1 = hi1 = j - s + 1
                        else:
                            lo1 = j - s
                            hi1 = lo1 + 1
                        records.append((s, e, lo1, hi1, vals0[entry]))
                    else:
                        records.append(None)
                if member:
                    rec = records[1]  # the all-HIGH chain
                    if rec is None or rec[2] != rec[3]:
                        member = False
                constraints: List[Constraint] = []
                if lo0 != hi0:
                    low = NEG_INF if lo0 == 0 else vals0[lo0 - 1]
                    high = POS_INF if hi0 == n0 + 1 else vals0[hi0 - 1]
                    constraints.append(trusted(wild0, low, high))
                for rec in records:
                    if rec is None:
                        continue
                    s, e, lo1, hi1, parent_value = rec
                    if lo1 == hi1:
                        continue  # target value present: the gap is empty
                    low = NEG_INF if lo1 == 0 else vals1[s + lo1 - 1]
                    high = POS_INF if hi1 == e - s + 1 else vals1[s + hi1 - 1]
                    prefix = wild1.copy()
                    prefix[p0] = parent_value
                    constraints.append(trusted(tuple(prefix), low, high))
                return member, constraints

            return explore2
        return None

    def _explore(
        self,
        relation: Relation,
        gao_positions: Sequence[int],
        t: Tuple[int, ...],
    ) -> Tuple[bool, List[Constraint]]:
        """Probe ``relation`` around t (Algorithm 2 lines 4-10 and 15-21).

        Returns ``(is_member, constraints)`` where ``is_member`` says t's
        projection is a tuple of the relation, and ``constraints`` lists
        the (non-empty) gaps found along every in-range {l,h}-index chain.

        The 2^p chains for v in {LOW,HIGH}^p are kept as a frontier of
        *node handles* in v's lexicographic (itertools.product) order, so
        each FindGap / value access hits the index node directly instead
        of re-walking the trie from the root per operation.  The chain
        enumeration order, FindGap count, and emitted constraints are
        exactly those of the index-tuple formulation.
        """
        index = relation.index
        k = relation.arity
        gap_at = index.gap_at
        value_at = index.value_at
        child_at = index.child_at
        hook = self.gap_hook
        # Frontier entry per v-vector: (node handle, value chain, index
        # tuple) — handle None when some coordinate fell out of range;
        # the index tuple is tracked only for the gap_hook observer.
        dead = (None, None, None)
        frontier: List[Tuple] = [
            (index.root_handle(), (), () if hook is not None else None)
        ]
        # Per level, aligned with the frontier's v-order: None for dead
        # chains, else (handle, value chain, lo_idx, hi_idx).
        levels: List[List[Optional[Tuple]]] = []
        member = True
        for p in range(k):
            target = t[gao_positions[p]]
            records: List[Optional[Tuple]] = []
            next_frontier: List[Tuple] = []
            build_children = p + 1 < k
            for handle, val_chain, idx_chain in frontier:
                if handle is None:
                    records.append(None)
                    if build_children:
                        next_frontier.append(dead)
                        next_frontier.append(dead)
                    continue
                lo_idx, hi_idx = gap_at(handle, target)
                records.append((handle, val_chain, lo_idx, hi_idx))
                if hook is not None:
                    hook(
                        relation, gao_positions[p], idx_chain, target,
                        lo_idx, hi_idx,
                    )
                if not build_children:
                    continue
                fan = index.fanout_at(handle)
                for coord in (lo_idx, hi_idx):
                    if 1 <= coord <= fan:
                        next_frontier.append(
                            (
                                child_at(handle, coord),
                                val_chain + (value_at(handle, coord),),
                                idx_chain + (coord,)
                                if idx_chain is not None
                                else None,
                            )
                        )
                    else:
                        next_frontier.append(dead)
            levels.append(records)
            if member:
                # The all-HIGH chain is the last entry in v-order.
                rec = records[-1] if records else None
                if rec is None or rec[2] != rec[3]:
                    member = False
            frontier = next_frontier
        constraints: List[Constraint] = []
        for p, records in enumerate(levels):
            interval_gao_position = gao_positions[p]
            for rec in records:
                if rec is None:
                    continue
                handle, val_chain, lo_idx, hi_idx = rec
                if lo_idx == hi_idx:
                    continue  # target value present: the gap is empty
                low = value_at(handle, lo_idx)
                high = value_at(handle, hi_idx)
                prefix: List = [WILDCARD] * interval_gao_position
                for j, value in enumerate(val_chain):
                    prefix[gao_positions[j]] = value
                constraints.append(
                    Constraint.trusted(tuple(prefix), low, high)
                )
        return member, constraints

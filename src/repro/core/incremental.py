"""Incremental join-view maintenance: the delta rule, probed by Minesweeper.

:class:`LiveJoin` materializes a natural join Q = R₁ ⋈ … ⋈ R_m with
per-row multiplicity counts and keeps it fresh under updates via the
classical delta rule

    ΔQ = Σᵢ  ΔRᵢ ⋈ R₁ⁿᵉʷ ⋈ … ⋈ R_{i-1}ⁿᵉʷ ⋈ R_{i+1}ᵒˡᵈ ⋈ … ⋈ R_mᵒˡᵈ

evaluated with signed multiplicities (+1 for inserts, −1 for deletes).
Each delta term is computed by *Minesweeper itself*: relation i is
replaced by the (tiny) delta tuple set, so the very first FindGap probes
collapse the CDS around the changed tuples and the search never leaves
their neighborhood — per-batch maintenance cost tracks the *delta*
certificate, not the input size.  Full recompute pays the whole-instance
certificate every batch; ``tests/test_incremental.py`` asserts the gap
at fixed sizes.

Protocol (what :class:`repro.dynamic.catalog.Catalog` drives): process
the batch one relation at a time, in a fixed order; for each relation
first call :meth:`LiveJoin.apply_delta` with the *effective* delta (the
sub-batch that actually changes the stored relation), **then** apply the
delta to storage.  That sequencing realizes the mixed old/new state the
delta rule needs, and guarantees every output row is derived exactly
once per batch (multiplicities stay 0/1 for set-semantics inputs).
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.engine import ExecSpec, run_join
from repro.core.query import PreparedQuery, Query
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


def _validated_rows(rows, arity: int, name: str) -> "List[Row]":
    """Tuple-ize and validate delta rows (mirrors DeltaRelation checks).

    Runs *before* intra-batch insert/delete pairs are netted out, so a
    malformed tuple is rejected even when pairing would annihilate it.
    """
    out: List[Row] = []
    for row in rows:
        t = tuple(row)
        if len(t) != arity:
            raise ValueError(
                f"tuple {t} does not match arity {arity} of {name}"
            )
        for v in t:
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"non-integer value {v!r} in tuple {t}")
        out.append(t)
    return out


def _netted_delta(
    inserts, deletes, arity: int, name: str
) -> "Tuple[List[Row], List[Row]]":
    """Validate both sides, then annihilate intra-batch pairs.

    A tuple appearing as both insert and delete in one batch nets out —
    order-insensitively, after validation, so a malformed pair still
    raises instead of vanishing.
    """
    ins = _validated_rows(inserts, arity, name)
    dels = _validated_rows(deletes, arity, name)
    paired = set(ins) & set(dels)
    if paired:
        ins = [t for t in ins if t not in paired]
        dels = [t for t in dels if t not in paired]
    return ins, dels


def consistent_gao(relations: Sequence[Relation]) -> Optional[List[str]]:
    """A GAO consistent with every relation's *stored* column order.

    The stored orders induce precedence constraints (consecutive columns
    of each relation); any topological order of those constraints is a
    valid GAO for the relations as indexed.  Ties break by
    first-appearance order (deterministic).  Returns None when the
    constraints are cyclic (no consistent GAO exists without
    re-indexing).
    """
    attrs: List[str] = []
    for r in relations:
        for a in r.attributes:
            if a not in attrs:
                attrs.append(a)
    successors: Dict[str, set] = {a: set() for a in attrs}
    indegree: Dict[str, int] = {a: 0 for a in attrs}
    for r in relations:
        for left, right in zip(r.attributes, r.attributes[1:]):
            if right not in successors[left]:
                successors[left].add(right)
                indegree[right] += 1
    rank = {a: i for i, a in enumerate(attrs)}
    order: List[str] = []
    ready = sorted((a for a in attrs if indegree[a] == 0), key=rank.get)
    while ready:
        node = ready.pop(0)
        order.append(node)
        for succ in sorted(successors[node], key=rank.get):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                insort(ready, succ, key=rank.get)
    return order if len(order) == len(attrs) else None


class LiveJoin:
    """A materialized natural-join view maintained by the delta rule.

    Parameters
    ----------
    name:
        View name (reporting only).
    relations:
        The join's atoms — typically ``Relation.from_index`` wrappers
        around writable :class:`~repro.storage.delta.DeltaRelation`
        indexes, shared with the catalog so storage updates are visible
        live.  Column orders must be consistent with the view's GAO
        (they are never re-indexed: a rebuilt copy would go stale).
    spec:
        How every evaluation this view performs — the seed, each delta
        term of a maintenance batch, and recomputes — runs (see
        :class:`~repro.core.engine.ExecSpec`; ``backend`` and ``limit``
        do not apply to a live view).  With no ``gao`` the paper's
        choice is used when the stored column orders already obey it,
        else an order they do obey.

        Sharding cost trade-off: each fanned-out evaluation re-plans and
        re-slices the *current* leading relations — O(live tuples) of
        slicing per delta term on top of the delta-bound probe work
        (op counters tally probes, not slicing).  That is worthwhile
        when individual delta terms are heavy (large batches over big
        views, seeds, recomputes) and a loss for trickle updates, where
        the default ``shards=1`` keeps maintenance delta-bound.
    """

    def __init__(
        self,
        name: str,
        relations: Sequence[Relation],
        spec: ExecSpec = ExecSpec(),
    ) -> None:
        self.name = name
        query = Query(list(relations))
        gao: Optional[Sequence[str]] = spec.gao
        if not gao:
            gao, _ = query.choose_gao()
            if not query.is_gao_consistent(gao):
                # The paper's preferred order would re-index the stored
                # relations; a live view cannot (copies go stale), so
                # fall back to an order the stored columns already obey.
                gao = consistent_gao(relations)
                if gao is None:
                    raise ValueError(
                        "stored column orders are cyclic; no consistent "
                        "GAO exists without re-indexing"
                    )
        if not query.is_gao_consistent(gao):
            raise ValueError(
                f"GAO {list(gao)} is inconsistent with the stored column "
                f"orders of {[r.name for r in relations]}; live views "
                "never re-index relations — register them with "
                "GAO-consistent attribute orders"
            )
        self.relations: List[Relation] = list(relations)
        self._by_name: Dict[str, Relation] = {
            r.name: r for r in self.relations
        }
        #: What every evaluation runs under, resolved once (delta
        #: terms share the view's hypergraph, so one resolution holds
        #: for all of them and pooled workers agree with in-process
        #: runs).
        self._run_spec = replace(
            spec, gao=tuple(gao), backend=None, limit=None
        ).resolve(query)
        #: The view's configuration as `!view` WAL records and snapshot
        #: manifests round-trip it: GAO, shards/workers and CDS backend
        #: pinned (replay must not re-run today's heuristics), the
        #: strategy as declared.
        self.spec = replace(self._run_spec, strategy=spec.strategy)
        self.gao = self.spec.gao
        #: Cumulative maintenance ops (delta terms only, not the seed).
        self.counters = OpCounters()
        self._counts: Dict[Row, int] = {}
        self.initial_ops = self._seed()

    # ------------------------------------------------------------------

    def _prepared(
        self, relations: Sequence[Relation], counters: OpCounters
    ) -> PreparedQuery:
        for r in relations:
            r.rebind_counters(counters)
        return PreparedQuery(list(relations), self.gao, counters)

    def _evaluate(
        self, relations: Sequence[Relation], counters: OpCounters
    ) -> List[Row]:
        return run_join(
            self._prepared(relations, counters), self._run_spec
        ).rows

    def _seed(self) -> Dict[str, int]:
        counters = OpCounters()
        rows = self._evaluate(self.relations, counters)
        self._counts = {row: 1 for row in rows}
        return counters.snapshot()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def rows(self) -> List[Row]:
        """Current view contents in GAO-lexicographic order."""
        return sorted(self._counts)

    def counts(self) -> Dict[Row, int]:
        """Row -> multiplicity (always 1 for set-semantics inputs)."""
        return dict(self._counts)

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, row: Sequence[int]) -> bool:
        return tuple(row) in self._counts

    def __repr__(self) -> str:
        return (
            f"LiveJoin({self.name}, {len(self)} rows, "
            f"gao={list(self.gao)})"
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def apply_delta(
        self,
        name: str,
        inserts: Sequence[Row],
        deletes: Sequence[Row],
        counters: Optional[OpCounters] = None,
    ) -> Tuple[int, int]:
        """Fold one relation's *effective* delta into the view.

        Must be called **before** the delta is applied to the stored
        relation (and after the deltas of relations earlier in the batch
        order have been applied) — that is the delta rule's mixed
        old/new state.  Updates naming relations outside this view are
        ignored.  Returns ``(rows_added, rows_removed)``.

        The delta is canonicalized first: a tuple appearing on *both*
        sides of the batch is an intra-batch insert/delete pair, which
        annihilates — order-insensitively — before any delta term is
        evaluated, so view multiplicities are untouched by it.  (The
        previous behavior evaluated the -1 term before the +1 term,
        which only balanced by accident and double-counted maintenance
        work.)
        """
        base = self._by_name.get(name)
        if base is None:
            return (0, 0)
        inserts, deletes = _netted_delta(inserts, deletes, base.arity, name)
        # Tally into a fresh local object, then merge it outward —
        # folding a caller-shared counters object into the cumulative
        # tally would recount its earlier contents once per call.
        local = OpCounters()
        added = removed = 0
        for delta_rows, sign in ((deletes, -1), (inserts, +1)):
            if not delta_rows:
                continue
            delta_rel = Relation(
                name, base.attributes, delta_rows, counters=local
            )
            atoms = [
                delta_rel if r.name == name else r for r in self.relations
            ]
            for row in self._evaluate(atoms, local):
                multiplicity = self._counts.get(row, 0) + sign
                if multiplicity not in (0, 1):
                    raise RuntimeError(
                        f"view {self.name}: row {row} reached multiplicity "
                        f"{multiplicity}; apply_delta must run on the "
                        "pre-update relation state (effective deltas, "
                        "storage applied afterwards)"
                    )
                if multiplicity == 0:
                    del self._counts[row]
                    removed += 1
                else:
                    self._counts[row] = multiplicity
                    added += 1
        self.counters.merge(local)
        if counters is not None:
            counters.merge(local)
        return added, removed

    def apply_batch(
        self,
        updates: Mapping[str, Tuple[Iterable[Row], Iterable[Row]]],
        counters: Optional[OpCounters] = None,
    ) -> Tuple[int, int]:
        """Standalone convenience: maintain the view *and* its storage.

        ``updates`` maps relation name -> ``(inserts, deletes)``;
        relations are processed in mapping order, each one's effective
        delta folded into the view before being applied to its writable
        index (which must expose ``effective_delta`` / ``apply``, i.e.
        be a :class:`~repro.storage.delta.DeltaRelation`).  With several
        views over shared relations use
        :meth:`repro.dynamic.catalog.Catalog.apply_batch` instead.
        """
        # Validate the whole batch (names, arity, types) before mutating
        # anything, so a bad entry can't leave the view and storage
        # half-updated (mirrors Catalog.apply_batch; each relation
        # appears once, so pre-batch effective deltas equal the
        # sequential ones).  A tuple appearing as both insert and delete
        # of the same relation is an intra-batch pair: it nets out here
        # — order-insensitively, leaving storage and multiplicities
        # unchanged — rather than tripping effective_delta's overlap
        # guard.
        effective = {}
        for name, (inserts, deletes) in updates.items():
            base = self._by_name.get(name)
            if base is None:
                raise ValueError(
                    f"view {self.name} has no relation named {name!r}"
                )
            ins, dels = _netted_delta(inserts, deletes, base.arity, name)
            effective[name] = base.index.effective_delta(ins, dels)
        added = removed = 0
        for name, (eff_ins, eff_del) in effective.items():
            base = self._by_name[name]
            a, r = self.apply_delta(name, eff_ins, eff_del, counters)
            base.index.apply_effective(eff_ins, eff_del)
            added += a
            removed += r
        return added, removed

    # ------------------------------------------------------------------
    # The comparator: from-scratch recompute
    # ------------------------------------------------------------------

    def recompute(self) -> Tuple[List[Row], Dict[str, int], float]:
        """Full Minesweeper re-evaluation on the current relation state.

        Returns ``(rows, ops_snapshot, seconds)``; the view's counts are
        untouched.  This is the baseline every incremental batch is
        measured against.
        """
        counters = OpCounters()
        t0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
        rows = self._evaluate(self.relations, counters)
        seconds = time.perf_counter() - t0  # lint: disable=determinism -- reporting-only timing; never feeds results
        return rows, counters.snapshot(), seconds

    def verify(self) -> bool:
        """True iff the maintained view equals a full recompute."""
        rows, _, _ = self.recompute()
        return rows == self.rows()

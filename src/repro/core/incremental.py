"""Incremental join-view maintenance: inserts join, deletes look up.

:class:`LiveJoin` materializes a natural join Q = R₁ ⋈ … ⋈ R_m and
keeps it fresh under updates via the classical delta rule

    ΔQ = Σᵢ  ΔRᵢ ⋈ R₁ⁿᵉʷ ⋈ … ⋈ R_{i-1}ⁿᵉʷ ⋈ R_{i+1}ᵒˡᵈ ⋈ … ⋈ R_mᵒˡᵈ

whose two signs are evaluated differently:

* **+1 (inserts) — one Minesweeper run per relation, under its own
  GAO.**  Relation i is replaced by its (tiny) inserted tuple set and
  the term runs under GAOᵢ: ΔRᵢ's stored columns first, then the rest
  of the view's GAO in view order.  The very first FindGap probes
  collapse the CDS around the changed tuples and the search never
  leaves their neighborhood — the cost tracks the *delta* certificate,
  not the input size.  Under the view's own GAO only the atom leading
  it is delta-bound: Theorem 3.2 charges the certificate *under the GAO
  the run uses* (Examples B.3 / B.4), and with ΔS(B, C) substituted in
  a triangle ordered (A, B, C) the engine still enumerates π_A R.  Full
  recompute pays the whole-instance certificate every batch;
  ``tests/test_incremental.py`` asserts the gap at fixed sizes and
  ``tests/test_view_index.py`` that insert-term cost stays flat as the
  input grows.
* **−1 (deletes) — no join at all.**  The view keeps, per atom, a
  projection index ``projected key → rows`` over its materialized rows,
  and the −1 term of a deleted tuple t is read out of it: exactly the
  bucket of t.  Minesweeper's cost is the certificate of the instance
  it is handed (Thm 3.2); the rows a delete takes away are already
  materialized, so the cheapest certificate is the view itself and a
  delete-only batch performs zero probes.

Why the lookup is exact.  Inputs are sets, so every view row has
multiplicity 1 and is derived from exactly one tuple per atom.  When
relation i's delta is folded in, the view equals the join of the
*current* mixed state (relations before i in the batch order already
new, i and later still old) — the same state the delta rule's term i
reads.  Deleting t from Rᵢ therefore removes {t} ⋈ (the other atoms'
current state), which is precisely the materialized rows whose
projection onto atom i is t.  Inserts and deletes of one relation never
interact: an intra-batch pair is netted out first, so an inserted tuple
is not a deleted one and no row is both removed and added.

Secondary orders.  A term GAO needs the other atoms indexed
consistently with it, which the shared stored relations are not (they
follow the view's GAO and are never re-indexed: a copy goes stale).
So the view owns, per (relation, column order) that some GAOᵢ needs, a
column-permuted :class:`~repro.storage.flat_trie.FlatTrieRelation` —
for the triangle R(A, B), S(B, C), T(A, C) under (A, B, C): R as
(B, A) and T as (C, A) for ΔS's GAO (B, C, A), S as (C, B) for ΔT's
(A, C, B).  :meth:`LiveJoin.seed` builds them; :meth:`apply_delta`
splices the relation's effective delta into its orders right after
the term (one ``splice_insert`` / ``splice_delete`` per written tuple
per order), or rebuilds an order once the delta outgrows its
``splice_budget()``.  They are derived state: never journaled, rebuilt
by the seed that follows replay, so ``!view`` records and snapshots
are unchanged.  The term GAO is a function of the view's pinned GAO
alone; under a declared ``strategy="chain"`` a GAOᵢ that is not a
nested elimination order keeps the view's GAO instead.

Cost of the index: one entry per view row per atom (m·|Q| entries
beside the |Q| rows), maintained at the single place a row enters or
leaves the view.  :meth:`LiveJoin.recompute` / :meth:`LiveJoin.verify`
stay the small independent checker beside the fast path, and
:meth:`LiveJoin.check_invariant` audits the index against the rows and
every secondary order against its relation.

Protocol (what :class:`repro.dynamic.catalog.Catalog` drives): process
the batch one relation at a time, in a fixed order; for each relation
first call :meth:`LiveJoin.apply_delta` with the *effective* delta (the
sub-batch that actually changes the stored relation), **then** apply the
delta to storage.  That sequencing realizes the mixed old/new state
above, and guarantees every output row is derived exactly once per
batch (multiplicities stay 0/1 for set-semantics inputs).
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import replace
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.engine import ExecSpec, run_join
from repro.core.query import PreparedQuery, Query
from repro.hypergraph.elimination import is_nested_elimination_order
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

Row = Tuple[int, ...]


class ViewNotSeededError(RuntimeError):
    """A view was read or maintained before :meth:`LiveJoin.seed` ran."""


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


def _projector(positions: Sequence[int]) -> "Callable[[Row], Row]":
    """Row -> its projection onto ``positions``, always as a tuple."""
    if len(positions) == 1:
        (only,) = positions
        return lambda row: (row[only],)
    return itemgetter(*positions)


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


class _SecondaryOrder:
    """A view-owned copy of a stored relation in another column order.

    The wrapped index is a plain ``FlatTrieRelation`` only this view
    reads and splices; it is rebuilt from the relation by :meth:`build`.
    """

    def __init__(self, base: Relation, attributes: Tuple[str, ...]) -> None:
        self.base = base
        self.permute = _projector(
            [base.attributes.index(a) for a in attributes]
        )
        self.relation = Relation.from_index(
            base.name, attributes,
            FlatTrieRelation((), arity=base.arity), backend="flat",
        )

    def build(self, tuples: Iterable[Row]) -> None:
        self.relation.index = FlatTrieRelation(
            tuples, arity=self.base.arity, counters=self.relation.counters
        )

    def apply(self, inserts: Sequence[Row], deletes: Sequence[Row]) -> bool:
        """Fold an effective delta in; True iff that took a rebuild."""
        index = self.relation.index
        if len(inserts) + len(deletes) > index.splice_budget():
            live = set(index.tuples())
            live.difference_update(map(self.permute, deletes))
            live.update(map(self.permute, inserts))
            self.build(live)
            return True
        for t in deletes:
            index.splice_delete(self.permute(t))
        for t in inserts:
            index.splice_insert(self.permute(t))
        return False


class _Term(NamedTuple):
    """How atom i's +1 term runs: GAOᵢ, the spec resolved for it, the
    atoms indexed consistently with it (slot i is replaced by ΔRᵢ), and
    GAOᵢ-ordered row -> view-GAO-ordered row (None when GAOᵢ is the
    view's)."""

    gao: Tuple[str, ...]
    spec: ExecSpec
    atoms: List[Relation]
    to_view: Optional[Callable[[Row], Row]]


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
        How every evaluation this view performs — the seed, each insert
        term of a maintenance batch, and recomputes — runs (see
        :class:`~repro.core.engine.ExecSpec`; ``backend`` and ``limit``
        do not apply to a live view).  With no ``gao`` the paper's
        choice is used when the stored column orders already obey it,
        else an order they do obey.  An insert term runs under its own
        GAO derived from this one (module docstring), with the strategy
        as declared resolved for it.

        Sharding cost trade-off: each fanned-out evaluation re-plans and
        re-slices the *current* leading relations — O(live tuples) of
        slicing per delta term on top of the delta-bound probe work
        (op counters tally probes, not slicing).  That is worthwhile
        when individual delta terms are heavy (large batches over big
        views, seeds, recomputes) and a loss for trickle updates, where
        the default ``shards=1`` keeps maintenance delta-bound.
    seed:
        Materialize immediately (the default).  WAL replay passes
        ``False`` and calls :meth:`seed` once after the last record.
    """

    def __init__(
        self,
        name: str,
        relations: Sequence[Relation],
        spec: ExecSpec = ExecSpec(),
        seed: bool = True,
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
        #: What the seed and recomputes run under, resolved once (so
        #: pooled workers agree with in-process runs); each +1 term
        #: runs under its own resolution (``_terms``).
        self._run_spec = replace(
            spec, gao=tuple(gao), backend=None, limit=None
        ).resolve(query)
        #: The view's configuration as `!view` WAL records and snapshot
        #: manifests round-trip it: GAO, shards/workers and CDS backend
        #: pinned (replay must not re-run today's heuristics), the
        #: strategy as declared.
        self.spec = replace(self._run_spec, strategy=spec.strategy)
        self.gao = self.spec.gao
        #: The view-owned column orders the term GAOs need, one per
        #: (relation, order), built by :meth:`seed`.
        self._orders: Dict[Tuple[str, Tuple[str, ...]], _SecondaryOrder] = {}
        self._terms = [
            self._plan_term(i, query, spec.strategy)
            for i in range(len(self.relations))
        ]
        #: Per atom, the secondary orders of its relation (the ones its
        #: effective delta is spliced into).
        self._orders_of = [
            [o for o in self._orders.values() if o.base is r]
            for r in self.relations
        ]
        #: Cumulative splices into / rebuilds of the secondary orders.
        self.order_splices = 0
        self.order_rebuilds = 0
        #: Per atom, the cumulative ops of its +1 terms.
        self._term_ops = [OpCounters() for _ in self.relations]
        #: Cumulative maintenance ops (delta terms only, not the seed).
        self.counters = OpCounters()
        #: Cumulative delta terms by how they were answered: +1 terms
        #: run through the engine, deleted tuples read from the index.
        self.engine_runs = 0
        self.indexed_deletes = 0
        self._counts: Dict[Row, int] = {}
        #: Per atom, a view row -> the atom's tuple it was derived from
        #: (rows are GAO-ordered, tuples in the atom's column order).
        self._atom_key = [
            _projector([self.gao.index(a) for a in r.attributes])
            for r in self.relations
        ]
        #: The projection index: per atom, tuple -> the rows derived
        #: from it (insertion-ordered, so iteration is deterministic).
        self._index: List[Dict[Row, Dict[Row, None]]] = [
            {} for _ in self.relations
        ]
        #: Ops of the seeding evaluation; empty until :meth:`seed` runs.
        self.initial_ops: Dict[str, int] = {}
        self.seeded = False
        if seed:
            self.seed()

    # ------------------------------------------------------------------

    def _plan_term(self, i: int, query: Query, strategy: str) -> _Term:
        """GAOᵢ = atom i's stored columns, then the rest of the view GAO
        in view order — a function of the pinned view GAO alone, so
        replay derives the same terms.  Under a declared chain strategy
        a GAOᵢ that is no nested elimination order keeps the view's."""
        lead = self.relations[i].attributes
        gao = lead + tuple(a for a in self.gao if a not in lead)
        if gao == self.gao or (
            strategy == "chain"
            and not is_nested_elimination_order(query.hypergraph(), gao)
        ):
            return _Term(self.gao, self._run_spec, self.relations, None)
        rank = {a: k for k, a in enumerate(gao)}
        atoms = []
        for j, r in enumerate(self.relations):
            order = tuple(sorted(r.attributes, key=rank.__getitem__))
            if j == i or order == r.attributes:
                atoms.append(r)
                continue
            key = (r.name, order)
            if key not in self._orders:
                self._orders[key] = _SecondaryOrder(r, order)
            atoms.append(self._orders[key].relation)
        spec = replace(self._run_spec, gao=gao, strategy=strategy)
        return _Term(
            gao, spec.resolve(query), atoms,
            _projector([gao.index(a) for a in self.gao]),
        )

    def _evaluate(
        self,
        relations: Sequence[Relation],
        counters: OpCounters,
        spec: Optional[ExecSpec] = None,
    ) -> List[Row]:
        spec = spec if spec is not None else self._run_spec
        for r in relations:
            r.rebind_counters(counters)
        prepared = PreparedQuery(list(relations), spec.gao, counters)
        return run_join(prepared, spec).rows

    def _require_seeded(self) -> None:
        if not self.seeded:
            raise ViewNotSeededError(
                f"view {self.name} is not seeded; call seed() first"
            )

    def seed(self) -> None:
        """Materialize the view from the current relation state.

        Runs at construction unless deferred (``seed=False``: WAL replay
        registers views first and seeds each once, after the last
        record, instead of maintaining them record by record).
        """
        counters = OpCounters()
        rows = self._evaluate(self.relations, counters)
        self._counts = {}
        self._index = [{} for _ in self.relations]
        for row in rows:
            self._add_row(row)
        for order in self._orders.values():
            order.build(map(order.permute, order.base.tuples()))
        self.initial_ops = counters.snapshot()
        self.seeded = True

    def _add_row(self, row: Row) -> None:
        self._counts[row] = 1
        for index, key in zip(self._index, self._atom_key):
            index.setdefault(key(row), {})[row] = None

    def _remove_row(self, row: Row) -> None:
        del self._counts[row]
        for index, key in zip(self._index, self._atom_key):
            tuple_ = key(row)
            bucket = index[tuple_]
            del bucket[row]
            if not bucket:
                del index[tuple_]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def rows(self) -> List[Row]:
        """Current view contents in GAO-lexicographic order."""
        self._require_seeded()
        return sorted(self._counts)

    def counts(self) -> Dict[Row, int]:
        """Row -> multiplicity (always 1 for set-semantics inputs)."""
        self._require_seeded()
        return dict(self._counts)

    def __len__(self) -> int:
        self._require_seeded()
        return len(self._counts)

    def __contains__(self, row: Sequence[int]) -> bool:
        self._require_seeded()
        return tuple(row) in self._counts

    def secondary_orders(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """The (relation, column order) pairs the view owns an index of."""
        return list(self._orders)

    def stats(self) -> dict:
        """The view's bookkeeping (``catalog.views.<name>`` in STATS):
        per atom, the GAO its +1 term runs under and those terms'
        cumulative probes / FindGaps."""
        return {
            "seeded": self.seeded,
            "rows": len(self._counts),
            "maintenance_ops": self.counters.snapshot(),
            "initial_ops": self.initial_ops,
            "engine_runs": self.engine_runs,
            "indexed_deletes": self.indexed_deletes,
            "terms": {
                r.name: {
                    "gao": ",".join(term.gao),
                    "probes": ops.probes,
                    "findgap": ops.findgap,
                }
                for r, term, ops in zip(
                    self.relations, self._terms, self._term_ops
                )
            },
            "secondary_orders": {
                "count": len(self._orders),
                "splices": self.order_splices,
                "rebuilds": self.order_rebuilds,
            },
        }

    def __repr__(self) -> str:
        rows = f"{len(self._counts)} rows" if self.seeded else "unseeded"
        return f"LiveJoin({self.name}, {rows}, gao={list(self.gao)})"

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
        evaluated, so view multiplicities are untouched by it.

        Deletes are answered from the projection index (no engine run,
        no ops); the inserts are one engine run with the delta
        substituted for the relation, under the relation's term GAO.
        All-or-nothing: both row sets are computed and every
        multiplicity checked before the view (or a secondary order) is
        touched, so a protocol violation raises with the view unchanged.
        """
        base = self._by_name.get(name)
        if base is None:
            return (0, 0)
        self._require_seeded()
        inserts, deletes = _netted_delta(inserts, deletes, base.arity, name)
        i = self.relations.index(base)
        buckets = self._index[i]
        removed = [row for t in deletes for row in buckets.get(t, ())]
        # Tally into a fresh local object, then merge it outward —
        # folding a caller-shared counters object into the cumulative
        # tally would recount its earlier contents once per call.
        local = OpCounters()
        added: List[Row] = []
        if inserts:
            term = self._terms[i]
            atoms = list(term.atoms)
            atoms[i] = Relation(name, base.attributes, inserts, counters=local)
            added = self._evaluate(atoms, local, term.spec)
            if term.to_view is not None:
                added = [term.to_view(row) for row in added]
        for rows, sign in ((removed, -1), (added, +1)):
            for row in rows:
                multiplicity = self._counts.get(row, 0) + sign
                if multiplicity not in (0, 1):
                    raise RuntimeError(
                        f"view {self.name}: row {row} reached multiplicity "
                        f"{multiplicity}; apply_delta must run on the "
                        "pre-update relation state (effective deltas, "
                        "storage applied afterwards)"
                    )
        for row in removed:
            self._remove_row(row)
        for row in added:
            self._add_row(row)
        for order in self._orders_of[i]:
            if order.apply(inserts, deletes):
                self.order_rebuilds += 1
            else:
                self.order_splices += len(inserts) + len(deletes)
        self.indexed_deletes += len(deletes)
        self.engine_runs += 1 if inserts else 0
        self._term_ops[i].merge(local)
        self.counters.merge(local)
        if counters is not None:
            counters.merge(local)
        return len(added), len(removed)

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
        self._require_seeded()
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

    def check_invariant(self) -> None:
        """Audit the projection index against the materialized rows.

        Raises ``AssertionError`` unless, for every atom, the index is
        exactly the rows grouped by their projection onto that atom (no
        stale, missing or empty bucket), every multiplicity is 1, and
        every secondary order holds its relation's tuples permuted, in
        the arrays a fresh build over them would have.
        """
        self._require_seeded()
        if any(count != 1 for count in self._counts.values()):
            raise AssertionError(f"view {self.name}: multiplicity != 1")
        for relation, index, key in zip(
            self.relations, self._index, self._atom_key
        ):
            expected: Dict[Row, set] = {}
            for row in self._counts:
                expected.setdefault(key(row), set()).add(row)
            actual = {t: set(bucket) for t, bucket in index.items()}
            if actual != expected:
                raise AssertionError(
                    f"view {self.name}: projection index of "
                    f"{relation.name} diverged from the view's rows"
                )
        for (name, attributes), order in self._orders.items():
            index = order.relation.index
            fresh = FlatTrieRelation(
                map(order.permute, order.base.tuples()), arity=index.arity
            )
            if (index._tuples, index._vals, index._offs) != (
                fresh._tuples, fresh._vals, fresh._offs
            ):
                raise AssertionError(
                    f"view {self.name}: secondary order {name}"
                    f"({', '.join(attributes)}) diverged from {name}"
                )

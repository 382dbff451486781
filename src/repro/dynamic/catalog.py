"""The dynamic catalog: named writable relations + registered live views.

A :class:`Catalog` is the serving surface of the dynamic subsystem: it
owns a set of named :class:`~repro.storage.delta.DeltaRelation`-backed
relations, accepts update batches (:class:`Update` records), and keeps
every registered :class:`~repro.core.incremental.LiveJoin` view fresh —
orchestrating the delta rule's mixed old/new state across views that
share relations (each relation's delta is folded into *every* view
before the storage apply, one relation at a time, in batch order).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.engine import ExecSpec
from repro.core.incremental import LiveJoin
from repro.storage.delta import DeltaRelation
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

Row = Tuple[int, ...]

INSERT = "+"
DELETE = "-"


class Update(NamedTuple):
    """One streamed change: insert (``+``) or delete (``-``) of a row."""

    relation: str
    op: str  # INSERT or DELETE
    row: Row


def net_updates(
    updates: Iterable[Update],
) -> "Dict[str, Tuple[List[Row], List[Row]]]":
    """Net a batch to its final per-row effect (last write wins).

    Returns relation -> ``(inserts, deletes)`` with relations in
    first-appearance order, so replaying the result relation-by-relation
    is equivalent to replaying the raw update sequence.
    """
    per_relation: Dict[str, Dict[Row, str]] = {}
    for update in updates:
        if update.op not in (INSERT, DELETE):
            raise ValueError(f"unknown update op {update.op!r}")
        final = per_relation.setdefault(update.relation, {})
        final[tuple(update.row)] = update.op
    return {
        name: (
            [row for row, op in final.items() if op == INSERT],
            [row for row, op in final.items() if op == DELETE],
        )
        for name, final in per_relation.items()
    }


@dataclass
class BatchReport:
    """What one :meth:`Catalog.apply_batch` call did, and what it cost."""

    batch: int
    #: relation -> (effective inserts, effective deletes)
    applied: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: view -> {"rows_added", "rows_removed", "rows", "ops": snapshot,
    #: "seconds", "engine_runs", "indexed_deletes"} — the last two say
    #: how the batch's delta terms were answered: insert terms run
    #: through the engine, deleted tuples read from the view's index.
    views: Dict[str, dict] = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def updates_applied(self) -> int:
        return sum(i + d for i, d in self.applied.values())

    def view_ops(self, name: str, key: str) -> int:
        return self.views[name]["ops"].get(key, 0)


class Catalog:
    """Named writable relations plus the live views served over them."""

    def __init__(self) -> None:
        self._relations: Dict[str, Relation] = {}
        self._views: Dict[str, LiveJoin] = {}
        self.batches_applied = 0
        #: Monotone counter bumped by DDL (``create_relation``), data
        #: (``apply_batch``) and the journalled ``flush`` /
        #: ``compact`` statements.  A version stamp for snapshots,
        #: stats and ``EXPLAIN`` ("planned at generation G (now G')");
        #: it invalidates nothing — cached plans survive writes and
        #: age by data drift instead (see :mod:`repro.planner.cache`).
        self.generation = 0
        #: Durability (ISSUE 6): when a write-ahead log is attached,
        #: every mutation is committed to it *before* touching memory,
        #: so recovery replays to exactly the pre- or post-op state.
        self._wal = None
        self._data_dir: Optional[str] = None
        #: True while recovery replays WAL records through the normal
        #: mutation methods — suppresses re-logging them.
        self._replaying = False
        #: Observability bundle (ISSUE 7): spans around batch apply /
        #: flush / compact / snapshot, histograms for their durations.
        #: NULL_OBS by default — the counting-free disabled path.
        from repro.obs import NULL_OBS

        self.obs = NULL_OBS

    def bind_obs(self, obs) -> None:
        """Attach an observability bundle (and pass it to the WAL)."""
        self.obs = obs
        if self._wal is not None:
            self._wal.bind_obs(obs)

    # ------------------------------------------------------------------
    # Durability plumbing
    # ------------------------------------------------------------------

    @property
    def wal(self):
        """The attached :class:`~repro.dynamic.wal.WriteAheadLog`."""
        return self._wal

    @property
    def data_dir(self) -> Optional[str]:
        """Data directory this catalog persists to (durable catalogs)."""
        return self._data_dir

    def attach_wal(self, wal, data_dir: Optional[str] = None) -> None:
        """Make every subsequent mutation durable through ``wal``.

        Attaching does not replay anything — use :meth:`recover` (or
        :func:`repro.dynamic.durable.open_catalog`) to build a catalog
        *from* a data directory.
        """
        self._wal = wal
        if data_dir is not None:
            self._data_dir = data_dir
        if self.obs.enabled and wal is not None:
            wal.bind_obs(self.obs)

    def _log_control(self, kind: str, payload: dict) -> None:
        if self._wal is not None and not self._replaying:
            self._wal.append_control(kind, payload)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[int]] = (),
    ) -> Relation:
        """Register a writable relation over ``rows``.

        ``rows`` may be an iterable of tuples or an already-built
        :class:`~repro.storage.flat_trie.FlatTrieRelation`, which is
        adopted as the relation's index without a rebuild.
        """
        if name in self._relations:
            raise ValueError(f"relation {name!r} already registered")
        attrs = tuple(attributes)
        index = DeltaRelation(
            rows,
            arity=len(attrs),
            counters=OpCounters(),
        )
        # Building the index validated the schema and every initial
        # row, so nothing after the WAL append can fail: log, then
        # register (WAL-before-mutate).
        self._log_control(
            "create",
            {
                "name": name,
                "attributes": list(attrs),
                "rows": [list(t) for t in index.tuples()],
            },
        )
        relation = Relation.from_index(name, attrs, index)
        self._relations[name] = relation
        self.generation += 1
        return relation

    def _adopt_relation(
        self, name: str, attributes: Sequence[str], index: DeltaRelation
    ) -> Relation:
        """Register an already-restored writable index (recovery path)."""
        if name in self._relations:
            raise ValueError(f"relation {name!r} already registered")
        if index.counters is None:
            index.counters = OpCounters()
        relation = Relation.from_index(name, tuple(attributes), index)
        self._relations[name] = relation
        self.generation += 1
        return relation

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise KeyError(f"no relation named {name!r}") from None

    def delta(self, name: str) -> DeltaRelation:
        """The writable index behind a registered relation."""
        return self.relation(name).index

    def relation_names(self) -> List[str]:
        return list(self._relations)

    def register_view(
        self,
        name: str,
        relation_names: Sequence[str],
        spec: ExecSpec = ExecSpec(),
    ) -> LiveJoin:
        """Register (and immediately materialize) a live join view.

        ``spec`` configures every evaluation the view performs (see
        :class:`~repro.core.incremental.LiveJoin`).  During WAL replay
        the view is registered unseeded and skipped by
        :meth:`apply_batch`; recovery calls :meth:`seed_views` once
        after the last record (view contents are a function of relation
        state, so the rows are the ones record-by-record maintenance
        would have left).
        """
        if name in self._views:
            raise ValueError(f"view {name!r} already registered")
        missing = [n for n in relation_names if n not in self._relations]
        if missing:
            raise KeyError(f"unknown relations {missing} in view {name!r}")
        view = LiveJoin(
            name,
            [self._relations[n] for n in relation_names],
            spec,
            seed=not self._replaying,
        )
        # Log the *resolved* configuration (gao / cds_backend picked by
        # the view), so replaying the record reconstructs this exact
        # view even if auto-selection heuristics change later.
        self._log_control(
            "view",
            {
                "name": name,
                "relations": list(relation_names),
                **view.spec.to_record(),
            },
        )
        self._views[name] = view
        return view

    def seed_views(self) -> None:
        """Materialize every view whose seeding replay deferred."""
        for view in self._views.values():
            if not view.seeded:
                view.seed()

    def view(self, name: str) -> LiveJoin:
        try:
            return self._views[name]
        except KeyError:
            raise KeyError(f"no view named {name!r}") from None

    def view_names(self) -> List[str]:
        return list(self._views)

    def query(self, name: str) -> List[Row]:
        """Serve a registered view's current rows."""
        return self.view(name).rows()

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def apply_batch(self, updates: Iterable[Update]) -> BatchReport:
        """Apply one update batch and maintain every registered view.

        Per relation (in the batch's first-appearance order): compute
        the effective delta against current storage, fold it into every
        view that references the relation (pre-update state — the delta
        rule's requirement), then apply it to storage.
        """
        obs = self.obs
        t0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
        grouped = net_updates(updates)
        unknown = [n for n in grouped if n not in self._relations]
        if unknown:
            raise KeyError(f"updates reference unknown relations {unknown}")
        # Validate the whole batch (arity, types) before mutating
        # anything, so a bad row can't leave views and storage
        # half-updated.  Each relation is touched once per batch and no
        # relation's update changes another's state, so the effective
        # deltas computed here against the pre-batch state are exactly
        # the per-relation effective deltas of the sequential replay.
        effective = {
            name: self._relations[name].index.effective_delta(
                inserts, deletes
            )
            for name, (inserts, deletes) in grouped.items()
        }
        with obs.tracer.span(
            "apply_batch", batch=self.batches_applied + 1
        ) as bspan:
            if self._wal is not None and not self._replaying and grouped:
                # The whole batch validated; commit it to the log before
                # any view or storage mutation.  The netted form is logged
                # (deletes then inserts per relation, relations in batch
                # order): replaying it recomputes the same effective
                # deltas against the same pre-batch state.
                from repro.testing.faults import crashpoint

                crashpoint("catalog.apply.wal")
                logged: List[Update] = []
                for name, (inserts, deletes) in grouped.items():
                    logged.extend(
                        Update(name, DELETE, row) for row in deletes
                    )
                    logged.extend(
                        Update(name, INSERT, row) for row in inserts
                    )
                with obs.tracer.span(
                    "wal.append", records=len(logged)
                ) as wspan:
                    lsn = self._wal.append_batch(logged)
                    wspan.set("lsn", lsn)
                crashpoint("catalog.apply.mutate")
            self.batches_applied += 1
            self.generation += 1
            report = BatchReport(batch=self.batches_applied)
            # Unseeded views (registered during replay) are not
            # maintained: seed_views() materializes them afterwards.
            live = {n: v for n, v in self._views.items() if v.seeded}
            view_counters = {name: OpCounters() for name in live}
            report.views = {
                name: {
                    "rows_added": 0, "rows_removed": 0, "seconds": 0.0,
                    "engine_runs": 0, "indexed_deletes": 0,
                }
                for name in live
            }
            for name, (eff_ins, eff_del) in effective.items():
                relation = self._relations[name]
                for view_name, view in live.items():
                    with obs.tracer.span(
                        "view.maintain", view=view_name, relation=name
                    ) as vspan:
                        runs, lookups = view.engine_runs, view.indexed_deletes
                        v0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
                        added, removed = view.apply_delta(
                            name, eff_ins, eff_del,
                            counters=view_counters[view_name],
                        )
                        entry = report.views[view_name]
                        entry["seconds"] += time.perf_counter() - v0  # lint: disable=determinism -- reporting-only timing; never feeds results
                        for key, value in (
                            ("rows_added", added),
                            ("rows_removed", removed),
                            ("engine_runs", view.engine_runs - runs),
                            (
                                "indexed_deletes",
                                view.indexed_deletes - lookups,
                            ),
                        ):
                            entry[key] += value
                            vspan.set(key, value)
                with obs.tracer.span(
                    "storage.apply", relation=name,
                    inserts=len(eff_ins), deletes=len(eff_del),
                ):
                    relation.index.apply_effective(eff_ins, eff_del)
                report.applied[name] = (len(eff_ins), len(eff_del))
            for view_name, view in live.items():
                report.views[view_name].update(
                    rows=len(view), ops=view_counters[view_name].snapshot()
                )
            report.seconds = time.perf_counter() - t0  # lint: disable=determinism -- reporting-only timing; never feeds results
            bspan.set("updates", report.updates_applied)
        if obs.enabled:
            obs.metrics.histogram(
                "batch_apply_seconds",
                "Catalog.apply_batch wall time (WAL + views + storage).",
            ).observe(report.seconds)
            for view_name, entry in report.views.items():
                obs.metrics.histogram(
                    "view_maintain_seconds",
                    "Per-batch live-view maintenance wall time.",
                    labels={"view": view_name},
                ).observe(entry["seconds"])
                for kind, key in (
                    ("engine", "engine_runs"), ("indexed", "indexed_deletes")
                ):
                    obs.metrics.counter(
                        "view_delta_terms_total",
                        "Live-view delta terms by how they were answered: "
                        "insert terms run through the engine, deleted "
                        "tuples read from the projection index.",
                        labels={"view": view_name, "kind": kind},
                    ).inc(entry[key])
        return report

    # ------------------------------------------------------------------
    # FLUSH / COMPACT: journalled statements that touch no index
    # ------------------------------------------------------------------

    def flush(self, name: Optional[str] = None) -> None:
        """Journal a flush of one relation (or all).

        Every write already lands in its relation's index, so there is
        nothing to seal: the statement validates ``name``, commits its
        WAL record and bumps the generation, so scripts that issue it
        and logs that hold it keep running and replaying.
        """
        self._check_target(name)
        with self.obs.tracer.span(
            "flush", relation=name if name is not None else "*"
        ):
            if self._wal is not None and not self._replaying:
                from repro.testing.faults import crashpoint

                self._log_control("flush", {"name": name})
                crashpoint("catalog.flush.mutate")
            self.generation += 1

    def compact(self, name: Optional[str] = None) -> None:
        """Journal a compaction of one relation (or all); like
        :meth:`flush`, there is nothing to merge."""
        self._check_target(name)
        with self.obs.tracer.span(
            "compact", relation=name if name is not None else "*"
        ):
            if self._wal is not None and not self._replaying:
                from repro.testing.faults import crashpoint

                self._log_control("compact", {"name": name})
                crashpoint("catalog.compact.mutate")
            self.generation += 1

    def _check_target(self, name: Optional[str]) -> None:
        if name is not None:
            self.relation(name)  # raises KeyError for an unknown name

    # ------------------------------------------------------------------
    # Durability: snapshot / recover / verifiable state
    # ------------------------------------------------------------------

    def snapshot(self, data_dir: Optional[str] = None,
                 truncate_wal: bool = False):
        """Serialize the full catalog state into a new snapshot.

        ``data_dir`` defaults to the directory this catalog was opened
        from (:func:`repro.dynamic.durable.open_catalog`).  With
        ``truncate_wal``, WAL segments wholly covered by the snapshot
        are deleted afterwards.  Returns a
        :class:`~repro.dynamic.snapshot.SnapshotInfo`.
        """
        from repro.dynamic import snapshot as snapshot_mod

        target = data_dir if data_dir is not None else self._data_dir
        if target is None:
            raise ValueError(
                "no data directory: pass data_dir or open the catalog "
                "durably (repro.dynamic.durable.open_catalog)"
            )
        obs = self.obs
        t0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
        with obs.tracer.span("snapshot", truncate_wal=truncate_wal) as span:
            fs = self._wal.fs if self._wal is not None else None
            info = snapshot_mod.write_snapshot(self, target, fs=fs)
            if truncate_wal and self._wal is not None:
                self._wal.truncate_through(info.wal_lsn)
            span.set("wal_lsn", info.wal_lsn)
        if obs.enabled:
            obs.metrics.histogram(
                "snapshot_seconds",
                "Catalog snapshot (serialize + optional WAL truncate) "
                "wall time.",
            ).observe(time.perf_counter() - t0)  # lint: disable=determinism -- reporting-only timing; never feeds results
        return info

    def state_roots(self) -> dict:
        """Merkle roots over the current live state (hex-encoded)."""
        from repro.dynamic import merkle

        roots = {
            name: merkle.relation_root(rel.index.tuples())
            for name, rel in self._relations.items()
        }
        return {
            "relations": {n: r.hex() for n, r in roots.items()},
            "catalog_root": merkle.catalog_root(roots).hex(),
        }

    def state_proof(self, name: str, row=None) -> dict:
        """Compact inclusion proof for a relation (and optionally one
        row) against the catalog root — checkable offline with
        :func:`repro.dynamic.merkle.verify_relation_proof`."""
        from repro.dynamic import merkle

        if name not in self._relations:
            raise KeyError(f"no relation named {name!r}")
        rows_by_relation = {
            rel_name: rel.index.tuples()
            for rel_name, rel in self._relations.items()
        }
        return merkle.relation_proof(name, rows_by_relation, row=row)

    def stats(self) -> dict:
        stats = {
            "batches_applied": self.batches_applied,
            "relations": {
                name: rel.index.stats()
                for name, rel in self._relations.items()
            },
            "views": {
                name: view.stats() for name, view in self._views.items()
            },
        }
        if self._wal is not None:
            stats["wal"] = self._wal.stats()
        return stats

    def __repr__(self) -> str:
        return (
            f"Catalog({len(self._relations)} relations, "
            f"{len(self._views)} views, "
            f"{self.batches_applied} batches applied)"
        )

"""Durable catalogs: open, crash-recover, and verify a data directory.

A data directory is the unit of durability::

    <data_dir>/
        wal/wal-00000001.log ...     (repro.dynamic.wal)
        snapshots/snap-00000001/ ... (repro.dynamic.snapshot)

:func:`open_catalog` is the single entry point serving code uses: it
recovers whatever state the directory holds (newest valid snapshot +
replay of the WAL records past its recorded LSN — including ``!create``
/ ``!view`` DDL, so a WAL-only directory with no snapshot at all
rebuilds from scratch), verifies the snapshot against its Merkle
roots, then re-attaches the WAL so subsequent mutations keep being
logged.  An empty directory is simply a fresh durable catalog.

Recovery replays records through the catalog's ordinary mutation
methods with logging suppressed, so storage and report bookkeeping
behave exactly as they did before the crash — which is
what makes the fault suite's "pre-batch or post-batch, never between"
assertion provable.  Live views are the one exception: their contents
are a function of relation state, so replay registers them unseeded,
skips their maintenance, and materializes each once after the last
record instead of once at registration plus one round per record.

:func:`verify_state` is the audit path (CLI ``repro verify-state``):
it re-derives every hash the manifest claims — the manifest checksum,
each data file's SHA-256, the per-relation Merkle roots, the catalog
root — and reports mismatches instead of trusting the stored values.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.engine import ExecSpec
from repro.dynamic import merkle
from repro.dynamic import snapshot as snapshot_mod
from repro.dynamic.catalog import Catalog
from repro.dynamic.snapshot import SnapshotError
from repro.dynamic.wal import (
    KIND_BATCH,
    KIND_COMPACT,
    KIND_CREATE,
    KIND_FLUSH,
    KIND_VIEW,
    CorruptWalError,
    WriteAheadLog,
)
from repro.storage.delta import DeltaRelation
from repro.testing.faults import FileSystem
from repro.util.counters import OpCounters

WAL_DIR = "wal"


@dataclass
class RecoveryReport:
    """What a recovery did, for logs / the ``repro recover`` CLI."""

    data_dir: str
    snapshot_path: Optional[str] = None
    snapshot_id: Optional[int] = None
    snapshot_lsn: int = 0
    last_lsn: int = 0
    records_replayed: int = 0
    batches_replayed: int = 0
    #: relation name -> live row count after recovery
    relations: Dict[str, int] = field(default_factory=dict)
    #: view name -> row count after recovery
    views: Dict[str, int] = field(default_factory=dict)
    #: True when the snapshot's Merkle roots were recomputed and matched.
    verified: bool = False
    wal_repairs: List[str] = field(default_factory=list)
    catalog_root: str = ""
    seconds: float = 0.0

    def summary(self) -> str:
        source = (
            f"snapshot {self.snapshot_id} (lsn {self.snapshot_lsn})"
            if self.snapshot_id is not None
            else "no snapshot"
        )
        return (
            f"recovered from {source} + {self.records_replayed} WAL "
            f"record(s) to lsn {self.last_lsn}: "
            f"{len(self.relations)} relation(s), "
            f"{len(self.views)} view(s)"
            + (", verified" if self.verified else "")
        )


def _restore_from_snapshot(
    catalog: Catalog,
    manifest: dict,
    states: Dict[str, snapshot_mod.RelationState],
    verify: bool,
    report: RecoveryReport,
) -> None:
    roots: Dict[str, bytes] = {}
    for name, state in states.items():
        delta = DeltaRelation(
            state.rows, arity=len(state.attributes), counters=OpCounters()
        )
        catalog._adopt_relation(name, state.attributes, delta)
        if verify:
            roots[name] = merkle.relation_root(delta.tuples())
    if verify:
        for name, root in roots.items():
            claimed = manifest["relations"][name]["root"]
            if root.hex() != claimed:
                raise SnapshotError(
                    f"{report.snapshot_path}: relation {name!r} "
                    f"restores to Merkle root {root.hex()[:16]}..., "
                    f"manifest claims {claimed[:16]}..."
                )
        catalog_root = merkle.catalog_root(roots).hex()
        if catalog_root != manifest["catalog_root"]:
            raise SnapshotError(
                f"{report.snapshot_path}: catalog root mismatch"
            )
        report.verified = True
    catalog.generation = manifest["generation"]
    catalog.batches_applied = manifest["batches_applied"]
    for view_name, entry in manifest["views"].items():
        catalog.register_view(
            view_name, entry["relations"], ExecSpec.from_record(entry)
        )


def _replay_record(catalog: Catalog, record) -> None:
    if record.kind == KIND_BATCH:
        catalog.apply_batch(record.updates)
    elif record.kind == KIND_CREATE:
        payload = record.payload
        catalog.create_relation(
            payload["name"],
            payload["attributes"],
            [tuple(row) for row in payload.get("rows", ())],
        )
    elif record.kind == KIND_VIEW:
        payload = record.payload
        catalog.register_view(
            payload["name"],
            payload["relations"],
            ExecSpec.from_record(payload),
        )
    elif record.kind == KIND_FLUSH:
        catalog.flush(record.payload.get("name"))
    elif record.kind == KIND_COMPACT:
        catalog.compact(record.payload.get("name"))
    else:
        raise CorruptWalError(
            f"replay: unknown record kind {record.kind!r} at lsn "
            f"{record.lsn}"
        )


def recover_catalog(
    data_dir: str,
    fsync: str = "batch",
    segment_limit: Optional[int] = None,
    verify: bool = True,
    attach: bool = True,
    fs: Optional[FileSystem] = None,
) -> Tuple[Catalog, RecoveryReport]:
    """Newest valid snapshot + WAL suffix replay -> a live catalog.

    ``verify`` recomputes the snapshot's Merkle roots before trusting
    it.  With ``attach`` (the default) the WAL is re-attached so the
    catalog keeps journaling; pass ``attach=False`` for a read-only
    inspection (the WAL file handle is closed).
    """
    t0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
    report = RecoveryReport(data_dir=data_dir)
    wal = WriteAheadLog(
        os.path.join(data_dir, WAL_DIR),
        fsync=fsync,
        segment_limit=segment_limit,
        fs=fs,
    )
    try:
        report.wal_repairs = list(wal.repairs)
        catalog = Catalog()
        newest = snapshot_mod.newest_valid_snapshot(data_dir, fs=fs)
        catalog._replaying = True
        try:
            if newest is not None:
                snap_id, snap_path, _ = newest
                report.snapshot_id = snap_id
                report.snapshot_path = snap_path
                manifest, states = snapshot_mod.load_snapshot(
                    snap_path, verify=verify, fs=fs
                )
                report.snapshot_lsn = manifest["wal_lsn"]
                _restore_from_snapshot(
                    catalog, manifest, states, verify, report
                )
            for record in wal.replay(after_lsn=report.snapshot_lsn):
                _replay_record(catalog, record)
                report.records_replayed += 1
                if record.kind == KIND_BATCH:
                    report.batches_replayed += 1
            # Views were registered unseeded and skipped by every
            # replayed batch; one evaluation each on the final state.
            catalog.seed_views()
        finally:
            catalog._replaying = False
        report.last_lsn = wal.last_lsn
        report.relations = {
            name: len(catalog.relation(name).index)
            for name in catalog.relation_names()
        }
        report.views = {
            name: len(catalog.view(name))
            for name in catalog.view_names()
        }
        report.catalog_root = catalog.state_roots()["catalog_root"]
    except BaseException:
        wal.close()
        raise
    if attach:
        catalog.attach_wal(wal, data_dir)
    else:
        wal.close()
    report.seconds = time.perf_counter() - t0  # lint: disable=determinism -- reporting-only timing; never feeds results
    return catalog, report


def open_catalog(
    data_dir: str,
    fsync: str = "batch",
    segment_limit: Optional[int] = None,
    verify: bool = True,
    fs: Optional[FileSystem] = None,
) -> Tuple[Catalog, RecoveryReport]:
    """Open (creating if absent) a durable catalog at ``data_dir``."""
    return recover_catalog(
        data_dir,
        fsync=fsync,
        segment_limit=segment_limit,
        verify=verify,
        attach=True,
        fs=fs,
    )


# ----------------------------------------------------------------------
# State verification (repro verify-state)
# ----------------------------------------------------------------------


@dataclass
class StateReport:
    """Outcome of a full state audit of a data directory."""

    data_dir: str
    ok: bool = True
    snapshot_id: Optional[int] = None
    snapshot_path: Optional[str] = None
    problems: List[str] = field(default_factory=list)
    #: Current (post-WAL-replay) roots, hex; empty when recovery failed.
    relation_roots: Dict[str, str] = field(default_factory=dict)
    catalog_root: str = ""
    wal_last_lsn: int = 0
    records_replayed: int = 0

    def lines(self) -> List[str]:
        out = []
        if self.snapshot_id is not None:
            out.append(
                f"snapshot {self.snapshot_id}: "
                f"{os.path.basename(self.snapshot_path)}"
            )
        else:
            out.append("no snapshot (WAL-only state)")
        for problem in self.problems:
            out.append(f"FAIL {problem}")
        if self.ok:
            for name in sorted(self.relation_roots):
                out.append(
                    f"OK relation {name}: root "
                    f"{self.relation_roots[name][:16]}..."
                )
            out.append(
                f"OK catalog root {self.catalog_root[:16]}... "
                f"(wal lsn {self.wal_last_lsn}, "
                f"{self.records_replayed} record(s) replayed)"
            )
        return out


def verify_state(
    data_dir: str, fs: Optional[FileSystem] = None
) -> StateReport:
    """Audit a data directory: manifest, file hashes, Merkle roots, WAL.

    Unlike recovery — which silently skips an *incomplete* newest
    snapshot (legitimate crash debris) — verification is strict about
    the newest snapshot that claims to be complete: a checksum, file
    hash, or root mismatch there marks the state not-ok.
    """
    report = StateReport(data_dir=data_dir)
    snapshots = snapshot_mod.list_snapshots(data_dir)
    chosen: Optional[Tuple[int, str]] = None
    for snap_id, path in snapshots:
        if os.path.exists(os.path.join(path, snapshot_mod.MANIFEST)):
            chosen = (snap_id, path)
            break
        # No manifest at all: incomplete snapshot (crash debris), skip.
    if chosen is not None:
        report.snapshot_id, report.snapshot_path = chosen
        try:
            manifest, states = snapshot_mod.load_snapshot(
                chosen[1], verify=True, fs=fs
            )
            for name, state in states.items():
                root = merkle.relation_root(state.rows).hex()
                claimed = manifest["relations"][name]["root"]
                if root != claimed:
                    report.ok = False
                    report.problems.append(
                        f"relation {name!r}: files restore to root "
                        f"{root[:16]}..., manifest claims "
                        f"{claimed[:16]}..."
                    )
        except SnapshotError as exc:
            report.ok = False
            report.problems.append(str(exc))
    if not report.ok:
        return report
    try:
        catalog, recovery = recover_catalog(
            data_dir, verify=True, attach=False, fs=fs
        )
    except (SnapshotError, CorruptWalError) as exc:
        report.ok = False
        report.problems.append(str(exc))
        return report
    roots = catalog.state_roots()
    report.relation_roots = roots["relations"]
    report.catalog_root = roots["catalog_root"]
    report.wal_last_lsn = recovery.last_lsn
    report.records_replayed = recovery.records_replayed
    return report

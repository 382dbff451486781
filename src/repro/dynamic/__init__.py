"""Dynamic data subsystem: writable relations, live views, streaming.

Layers (ISSUE 2 / the ROADMAP's "data that changes while queries stay
fresh" direction):

* storage — :class:`repro.storage.delta.DeltaRelation`, a writable
  index: one FlatTrie that every write splices (or, for a batch past
  its splice budget, rebuilds) before returning, exposing the unchanged
  index-tuple / handle API;
* maintenance — :class:`repro.core.incremental.LiveJoin`, a
  materialized join view kept fresh by Minesweeper-evaluated delta
  terms;
* serving — :class:`Catalog`, which registers named relations, applies
  :class:`Update` batches, and serves registered live queries (CLI:
  ``repro stream``);
* durability (ISSUE 6) — :class:`repro.dynamic.wal.WriteAheadLog`
  (log-before-mutate journaling), :mod:`repro.dynamic.snapshot`
  (atomic snapshot/restore of every relation's live rows), and
  :func:`open_catalog` / :func:`recover_catalog` /
  :func:`verify_state` (:mod:`repro.dynamic.durable`), with
  Merkle-hashed state roots (:mod:`repro.dynamic.merkle`) binding what
  was recovered to what was committed.
"""

from repro.core.incremental import LiveJoin
from repro.dynamic.catalog import (
    DELETE,
    INSERT,
    BatchReport,
    Catalog,
    Update,
    net_updates,
)
from repro.dynamic.durable import (
    RecoveryReport,
    StateReport,
    open_catalog,
    recover_catalog,
    verify_state,
)
from repro.dynamic.log import (
    UncommittedTailWarning,
    format_update,
    iter_batches,
    parse_update,
    read_log,
    write_log,
)
from repro.dynamic.snapshot import SnapshotError, SnapshotInfo, write_snapshot
from repro.dynamic.wal import CorruptWalError, WriteAheadLog
from repro.dynamic.streams import (
    build_catalog,
    intersection_stream,
    replay_with_recompute,
    triangle_stream,
)
from repro.storage.delta import DeltaRelation, StaleHandleError

__all__ = [
    "BatchReport",
    "Catalog",
    "CorruptWalError",
    "DELETE",
    "DeltaRelation",
    "INSERT",
    "LiveJoin",
    "RecoveryReport",
    "SnapshotError",
    "SnapshotInfo",
    "StaleHandleError",
    "StateReport",
    "UncommittedTailWarning",
    "Update",
    "WriteAheadLog",
    "build_catalog",
    "format_update",
    "intersection_stream",
    "iter_batches",
    "net_updates",
    "open_catalog",
    "parse_update",
    "read_log",
    "recover_catalog",
    "replay_with_recompute",
    "triangle_stream",
    "verify_state",
    "write_log",
    "write_snapshot",
]

"""Snapshot/restore: the durable image of a catalog's live state.

A snapshot serializes every relation's live rows into plain text files
under ``<data_dir>/snapshots/snap-<id>/``, described by a
``MANIFEST.json`` recording the schema, registered views, catalog
generation, the WAL position the image corresponds to, per-file SHA-256
hashes, and the Merkle state roots (:mod:`repro.dynamic.merkle`).

The manifest is the snapshot's commit record: it is written to a temp
file and atomically renamed into place *last*, so a crash anywhere
during snapshotting leaves a directory without a valid manifest, which
recovery skips in favour of the previous snapshot (the WAL still holds
everything since then).  Loading verifies the manifest's own checksum
and every data file's hash, so a tampered or bit-rotten rows file is
rejected, never silently served.

Format ``repro-snapshot-v2`` (written): one ``<rel>.rows`` file per
relation, ``v1,v2,...`` per line in lexicographic order; its manifest
entry carries ``rows`` (the file name), ``sha256``, ``live_rows`` (the
row count) and ``root`` (the relation's Merkle root).

Format ``repro-snapshot-v1`` is read, never written.  It stored each
relation as a stack of runs (``<rel>.run<k>.rows`` /
``<rel>.run<k>.tombs``, oldest first) plus a ``<rel>.memtable`` of
``+row`` (insert) / ``-row`` (tombstone) entries; the reader folds them
into the live row set, the newest entry for a row winning.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.dynamic import merkle
from repro.testing.faults import REAL_FS, FileSystem, crashpoint

FORMAT = "repro-snapshot-v2"
FORMAT_V1 = "repro-snapshot-v1"
MANIFEST = "MANIFEST.json"
SNAPSHOTS_DIR = "snapshots"
_SNAP_PREFIX = "snap-"

Row = Tuple[int, ...]


class SnapshotError(ValueError):
    """A snapshot directory is missing, incomplete, or fails checks."""


class SnapshotInfo(NamedTuple):
    path: str
    snapshot_id: int
    wal_lsn: int
    generation: int
    catalog_root: str
    seconds: float


def _snap_dir_id(name: str) -> Optional[int]:
    if not name.startswith(_SNAP_PREFIX):
        return None
    tail = name[len(_SNAP_PREFIX):]
    return int(tail) if tail.isdigit() else None


def list_snapshots(data_dir: str) -> List[Tuple[int, str]]:
    """``(id, path)`` of every snapshot directory, newest first."""
    root = os.path.join(data_dir, SNAPSHOTS_DIR)
    if not os.path.isdir(root):
        return []
    found = []
    for name in os.listdir(root):
        snap_id = _snap_dir_id(name)
        if snap_id is not None:
            found.append((snap_id, os.path.join(root, name)))
    return sorted(found, reverse=True)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _manifest_checksum(manifest: dict) -> str:
    trimmed = {k: v for k, v in manifest.items() if k != "checksum"}
    return _sha256(
        json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    )


def _rows_text(rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def _parse_rows(text: str, path: str) -> List[Row]:
    rows: List[Row] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append(tuple(int(v) for v in line.split(",")))
        except ValueError:
            raise SnapshotError(
                f"{path}: line {lineno}: non-integer row {line!r}"
            ) from None
    return rows


def _write_file(fs: FileSystem, path: str, text: str) -> str:
    """Write + fsync one snapshot data file; returns its SHA-256."""
    with fs.open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
        fs.fsync(handle)
    return _sha256(text)


def write_snapshot(
    catalog, data_dir: str, fs: Optional[FileSystem] = None
) -> SnapshotInfo:
    """Serialize ``catalog`` into a new snapshot under ``data_dir``.

    The catalog's attached WAL (if any) provides the recorded LSN:
    replay after restore starts just past it.  Safe to call on a
    non-durable catalog too (LSN 0 — restore then replays nothing).
    """
    t0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
    fs = fs if fs is not None else REAL_FS
    existing = list_snapshots(data_dir)
    snap_id = (existing[0][0] + 1) if existing else 1
    snap_path = os.path.join(
        data_dir, SNAPSHOTS_DIR, f"{_SNAP_PREFIX}{snap_id:08d}"
    )
    fs.makedirs(snap_path)
    crashpoint("snapshot.begin")
    wal = catalog.wal
    wal_lsn = wal.last_lsn if wal is not None else 0
    relations: Dict[str, dict] = {}
    roots: Dict[str, bytes] = {}
    for name in catalog.relation_names():
        relation = catalog.relation(name)
        live = relation.index.tuples()
        rows_file = f"{name}.rows"
        roots[name] = merkle.relation_root(live)
        relations[name] = {
            "attributes": list(relation.attributes),
            "rows": rows_file,
            "sha256": _write_file(
                fs, os.path.join(snap_path, rows_file), _rows_text(live)
            ),
            "live_rows": len(live),
            "root": roots[name].hex(),
        }
        crashpoint("snapshot.relation")
    views = {}
    for view_name in catalog.view_names():
        view = catalog.view(view_name)
        views[view_name] = {
            "relations": [r.name for r in view.relations],
            **view.spec.to_record(),
        }
    manifest = {
        "format": FORMAT,
        "snapshot_id": snap_id,
        "generation": catalog.generation,
        "batches_applied": catalog.batches_applied,
        "wal_lsn": wal_lsn,
        "relations": relations,
        "views": views,
        "catalog_root": merkle.catalog_root(roots).hex(),
    }
    manifest["checksum"] = _manifest_checksum(manifest)
    manifest_path = os.path.join(snap_path, MANIFEST)
    tmp_path = manifest_path + ".tmp"
    with fs.open(tmp_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        fs.fsync(handle)
    crashpoint("snapshot.manifest.write")
    crashpoint("snapshot.rename")
    fs.replace(tmp_path, manifest_path)
    # The rename (and every data file created above) is only durable
    # once the directory entries themselves are synced; without this a
    # power loss can make the manifest — or the whole snapshot — vanish.
    fs.fsync_dir(snap_path)
    fs.fsync_dir(os.path.dirname(snap_path))
    return SnapshotInfo(
        path=snap_path,
        snapshot_id=snap_id,
        wal_lsn=wal_lsn,
        generation=catalog.generation,
        catalog_root=manifest["catalog_root"],
        seconds=time.perf_counter() - t0,  # lint: disable=determinism -- reporting-only timing; never feeds results
    )


def load_manifest(snap_path: str, fs: Optional[FileSystem] = None) -> dict:
    """Read and checksum-validate a snapshot's manifest."""
    fs = fs if fs is not None else REAL_FS
    manifest_path = os.path.join(snap_path, MANIFEST)
    try:
        with fs.open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise SnapshotError(
            f"{snap_path}: no manifest (incomplete snapshot)"
        ) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"{manifest_path}: unreadable: {exc}") from None
    if manifest.get("format") not in (FORMAT, FORMAT_V1):
        raise SnapshotError(
            f"{manifest_path}: unknown format "
            f"{manifest.get('format')!r}"
        )
    if manifest.get("checksum") != _manifest_checksum(manifest):
        raise SnapshotError(
            f"{manifest_path}: manifest checksum mismatch (tampered or "
            "corrupt manifest)"
        )
    return manifest


class RelationState(NamedTuple):
    attributes: Tuple[str, ...]
    #: live rows, sorted
    rows: List[Row]


def load_snapshot(
    snap_path: str,
    verify: bool = True,
    fs: Optional[FileSystem] = None,
) -> Tuple[dict, Dict[str, RelationState]]:
    """``(manifest, per-relation state)`` from a snapshot directory.

    With ``verify`` (the default), every data file's SHA-256 and row
    count must match the manifest — a tampered file raises
    :class:`SnapshotError` instead of loading.
    """
    fs = fs if fs is not None else REAL_FS
    manifest = load_manifest(snap_path, fs=fs)

    def read_text(filename: str, expected_sha: str) -> Tuple[str, str]:
        path = os.path.join(snap_path, filename)
        try:
            with fs.open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise SnapshotError(f"{path}: unreadable: {exc}") from None
        if verify and _sha256(text) != expected_sha:
            raise SnapshotError(
                f"{path}: content hash mismatch (tampered or corrupt "
                "snapshot file)"
            )
        return text, path

    def read_rows(filename: str, expected_sha: str, count: int) -> List[Row]:
        text, path = read_text(filename, expected_sha)
        rows = _parse_rows(text, path)
        if verify and len(rows) != count:
            raise SnapshotError(
                f"{path}: {len(rows)} rows, manifest says {count}"
            )
        return rows

    states: Dict[str, RelationState] = {}
    for name, entry in manifest["relations"].items():
        if manifest["format"] == FORMAT_V1:
            rows = _v1_live_rows(entry, read_text, read_rows)
        else:
            rows = read_rows(
                entry["rows"], entry["sha256"], entry["live_rows"]
            )
        states[name] = RelationState(tuple(entry["attributes"]), rows)
    return manifest, states


def _v1_live_rows(entry: dict, read_text, read_rows) -> List[Row]:
    """A v1 relation's live rows: its runs (oldest first), then its
    memtable, folded so that the newest entry for a row wins."""
    live: Dict[Row, bool] = {}
    for run in entry["runs"]:
        for row in read_rows(run["rows"], run["rows_sha256"],
                             run["rows_count"]):
            live[row] = True
        for row in read_rows(run["tombstones"], run["tombstones_sha256"],
                             run["tombstones_count"]):
            live[row] = False
    memtable = entry["memtable"]
    text, path = read_text(memtable["file"], memtable["sha256"])
    for row, is_live in _parse_memtable(text, path):
        live[row] = is_live
    return sorted(row for row, is_live in live.items() if is_live)


def _parse_memtable(text: str, path: str) -> List[Tuple[Row, bool]]:
    entries: List[Tuple[Row, bool]] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line[0] not in "+-":
            raise SnapshotError(
                f"{path}: line {lineno}: expected '+row' or '-row', "
                f"got {line!r}"
            )
        try:
            row = tuple(int(v) for v in line[1:].split(","))
        except ValueError:
            raise SnapshotError(
                f"{path}: line {lineno}: non-integer row {line!r}"
            ) from None
        entries.append((row, line[0] == "+"))
    return entries


def newest_valid_snapshot(
    data_dir: str, fs: Optional[FileSystem] = None
) -> Optional[Tuple[int, str, dict]]:
    """The newest snapshot whose manifest validates, or ``None``.

    Incomplete snapshots (a crash before the manifest rename) are
    skipped silently — that is the designed crash behaviour, not an
    error; recovery falls back to the previous image + longer WAL
    replay.
    """
    for snap_id, path in list_snapshots(data_dir):
        try:
            manifest = load_manifest(path, fs=fs)
        except SnapshotError:
            continue
        return snap_id, path, manifest
    return None

"""Snapshot/restore: the durable image of a catalog's LSM state.

A snapshot serializes every relation's exact storage layout — each
immutable run's rows and tombstones, plus the pending memtable — into
plain text files under ``<data_dir>/snapshots/snap-<id>/``, described
by a ``MANIFEST.json`` recording the schema, registered views, catalog
generation, the WAL position the image corresponds to, per-file SHA-256
hashes, and the Merkle state roots (:mod:`repro.dynamic.merkle`).

The manifest is the snapshot's commit record: it is written to a temp
file and atomically renamed into place *last*, so a crash anywhere
during snapshotting leaves a directory without a valid manifest, which
recovery skips in favour of the previous snapshot (the WAL still holds
everything since then).  Loading verifies the manifest's own checksum
and every data file's hash, so a tampered or bit-rotten run file is
rejected, never silently served.

File formats (all text, one entry per line):

* ``<rel>.run<k>.rows`` / ``<rel>.run<k>.tombs`` — ``v1,v2,...``
* ``<rel>.memtable`` — ``+v1,v2`` (live insert) / ``-v1,v2``
  (tombstone), in memtable insertion order.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.dynamic import merkle
from repro.testing.faults import REAL_FS, FileSystem, crashpoint

FORMAT = "repro-snapshot-v1"
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


def _memtable_text(entries) -> str:
    return "".join(
        ("+" if live else "-") + ",".join(map(str, row)) + "\n"
        for row, live in entries
    )


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
        delta = relation.index
        runs = []
        for k, (rows, tombstones) in enumerate(delta.run_states()):
            rows_file = f"{name}.run{k:02d}.rows"
            tombs_file = f"{name}.run{k:02d}.tombs"
            rows_text = _rows_text(rows)
            tombs_text = _rows_text(tombstones)
            runs.append(
                {
                    "rows": rows_file,
                    "rows_sha256": _write_file(
                        fs, os.path.join(snap_path, rows_file), rows_text
                    ),
                    "rows_count": len(rows),
                    "tombstones": tombs_file,
                    "tombstones_sha256": _write_file(
                        fs, os.path.join(snap_path, tombs_file), tombs_text
                    ),
                    "tombstones_count": len(tombstones),
                }
            )
        memtable_file = f"{name}.memtable"
        memtable_entries = delta.memtable_state()
        memtable_sha = _write_file(
            fs,
            os.path.join(snap_path, memtable_file),
            _memtable_text(memtable_entries),
        )
        live = delta.tuples()
        roots[name] = merkle.relation_root(live)
        relations[name] = {
            "attributes": list(relation.attributes),
            "memtable_limit": delta.memtable_limit,
            "runs": runs,
            "memtable": {
                "file": memtable_file,
                "sha256": memtable_sha,
                "entries": len(memtable_entries),
            },
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
        "memtable_limit": catalog.memtable_limit,
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
    if manifest.get("format") != FORMAT:
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
    memtable_limit: Optional[int]
    runs: List[Tuple[List[Row], List[Row]]]
    memtable: List[Tuple[Row, bool]]


def load_snapshot(
    snap_path: str,
    verify: bool = True,
    fs: Optional[FileSystem] = None,
) -> Tuple[dict, Dict[str, RelationState]]:
    """``(manifest, per-relation state)`` from a snapshot directory.

    With ``verify`` (the default), every data file's SHA-256 must match
    the manifest — a tampered run/tombstone/memtable file raises
    :class:`SnapshotError` instead of loading.
    """
    fs = fs if fs is not None else REAL_FS
    manifest = load_manifest(snap_path, fs=fs)

    def read_file(filename: str, expected_sha: str) -> str:
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
        return text

    states: Dict[str, RelationState] = {}
    for name, entry in manifest["relations"].items():
        runs: List[Tuple[List[Row], List[Row]]] = []
        for run in entry["runs"]:
            rows = _parse_rows(
                read_file(run["rows"], run["rows_sha256"]), run["rows"]
            )
            tombs = _parse_rows(
                read_file(run["tombstones"], run["tombstones_sha256"]),
                run["tombstones"],
            )
            if verify and (
                len(rows) != run["rows_count"]
                or len(tombs) != run["tombstones_count"]
            ):
                raise SnapshotError(
                    f"{snap_path}: {name} run file row counts disagree "
                    "with manifest"
                )
            runs.append((rows, tombs))
        memtable = _parse_memtable(
            read_file(
                entry["memtable"]["file"], entry["memtable"]["sha256"]
            ),
            entry["memtable"]["file"],
        )
        states[name] = RelationState(
            attributes=tuple(entry["attributes"]),
            memtable_limit=entry["memtable_limit"],
            runs=runs,
            memtable=memtable,
        )
    return manifest, states


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

"""Data directories written in snapshot format v1 stay readable.

``tests/data/catalog_v1`` was written by the v1 snapshot writer.  Its
snapshot 1 holds relation R as three runs (the second with a tombstone
for ``(1, 2)``) plus a memtable that tombstones ``(2, 3)`` and
re-inserts ``(1, 2)``, and relation S as one run plus a memtable with
inserts and a tombstone.  The WAL after the snapshot holds batches and
``!flush`` / ``!compact`` records.  The rows and Merkle roots below are
the ones that writer's own recovery produced for the same directory.
"""

import os
import shutil

import pytest

from repro.cli import main
from repro.dynamic import merkle, open_catalog
from repro.dynamic.snapshot import (
    FORMAT,
    FORMAT_V1,
    SnapshotError,
    load_manifest,
    load_snapshot,
)

DATA = os.path.join(os.path.dirname(__file__), "data", "catalog_v1")
SNAP = os.path.join("snapshots", "snap-00000001")

#: live rows at the snapshot: the v1 runs and memtable, folded.
SNAPSHOT_ROWS = {
    "R": [(1, 2), (3, 4), (4, 5), (5, 6)],
    "S": [(2, 5), (3, 6), (4, 7), (5, 8)],
}
#: live rows after replaying the WAL suffix.
FINAL_ROWS = {
    "R": [(1, 2), (2, 4), (3, 4), (5, 6), (6, 7)],
    "S": [(2, 5), (4, 7), (5, 8), (6, 9)],
}
FINAL_VIEW_Q = [(1, 2, 5), (2, 4, 7), (3, 4, 7), (5, 6, 9)]
FINAL_ROOTS = {
    "relations": {
        "R": "4979185a859bb3b55c3e70c55350c635"
             "cfacdca48eb6c1fd2d50942bf6b7f07d",
        "S": "c5abea662aae5041ce02bee128b272bd"
             "9b9610b2c2a2d7ceb0d5a060b9b178eb",
    },
    "catalog_root": "7a1426fb72370933f91be32d64c08ba4"
                    "a48479f89a48bde4fc2aed2a02acca7d",
}


@pytest.fixture
def data_dir(tmp_path):
    """A private copy: opening a directory re-attaches its WAL."""
    target = str(tmp_path / "catalog_v1")
    shutil.copytree(DATA, target)
    return target


def test_fixture_is_a_layered_v1_directory():
    manifest = load_manifest(os.path.join(DATA, SNAP))
    assert manifest["format"] == FORMAT_V1
    r = manifest["relations"]["R"]
    assert len(r["runs"]) >= 2
    assert any(run["tombstones_count"] for run in r["runs"])
    assert r["memtable"]["entries"] > 0
    with open(os.path.join(DATA, "wal", "wal-00000001.log")) as handle:
        wal = handle.read()
    assert "!flush" in wal and "!compact" in wal


def test_v1_snapshot_folds_to_its_manifest_roots():
    manifest, states = load_snapshot(os.path.join(DATA, SNAP))
    assert {n: s.rows for n, s in states.items()} == SNAPSHOT_ROWS
    for name, state in states.items():
        assert state.attributes == tuple(
            manifest["relations"][name]["attributes"]
        )
        assert merkle.relation_root(state.rows).hex() == (
            manifest["relations"][name]["root"]
        )


def test_open_catalog_recovers_the_v1_state(data_dir):
    catalog, report = open_catalog(data_dir)
    try:
        assert report.snapshot_id == 1 and report.verified
        assert report.records_replayed == 6
        assert {
            name: catalog.relation(name).tuples()
            for name in catalog.relation_names()
        } == FINAL_ROWS
        assert catalog.query("Q") == FINAL_VIEW_Q
        assert catalog.state_roots() == FINAL_ROOTS
        info = catalog.snapshot()
    finally:
        catalog.wal.close()
    # The next snapshot is written in the current format and recovers
    # to the same state.
    assert load_manifest(info.path)["format"] == FORMAT
    recovered, report = open_catalog(data_dir)
    try:
        assert report.snapshot_id == info.snapshot_id
        assert report.records_replayed == 0
        assert recovered.state_roots() == FINAL_ROOTS
    finally:
        recovered.wal.close()


def test_verify_state_passes(data_dir, capsys):
    assert main(["verify-state", "--data-dir", data_dir]) == 0
    out = capsys.readouterr().out
    assert "# state verification: PASSED" in out
    assert FINAL_ROOTS["catalog_root"][:16] in out


def test_tampered_v1_run_file_is_rejected(data_dir, capsys):
    snap = os.path.join(data_dir, SNAP)
    target = os.path.join(snap, "R.run01.tombs")
    with open(target, "w") as handle:
        handle.write("3,4\n")  # tombstone a different row
    with pytest.raises(SnapshotError, match="hash mismatch"):
        load_snapshot(snap)
    assert main(["verify-state", "--data-dir", data_dir]) == 1
    assert "FAIL" in capsys.readouterr().out
    with pytest.raises(SnapshotError):
        open_catalog(data_dir)


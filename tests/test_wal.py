"""WAL framing, snapshots, Merkle state, and durable recovery."""

import os

import pytest

from repro.core.engine import ExecSpec
from repro.dynamic import (
    Catalog,
    CorruptWalError,
    SnapshotError,
    Update,
    WriteAheadLog,
    open_catalog,
    recover_catalog,
    verify_state,
)
from repro.dynamic import merkle
from repro.dynamic.snapshot import (
    list_snapshots,
    load_manifest,
    newest_valid_snapshot,
    write_snapshot,
)
from repro.dynamic.wal import KIND_BATCH


def wal_dir(tmp_path):
    return str(tmp_path / "wal")


def batch(*rows, relation="R", op="+"):
    return [Update(relation, op, row) for row in rows]


class TestWalFraming:
    def test_append_and_replay(self, tmp_path):
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        wal.append_batch(batch((1, 2), (3, 4)))
        wal.append_batch([Update("R", "-", (1, 2))])
        wal.close()
        wal2 = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        records = list(wal2.replay())
        wal2.close()
        assert [r.lsn for r in records] == [1, 2]
        assert all(r.kind == KIND_BATCH for r in records)
        assert records[0].updates == (
            Update("R", "+", (1, 2)),
            Update("R", "+", (3, 4)),
        )
        assert records[1].updates == (Update("R", "-", (1, 2)),)

    def test_empty_batch_refused(self, tmp_path):
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        with pytest.raises(ValueError):
            wal.append_batch([])
        wal.close()

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(wal_dir(tmp_path), fsync="sometimes")

    def test_reopen_continues_lsn_sequence(self, tmp_path):
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        wal.append_batch(batch((1, 1)))
        wal.close()
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert wal.last_lsn == 1
        wal.append_batch(batch((2, 2)))
        wal.close()
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert [r.lsn for r in wal.replay()] == [1, 2]
        wal.close()

    def test_replay_after_lsn_skips_prefix(self, tmp_path):
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        for k in range(4):
            wal.append_batch(batch((k, k)))
        assert [r.lsn for r in wal.replay(after_lsn=2)] == [3, 4]
        wal.close()

    def test_control_records_round_trip(self, tmp_path):
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        wal.append_control("create", {"name": "R", "attributes": ["A"]})
        wal.append_control("flush", {"name": None})
        wal.close()
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        kinds = [(r.kind, r.payload) for r in wal.replay()]
        wal.close()
        assert kinds == [
            ("create", {"name": "R", "attributes": ["A"]}),
            ("flush", {"name": None}),
        ]


class TestWalTornTails:
    def _segment(self, tmp_path):
        segments = sorted(os.listdir(wal_dir(tmp_path)))
        assert segments
        return os.path.join(wal_dir(tmp_path), segments[-1])

    def _write_two(self, tmp_path):
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        wal.append_batch(batch((1, 2)))
        wal.append_batch(batch((3, 4)))
        wal.close()

    def test_torn_final_record_is_discarded(self, tmp_path):
        self._write_two(tmp_path)
        path = self._segment(tmp_path)
        data = open(path, "rb").read()
        # Cut into the last commit line: the record loses its commit.
        open(path, "wb").write(data[:-10])
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert [r.lsn for r in wal.replay()] == [1]
        assert wal.last_lsn == 1
        assert wal.repairs  # the torn tail was truncated on open
        # The repaired log accepts new appends with the freed LSN.
        wal.append_batch(batch((9, 9)))
        assert [r.lsn for r in wal.replay()] == [1, 2]
        wal.close()

    def test_corrupt_commit_checksum_raises(self, tmp_path):
        self._write_two(tmp_path)
        path = self._segment(tmp_path)
        text = open(path).read()
        # Flip a digit inside the *first* record's body: its commit
        # CRC no longer matches, and content follows, so this is
        # corruption, not a torn tail.
        lines = text.splitlines(keepends=True)
        body = lines.index(next(l for l in lines if l.startswith("+R")))
        lines[body] = "+R 1,999\n"
        open(path, "w").write("".join(lines))
        with pytest.raises(CorruptWalError):
            WriteAheadLog(wal_dir(tmp_path), fsync="off")

    def test_mid_log_garbage_raises(self, tmp_path):
        self._write_two(tmp_path)
        path = self._segment(tmp_path)
        text = open(path).read()
        first_commit = text.index("commit")
        end_first = text.index("\n", first_commit) + 1
        open(path, "w").write(
            text[:end_first] + "garbage line\n" + text[end_first:]
        )
        with pytest.raises(CorruptWalError):
            WriteAheadLog(wal_dir(tmp_path), fsync="off")

    def test_torn_first_record_preserves_header(self, tmp_path):
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        wal.append_batch(batch((1, 2)))
        wal.close()
        path = self._segment(tmp_path)
        data = open(path, "rb").read()
        header_end = data.index(b"\n") + 1
        # Tear inside the very first record: only the header plus a
        # few body bytes survive.
        open(path, "wb").write(data[:header_end + 3])
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert wal.repairs
        assert wal.last_lsn == 0
        wal.append_batch(batch((5, 5)))
        wal.close()
        # Repair truncated the torn body but kept the header line, so
        # start_lsn / missing-segment checks keep working afterwards.
        text = open(path).read()
        assert text.startswith("# repro-wal v1 segment=1 start_lsn=1")
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert [r.lsn for r in wal.replay()] == [1]
        wal.close()

    def test_trailing_whitespace_tolerated(self, tmp_path):
        self._write_two(tmp_path)
        path = self._segment(tmp_path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert [r.lsn for r in wal.replay()] == [1, 2]
        wal.close()


class TestWalRotation:
    def test_segments_rotate_and_replay_in_order(self, tmp_path):
        wal = WriteAheadLog(
            wal_dir(tmp_path), fsync="off", segment_limit=2
        )
        for k in range(5):
            wal.append_batch(batch((k, k)))
        wal.close()
        segments = sorted(os.listdir(wal_dir(tmp_path)))
        assert len(segments) >= 2
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert [r.lsn for r in wal.replay()] == [1, 2, 3, 4, 5]
        wal.close()

    def test_truncate_through_drops_covered_segments(self, tmp_path):
        wal = WriteAheadLog(
            wal_dir(tmp_path), fsync="off", segment_limit=2
        )
        for k in range(6):
            wal.append_batch(batch((k, k)))
        before = len(os.listdir(wal_dir(tmp_path)))
        wal.truncate_through(4)
        after = len(os.listdir(wal_dir(tmp_path)))
        assert after < before
        # Everything after the truncation point is still replayable.
        assert [r.lsn for r in wal.replay(after_lsn=4)] == [5, 6]
        wal.close()

    def test_reopen_after_truncate_at_rotation_boundary(self, tmp_path):
        # An append count that is a multiple of segment_limit leaves a
        # fresh, record-free active segment; after the covered segments
        # are truncated away, the header's start_lsn is the only
        # surviving evidence of the sequence and must seed reopened LSN
        # allocation (not reset it to 0).
        wal = WriteAheadLog(
            wal_dir(tmp_path), fsync="off", segment_limit=2
        )
        for k in range(4):
            wal.append_batch(batch((k, k)))
        wal.truncate_through(wal.last_lsn)
        wal.close()
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert wal.last_lsn == 4
        assert wal.append_batch(batch((9, 9))) == 5
        wal.close()
        wal = WriteAheadLog(wal_dir(tmp_path), fsync="off")
        assert [r.lsn for r in wal.replay(after_lsn=4)] == [5]
        wal.close()

    def test_missing_segment_in_chain_raises(self, tmp_path):
        wal = WriteAheadLog(
            wal_dir(tmp_path), fsync="off", segment_limit=1
        )
        for k in range(4):
            wal.append_batch(batch((k, k)))
        wal.close()
        segments = sorted(os.listdir(wal_dir(tmp_path)))
        os.remove(os.path.join(wal_dir(tmp_path), segments[1]))
        with pytest.raises(CorruptWalError):
            WriteAheadLog(wal_dir(tmp_path), fsync="off")


class TestMerkle:
    def test_root_changes_on_any_mutation(self):
        rows = [(1, 2), (3, 4), (5, 6)]
        base = merkle.relation_root(rows)
        assert merkle.relation_root(rows[:-1]) != base
        assert merkle.relation_root(rows + [(7, 8)]) != base
        assert merkle.relation_root([(1, 2), (3, 9), (5, 6)]) != base
        assert merkle.relation_root(rows) == base

    def test_empty_relation_has_stable_root(self):
        assert merkle.relation_root([]) == merkle.EMPTY_ROOT

    def test_proofs_verify_for_every_leaf(self):
        leaves = [merkle.row_leaf((k, k + 1)) for k in range(7)]
        root = merkle.merkle_root(leaves).hex()
        for index, leaf in enumerate(leaves):
            path = merkle.merkle_proof(leaves, index)
            assert merkle.verify_proof(root, leaf, path)
        # A proof for one leaf must not verify another.
        path0 = merkle.merkle_proof(leaves, 0)
        assert not merkle.verify_proof(root, leaves[1], path0)

    def test_relation_proof_with_row(self):
        rows_by_relation = {
            "R": [(1, 2), (3, 4)],
            "S": [(9, 9)],
            "T": [],
        }
        proof = merkle.relation_proof("R", rows_by_relation, row=(3, 4))
        assert merkle.verify_relation_proof(proof)
        trusted = proof["catalog_root"]
        assert merkle.verify_relation_proof(proof, trusted)
        assert not merkle.verify_relation_proof(proof, "00" * 32)
        # Tampering with the claimed row breaks the row path.
        proof["row"] = [3, 5]
        assert not merkle.verify_relation_proof(proof)

    def test_unknown_relation_and_row_rejected(self):
        with pytest.raises(KeyError):
            merkle.relation_proof("X", {"R": [(1,)]})
        with pytest.raises(KeyError):
            merkle.relation_proof("R", {"R": [(1,)]}, row=(2,))


def build_durable(tmp_path, fsync="off"):
    catalog, _ = open_catalog(str(tmp_path / "data"), fsync=fsync)
    catalog.create_relation("R", ["A", "B"], [(1, 2), (2, 3), (3, 1)])
    catalog.create_relation("S", ["B", "C"], [(2, 9), (3, 7)])
    catalog.register_view("V", ["R", "S"])
    catalog.apply_batch(
        batch((5, 2), (6, 3)) + [Update("S", "-", (3, 7))]
    )
    catalog.flush("R")
    catalog.apply_batch(batch((7, 2)))
    return catalog


def state_of(catalog):
    return (
        {
            name: catalog.relation(name).index.tuples()
            for name in catalog.relation_names()
        },
        {
            name: sorted(catalog.view(name).rows())
            for name in catalog.view_names()
        },
        catalog.state_roots(),
    )


class TestDurableRecovery:
    def test_wal_only_recovery_is_byte_identical(self, tmp_path):
        catalog = build_durable(tmp_path)
        want = state_of(catalog)
        catalog.wal.close()
        recovered, report = recover_catalog(
            str(tmp_path / "data"), attach=False
        )
        assert state_of(recovered) == want
        assert report.snapshot_id is None
        assert report.batches_replayed == 2

    def test_snapshot_plus_suffix_recovery(self, tmp_path):
        catalog = build_durable(tmp_path)
        catalog.snapshot()
        catalog.apply_batch([Update("R", "-", (1, 2))])
        catalog.compact("R")
        want = state_of(catalog)
        catalog.wal.close()
        recovered, report = recover_catalog(
            str(tmp_path / "data"), attach=False
        )
        assert state_of(recovered) == want
        assert report.snapshot_id == 1
        assert report.verified
        assert report.records_replayed == 2  # batch + compact

    def test_recovered_catalog_keeps_serving_writes(self, tmp_path):
        catalog = build_durable(tmp_path)
        catalog.wal.close()
        recovered, _ = recover_catalog(str(tmp_path / "data"))
        recovered.apply_batch(batch((8, 2)))
        want = state_of(recovered)
        recovered.wal.close()
        again, _ = recover_catalog(str(tmp_path / "data"), attach=False)
        assert state_of(again) == want

    def test_truncated_wal_after_snapshot_still_recovers(self, tmp_path):
        catalog = build_durable(tmp_path)
        catalog.snapshot(truncate_wal=True)
        catalog.apply_batch(batch((9, 2)))
        want = state_of(catalog)
        catalog.wal.close()
        recovered, _ = recover_catalog(
            str(tmp_path / "data"), attach=False
        )
        assert state_of(recovered) == want

    def test_snapshot_truncate_at_rotation_boundary_reopens(
        self, tmp_path
    ):
        # snapshot(truncate_wal=True) while the active segment is still
        # empty (append count a multiple of segment_limit) must not
        # reset LSN allocation across reopen — the regression wrote
        # lsn 1 into a segment claiming start_lsn=3, making the data
        # directory unopenable on the next recovery.
        data_dir = str(tmp_path / "data")
        catalog, _ = open_catalog(data_dir, segment_limit=2)
        catalog.create_relation("R", ["A", "B"], [(1, 2)])
        catalog.apply_batch(batch((3, 4)))  # record 2 -> rotation
        catalog.snapshot(truncate_wal=True)
        catalog.wal.close()
        catalog, _ = open_catalog(data_dir, segment_limit=2)
        catalog.apply_batch(batch((5, 6)))
        want = state_of(catalog)
        catalog.wal.close()
        recovered, _ = recover_catalog(data_dir, attach=False)
        assert state_of(recovered) == want
        assert sorted(recovered.relation("R").index.tuples()) == [
            (1, 2), (3, 4), (5, 6)
        ]

    def test_incomplete_snapshot_is_skipped(self, tmp_path):
        catalog = build_durable(tmp_path)
        info = catalog.snapshot()
        want = state_of(catalog)
        catalog.wal.close()
        # Simulate a crash before the manifest rename of a *newer*
        # snapshot: directory exists, no manifest.
        os.makedirs(
            os.path.join(
                os.path.dirname(info.path), "snap-00000002"
            )
        )
        recovered, report = recover_catalog(
            str(tmp_path / "data"), attach=False
        )
        assert report.snapshot_id == 1
        assert state_of(recovered) == want

    def test_tampered_run_file_rejected(self, tmp_path):
        catalog = build_durable(tmp_path)
        info = catalog.snapshot()
        catalog.wal.close()
        target = next(
            os.path.join(info.path, f)
            for f in sorted(os.listdir(info.path))
            if f.endswith(".rows") and os.path.getsize(
                os.path.join(info.path, f)
            )
        )
        text = open(target).read()
        open(target, "w").write(text.replace("2", "4", 1))
        with pytest.raises(SnapshotError):
            recover_catalog(str(tmp_path / "data"), attach=False)
        report = verify_state(str(tmp_path / "data"))
        assert not report.ok
        assert report.problems

    def test_tampered_manifest_rejected(self, tmp_path):
        catalog = build_durable(tmp_path)
        info = catalog.snapshot()
        catalog.wal.close()
        manifest_path = os.path.join(info.path, "MANIFEST.json")
        text = open(manifest_path).read()
        open(manifest_path, "w").write(
            text.replace('"generation"', '"degeneration"', 1)
        )
        assert newest_valid_snapshot(str(tmp_path / "data")) is None
        report = verify_state(str(tmp_path / "data"))
        assert not report.ok

    def test_verify_state_passes_on_healthy_dir(self, tmp_path):
        catalog = build_durable(tmp_path)
        catalog.snapshot()
        catalog.apply_batch(batch((11, 2)))
        roots = catalog.state_roots()
        catalog.wal.close()
        report = verify_state(str(tmp_path / "data"))
        assert report.ok
        assert report.catalog_root == roots["catalog_root"]
        assert report.relation_roots == roots["relations"]

    def test_state_proof_round_trip(self, tmp_path):
        catalog = build_durable(tmp_path)
        trusted = catalog.state_roots()["catalog_root"]
        proof = catalog.state_proof("R", row=(7, 2))
        assert merkle.verify_relation_proof(proof, trusted)
        catalog.wal.close()

    def test_snapshot_requires_data_dir(self):
        catalog = Catalog()
        catalog.create_relation("R", ["A"], [(1,)])
        with pytest.raises(ValueError):
            catalog.snapshot()

    def test_fsync_always_policy_round_trips(self, tmp_path):
        catalog, _ = open_catalog(
            str(tmp_path / "data"), fsync="always"
        )
        catalog.create_relation("R", ["A"], [(1,)])
        catalog.apply_batch([Update("R", "+", (2,))])
        want = state_of(catalog)
        catalog.wal.close()
        recovered, _ = recover_catalog(
            str(tmp_path / "data"), attach=False
        )
        assert state_of(recovered) == want

    def test_write_snapshot_standalone_lists(self, tmp_path):
        catalog = build_durable(tmp_path)
        write_snapshot(catalog, str(tmp_path / "data"))
        snaps = list_snapshots(str(tmp_path / "data"))
        assert [s[0] for s in snaps] == [1]
        manifest = load_manifest(snaps[0][1])
        assert manifest["snapshot_id"] == 1
        assert set(manifest["relations"]) == {"R", "S"}
        assert manifest["views"]["V"]["relations"] == ["R", "S"]
        catalog.wal.close()


class TestViewSpecOnDisk:
    """A view's ExecSpec round-trips through `!view` WAL records and
    snapshot manifests in the byte layout pinned here: the layout from
    before ExecSpec existed, less the ``cds_backend`` key a view no
    longer has.  Records that still carry that key keep recovering."""

    VIEW_RECORDS = [
        '!view {"gao":["A","B","C"],"name":"V",'
        '"relations":["R","S"],"shards":1,"strategy":"auto","workers":0}\n',
        '!view {"gao":["A","B","C"],"name":"W",'
        '"relations":["R","S","T"],"shards":2,"strategy":"general",'
        '"workers":0}\n',
    ]
    MANIFEST_VIEWS = {
        "V": {"relations": ["R", "S"], "gao": ["A", "B", "C"],
              "strategy": "auto", "shards": 1, "workers": 0},
        "W": {"relations": ["R", "S", "T"], "gao": ["A", "B", "C"],
              "strategy": "general", "shards": 2, "workers": 0},
    }

    def build(self, tmp_path):
        data_dir = str(tmp_path / "data")
        catalog, _ = open_catalog(data_dir, fsync="off")
        catalog.create_relation("R", ["A", "B"], [(1, 2), (2, 3)])
        catalog.create_relation("S", ["B", "C"], [(2, 9), (3, 7)])
        catalog.create_relation("T", ["A", "C"], [(1, 9), (2, 7)])
        catalog.register_view("V", ["R", "S"])
        catalog.register_view("W", ["R", "S", "T"], ExecSpec(
            gao=["A", "B", "C"], strategy="general", shards=2, workers=0,
        ))
        return data_dir, catalog

    def test_view_records_and_manifest_entries_are_pinned(self, tmp_path):
        data_dir, catalog = self.build(tmp_path)
        catalog.snapshot()
        catalog.wal.close()
        wal = os.path.join(data_dir, "wal")
        lines = []
        for name in sorted(os.listdir(wal)):
            with open(os.path.join(wal, name), newline="") as handle:
                lines += [ln for ln in handle if ln.startswith("!view ")]
        assert lines == self.VIEW_RECORDS
        (_, snap_path), = list_snapshots(data_dir)
        assert load_manifest(snap_path)["views"] == self.MANIFEST_VIEWS

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_both_restore_paths_rebuild_the_same_spec(
        self, tmp_path, snapshot
    ):
        data_dir, catalog = self.build(tmp_path)
        if snapshot:
            catalog.snapshot(truncate_wal=True)
        want = {n: catalog.view(n).spec for n in catalog.view_names()}
        rows = {n: catalog.view(n).rows() for n in catalog.view_names()}
        catalog.wal.close()
        recovered, report = recover_catalog(data_dir, attach=False)
        assert (report.snapshot_id is not None) == snapshot
        assert {
            n: recovered.view(n).spec for n in recovered.view_names()
        } == want
        assert want["W"] == ExecSpec(
            gao=("A", "B", "C"), strategy="general", shards=2, workers=0,
        )
        assert {
            n: recovered.view(n).rows() for n in recovered.view_names()
        } == rows

    def test_a_record_carrying_a_tier_recovers_and_is_maintained(
        self, tmp_path
    ):
        """A `!view` record as older builds wrote it, with a
        ``cds_backend`` key, recovers into a view with the four-field
        spec, and that view keeps being maintained: after more batches
        (and a second recovery) its rows equal a fresh recompute."""
        data_dir = str(tmp_path / "data")
        catalog, _ = open_catalog(data_dir, fsync="off")
        catalog.create_relation("R", ["A", "B"], [(1, 2), (2, 3), (4, 2)])
        catalog.create_relation("S", ["B", "C"], [(2, 9), (3, 7)])
        catalog.wal.append_control("view", {
            "cds_backend": "pointer", "gao": ["A", "B", "C"], "name": "W",
            "relations": ["R", "S"], "shards": 2, "strategy": "general",
            "workers": 0,
        })
        catalog.wal.close()
        wal = os.path.join(data_dir, "wal")
        lines = []
        for name in sorted(os.listdir(wal)):
            with open(os.path.join(wal, name), newline="") as handle:
                lines += [ln for ln in handle if ln.startswith("!view ")]
        assert lines == [
            '!view {"cds_backend":"pointer","gao":["A","B","C"],"name":"W",'
            '"relations":["R","S"],"shards":2,"strategy":"general",'
            '"workers":0}\n'
        ]

        recovered, _ = recover_catalog(data_dir, fsync="off")
        view = recovered.view("W")
        assert view.spec == ExecSpec(
            gao=("A", "B", "C"), strategy="general", shards=2, workers=0,
        )
        assert sorted(view.rows()) == [(1, 2, 9), (2, 3, 7), (4, 2, 9)]
        recovered.apply_batch([
            Update("R", "+", (5, 3)),
            Update("S", "-", (2, 9)),
            Update("S", "+", (2, 8)),
        ])
        recovered.apply_batch([Update("R", "-", (2, 3))])
        assert view.verify()
        want = sorted(view.rows())
        assert want == [(1, 2, 8), (4, 2, 8), (5, 3, 7)]
        recovered.wal.close()

        again, _ = recover_catalog(data_dir, attach=False)
        assert again.view("W").spec == view.spec
        assert sorted(again.view("W").rows()) == want
        assert again.view("W").verify()

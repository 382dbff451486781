"""Fault injection: recovery converges to pre-op or post-op state.

The harness runs one durability scenario — DDL, batches, flush,
snapshot, compact, WAL truncation — three ways:

1. **Cleanly**, capturing the catalog state at every operation
   boundary (the *checkpoints*).
2. **In record mode**, discovering every ``crashpoint`` hit the
   scenario traverses — and asserting the set is exactly
   :data:`~repro.testing.faults.CRASH_POINTS`, so a point added to the
   registry without coverage (or vice versa) fails loudly.
3. **Crashing at each discovered (point, hit) pair** on a fresh
   directory, then recovering and asserting the recovered state equals
   one of the checkpoints — never anything in between.

A fourth pass tears WAL writes byte-wise (:class:`TornWriteFS`)
instead of raising at clean code boundaries, proving the scanner's
framing survives partially-persisted lines, not just convenient stops.
"""

import os

import pytest

from repro.core.engine import ExecSpec
from repro.dynamic import Update, open_catalog, recover_catalog
from repro.testing.faults import (
    CRASH_POINTS,
    FaultInjector,
    FileSystem,
    InjectedCrash,
    TornWriteFS,
    injected,
    install_from_env,
)

FSYNC = "always"  # traverses wal.fsync on every append
SEGMENT_LIMIT = 3  # forces rotations (wal.rotate) mid-scenario


def _catalog_query(catalog):
    """The catalog's R ⋈ S as a core Query (snapshot of current rows)."""
    from repro.core.query import Query
    from repro.storage.relation import Relation

    return Query([
        Relation("R", ["A", "B"], catalog.relation("R").index.tuples()),
        Relation("S", ["B", "C"], catalog.relation("S").index.tuples()),
    ])


def _query_sharded(catalog):
    """A 2-shard in-process join: traverses shard.dispatch/shard.merge."""
    from repro.core.engine import join

    join(_catalog_query(catalog), shards=2, workers=0)


def _query_resilient(catalog):
    """A join whose every attempt is injected to fail: traverses
    shard.retry (bounded retries) and shard.fallback (the in-process
    fallback, which the armed fault also kills → typed ShardFailure).
    Read-only: the catalog state is untouched either way."""
    from repro.core.engine import join
    from repro.core.resilience import ExecutionError, RetryPolicy
    from repro.testing.faults import worker_faults

    try:
        with worker_faults(kind="crash", times=64, scope="all"):
            join(
                _catalog_query(catalog),
                shards=2,
                workers=0,
                retry_policy=RetryPolicy(retries=1, backoff_s=0.0),
            )
    except ExecutionError:
        pass  # the expected typed abort — never a hang or bad rows


def _ops():
    """The scenario: one durability-relevant operation per entry."""
    return [
        ("create-R", lambda c: c.create_relation(
            "R", ["A", "B"], [(1, 2), (2, 3)])),
        ("create-S", lambda c: c.create_relation(
            "S", ["B", "C"], [(2, 9), (3, 7)])),
        ("view-V", lambda c: c.register_view("V", ["R", "S"], ExecSpec())),
        ("query-sharded", _query_sharded),
        ("query-resilient", _query_resilient),
        ("batch-1", lambda c: c.apply_batch([
            Update("R", "+", (5, 2)),
            Update("S", "-", (3, 7)),
        ])),
        ("flush", lambda c: c.flush()),
        ("batch-2", lambda c: c.apply_batch([
            Update("R", "+", (6, 3)),
            Update("S", "+", (3, 8)),
        ])),
        ("snapshot", lambda c: c.snapshot()),
        ("batch-3", lambda c: c.apply_batch([
            Update("R", "-", (1, 2)),
        ])),
        ("compact", lambda c: c.compact()),
        ("snapshot-truncate", lambda c: c.snapshot(truncate_wal=True)),
        ("batch-4", lambda c: c.apply_batch([
            Update("R", "+", (7, 2)),
        ])),
    ]


def state_of(catalog):
    """Comparable logical state: rows, views, and Merkle roots."""
    return (
        {
            name: catalog.relation(name).index.tuples()
            for name in sorted(catalog.relation_names())
        },
        {
            name: sorted(catalog.view(name).rows())
            for name in sorted(catalog.view_names())
        },
        catalog.state_roots()["catalog_root"],
    )


def run_clean(data_dir):
    """Run every op; returns the checkpoint states (one per boundary)."""
    catalog, _ = open_catalog(
        data_dir, fsync=FSYNC, segment_limit=SEGMENT_LIMIT
    )
    checkpoints = [state_of(catalog)]
    for _label, op in _ops():
        op(catalog)
        checkpoints.append(state_of(catalog))
    catalog.wal.close()
    return checkpoints


def run_crashing(data_dir, fs=None):
    """Run the scenario until an injected crash (or completion).

    The catalog is abandoned, not closed — every crash point fires
    with user-space buffers already flushed, so dropping the handles
    models a process death faithfully.
    """
    catalog, _ = open_catalog(
        data_dir, fsync=FSYNC, segment_limit=SEGMENT_LIMIT, fs=fs
    )
    for _label, op in _ops():
        op(catalog)
    catalog.wal.close()


def discover_hits(tmp_path):
    injector = FaultInjector(record=True)
    with injected(injector):
        run_crashing(str(tmp_path / "record"))
    return dict(injector.hits)


class TestScenarioBaseline:
    def test_clean_run_recovers_to_final_state(self, tmp_path):
        data_dir = str(tmp_path / "clean")
        checkpoints = run_clean(data_dir)
        recovered, _ = recover_catalog(data_dir, attach=False)
        assert state_of(recovered) == checkpoints[-1]

    def test_scenario_covers_every_registered_crash_point(self, tmp_path):
        hits = discover_hits(tmp_path)
        assert set(hits) == CRASH_POINTS

    def test_static_scan_matches_registry_and_runtime(self, tmp_path):
        # Three-way parity: the crashpoint literals the static scanner
        # finds in src/ must equal the CRASH_POINTS registry, which in
        # turn must equal the points the runtime scenario actually
        # fires.  A point added in code without registration (or
        # registered without a call site, or registered-and-called but
        # not traversed by the scenario) fails here with a named diff.
        from pathlib import Path

        from repro.analysis.crashpoints import (
            registry_points,
            scan_crashpoint_literals,
        )
        from repro.analysis.framework import load_project

        project = load_project(Path(__file__).resolve().parent.parent)
        literals, dynamic = scan_crashpoint_literals(project)
        assert not dynamic, f"non-literal crashpoint() calls: {dynamic}"
        registered, _path, _line = registry_points(project)
        assert set(literals) == registered
        assert set(literals) == CRASH_POINTS
        assert set(literals) == set(discover_hits(tmp_path))

    def test_checkpoints_are_distinct_where_state_changes(self, tmp_path):
        # Guards the harness itself: if consecutive checkpoints
        # collapsed, "pre or post" would be vacuous for that op.
        checkpoints = run_clean(str(tmp_path / "clean"))
        labels = ["start"] + [label for label, _ in _ops()]
        for i, label in enumerate(labels[1:], 1):
            if label in ("flush", "compact", "snapshot",
                         "snapshot-truncate", "query-sharded",
                         "query-resilient"):
                continue  # logical state is unchanged by design
            assert checkpoints[i] != checkpoints[i - 1], label


def _crash_cases():
    """(point, hit) parameters — discovered dynamically per test run
    would hide the parameterization, so enumerate generously: hits
    beyond what the scenario traverses simply never fire and the run
    completes (also a valid outcome to verify recovery after)."""
    cases = []
    for point in sorted(CRASH_POINTS):
        for hit in (1, 2, 3, 5, 8):
            cases.append((point, hit))
    return cases


class TestCrashEveryPoint:
    @pytest.mark.parametrize("point,hit", _crash_cases())
    def test_recovery_lands_on_a_checkpoint(self, tmp_path, point, hit):
        checkpoints = run_clean(str(tmp_path / "clean"))
        data_dir = str(tmp_path / "crash")
        injector = FaultInjector().crash_at(point, hit=hit)
        crashed = False
        with injected(injector):
            try:
                run_crashing(data_dir)
            except InjectedCrash as exc:
                crashed = True
                assert exc.point == point
        recovered, report = recover_catalog(data_dir, attach=False)
        got = state_of(recovered)
        assert got in checkpoints, (
            f"crash at {point} (hit {hit}) recovered to a state "
            "between checkpoints"
        )
        if not crashed:
            # The scenario traversed fewer hits than armed: the run
            # completed, so recovery must see the *final* state.
            assert got == checkpoints[-1]

    def test_crash_after_wal_commit_preserves_batch(self, tmp_path):
        # Sharper than "pre or post": once the WAL append returned,
        # the batch MUST survive.  catalog.apply.mutate sits exactly
        # after append_batch and before any memory mutation.  The view
        # is rebuilt from its logged spec, and replay maintains it.
        checkpoints = run_clean(str(tmp_path / "clean"))
        data_dir = str(tmp_path / "crash")
        injector = FaultInjector().crash_at("catalog.apply.mutate", hit=1)
        with injected(injector):
            with pytest.raises(InjectedCrash):
                run_crashing(data_dir)
        recovered, _ = recover_catalog(data_dir, attach=False)
        # batch-1 is the first apply_batch: checkpoint index 6.
        assert state_of(recovered) == checkpoints[6]

    def test_crash_before_wal_append_loses_batch(self, tmp_path):
        checkpoints = run_clean(str(tmp_path / "clean"))
        data_dir = str(tmp_path / "crash")
        injector = FaultInjector().crash_at("catalog.apply.wal", hit=1)
        with injected(injector):
            with pytest.raises(InjectedCrash):
                run_crashing(data_dir)
        recovered, _ = recover_catalog(data_dir, attach=False)
        assert state_of(recovered) == checkpoints[5]  # pre-batch-1

    def test_crash_during_snapshot_loses_no_data(self, tmp_path):
        checkpoints = run_clean(str(tmp_path / "clean"))
        data_dir = str(tmp_path / "crash")
        injector = FaultInjector().crash_at("snapshot.rename", hit=1)
        with injected(injector):
            with pytest.raises(InjectedCrash):
                run_crashing(data_dir)
        recovered, report = recover_catalog(data_dir, attach=False)
        # The half-written snapshot is skipped; the WAL has everything.
        assert report.snapshot_id is None
        assert state_of(recovered) == checkpoints[9]


class TestTornWrites:
    # Indices 1..14 cover headers, bodies, and commit lines of the
    # scenario's early appends; runs where the index is never reached
    # complete cleanly and assert the final state.
    @pytest.mark.parametrize("write_index,keep_bytes", [
        (i, k) for i in range(1, 15) for k in (0, 5)
    ])
    def test_torn_wal_write_recovers_to_checkpoint(
        self, tmp_path, write_index, keep_bytes
    ):
        checkpoints = run_clean(str(tmp_path / "clean"))
        data_dir = str(tmp_path / "torn")
        fs = TornWriteFS(
            "wal-", keep_bytes=keep_bytes, write_index=write_index
        )
        crashed = False
        try:
            run_crashing(data_dir, fs=fs)
        except InjectedCrash:
            crashed = True
        recovered, report = recover_catalog(data_dir, attach=False)
        got = state_of(recovered)
        assert got in checkpoints, (
            f"torn write #{write_index} (keep {keep_bytes}) recovered "
            "between checkpoints"
        )
        if crashed and keep_bytes:
            # A non-empty tear leaves a partial line; the scanner must
            # have repaired (truncated) it, not erred out.
            assert report.wal_repairs or got in checkpoints

    def test_torn_snapshot_manifest_is_skipped(self, tmp_path):
        checkpoints = run_clean(str(tmp_path / "clean"))
        data_dir = str(tmp_path / "torn")
        # Tear the first write that lands in a snapshot manifest file.
        fs = TornWriteFS("MANIFEST.json", keep_bytes=20, write_index=1)
        with pytest.raises(InjectedCrash):
            run_crashing(data_dir, fs=fs)
        recovered, report = recover_catalog(data_dir, attach=False)
        assert report.snapshot_id is None  # torn manifest never renamed
        assert state_of(recovered) in checkpoints


class TestDirectoryFsync:
    def test_segment_snapshot_and_truncate_sync_directories(
        self, tmp_path
    ):
        # Power-loss safety needs the directory *entries* synced, not
        # just file contents: new WAL segments, the manifest rename,
        # and segment removal must each be followed by fsync_dir.
        synced = []

        class RecordingFS(FileSystem):
            def fsync_dir(self, path):
                synced.append(path)
                super().fsync_dir(path)

        data_dir = str(tmp_path / "data")
        catalog, _ = open_catalog(
            data_dir, fsync="always", segment_limit=1, fs=RecordingFS()
        )
        wal_directory = os.path.join(data_dir, "wal")
        assert wal_directory in synced  # segment creation
        synced.clear()
        catalog.create_relation("R", ["A"], [(1,)])
        assert wal_directory in synced  # rotation created a segment
        synced.clear()
        info = catalog.snapshot(truncate_wal=True)
        assert info.path in synced  # manifest rename + data files
        assert os.path.dirname(info.path) in synced  # snap-N entry
        assert wal_directory in synced  # covered segments removed
        catalog.wal.close()

    def test_off_policy_skips_wal_directory_sync(self, tmp_path):
        synced = []

        class RecordingFS(FileSystem):
            def fsync_dir(self, path):
                synced.append(path)

        catalog, _ = open_catalog(
            str(tmp_path / "data"), fsync="off", fs=RecordingFS()
        )
        catalog.create_relation("R", ["A"], [(1,)])
        assert synced == []  # the benchmark baseline never dir-syncs
        catalog.wal.close()


class TestInjectorMechanics:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().crash_at("wal.append.typo")

    def test_fire_validates_declared_points(self):
        with pytest.raises(ValueError):
            FaultInjector().fire("not.a.point")

    def test_nth_hit_arming(self):
        injector = FaultInjector().crash_at("wal.fsync", hit=3)
        injector.fire("wal.fsync")
        injector.fire("wal.fsync")
        with pytest.raises(InjectedCrash):
            injector.fire("wal.fsync")
        # Disarmed after firing.
        injector.fire("wal.fsync")

    def test_record_mode_never_raises(self):
        injector = FaultInjector(record=True)
        injector.crash_at("wal.fsync", hit=1)
        injector.fire("wal.fsync")
        assert injector.hits == {"wal.fsync": 1}

    def test_install_from_env(self):
        injector = install_from_env(
            {"REPRO_CRASH_POINT": "wal.rotate", "REPRO_CRASH_HIT": "2"}
        )
        try:
            injector.fire("wal.rotate")
            with pytest.raises(InjectedCrash):
                injector.fire("wal.rotate")
        finally:
            # Uninstall: install_from_env sets the module-global.
            from repro.testing import faults

            faults._ACTIVE = None

    def test_install_from_env_noop_without_var(self):
        assert install_from_env({}) is None

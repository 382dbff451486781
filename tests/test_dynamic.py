"""Catalog / update-log / stream-generator tests (the serving layer)."""

import io
import os

import pytest

from repro.dynamic import (
    Catalog,
    Update,
    build_catalog,
    format_update,
    net_updates,
    read_log,
    triangle_stream,
    write_log,
)


@pytest.fixture()
def catalog():
    cat = Catalog()
    cat.create_relation("R", ("A", "B"), [(1, 2), (2, 3)])
    cat.create_relation("S", ("B", "C"), [(2, 9), (3, 7)])
    cat.register_view("Q", ["R", "S"])
    return cat


class TestCatalog:
    def test_registration_and_serving(self, catalog):
        assert catalog.relation_names() == ["R", "S"]
        assert catalog.view_names() == ["Q"]
        assert catalog.query("Q") == [(1, 2, 9), (2, 3, 7)]
        assert len(catalog.relation("R")) == 2
        assert catalog.delta("R").stats()["runs"] == 1

    def test_duplicate_and_unknown_names_rejected(self, catalog):
        with pytest.raises(ValueError):
            catalog.create_relation("R", ("A", "B"))
        with pytest.raises(ValueError):
            catalog.register_view("Q", ["R"])
        with pytest.raises(KeyError):
            catalog.register_view("Q2", ["R", "MISSING"])
        with pytest.raises(KeyError):
            catalog.relation("MISSING")
        with pytest.raises(KeyError):
            catalog.view("MISSING")
        with pytest.raises(KeyError):
            catalog.apply_batch([Update("MISSING", "+", (1,))])

    def test_apply_batch_reports(self, catalog):
        report = catalog.apply_batch(
            [
                Update("R", "+", (5, 6)),
                Update("S", "+", (6, 1)),
                Update("S", "-", (2, 9)),
                Update("S", "+", (2, 9)),  # last write wins: net no-op
            ]
        )
        assert report.batch == 1
        assert report.applied == {"R": (1, 0), "S": (1, 0)}
        assert report.views["Q"]["rows_added"] == 1
        assert report.views["Q"]["rows_removed"] == 0
        assert report.views["Q"]["ops"]["findgap"] > 0
        assert report.seconds >= 0
        assert catalog.query("Q") == [(1, 2, 9), (2, 3, 7), (5, 6, 1)]
        assert catalog.view("Q").verify()

    def test_invalid_batch_is_atomic(self, catalog):
        """A bad row anywhere in the batch must leave nothing applied."""
        before_rows = catalog.query("Q")
        before_r = catalog.delta("R").tuples()
        with pytest.raises(ValueError):
            catalog.apply_batch(
                [
                    Update("R", "+", (5, 6)),  # valid, earlier in order
                    Update("S", "+", (1, 2, 3)),  # arity mismatch
                ]
            )
        assert catalog.delta("R").tuples() == before_r
        assert catalog.query("Q") == before_rows
        assert catalog.batches_applied == 0

    def test_create_relation_adopts_prebuilt_flat_trie(self):
        from repro.storage.flat_trie import FlatTrieRelation

        trie = FlatTrieRelation([(1, 2), (3, 4)])
        cat = Catalog()
        rel = cat.create_relation("R", ("A", "B"), trie)
        assert rel.index._view is trie  # no rebuild
        assert rel.tuples() == [(1, 2), (3, 4)]
        rel.index.insert((5, 6))
        assert rel.tuples() == [(1, 2), (3, 4), (5, 6)]

    def test_ineffective_updates_apply_cleanly(self, catalog):
        report = catalog.apply_batch(
            [
                Update("R", "+", (1, 2)),  # already present
                Update("R", "-", (8, 8)),  # absent
            ]
        )
        assert report.applied == {"R": (0, 0)}
        assert catalog.view("Q").verify()

    def test_with_gao_reorder_snapshots_wrapped_relations(self, catalog):
        """Public join() works on catalog relations even when the GAO
        forces a re-index; the rebuilt copy is a static snapshot."""
        from repro.core.engine import join
        from repro.core.query import Query

        query = Query([catalog.relation("R"), catalog.relation("S")])
        result = join(query, gao=["C", "B", "A"])
        assert result.rows == [(7, 3, 2), (9, 2, 1)]

    def test_per_view_seconds_reported(self, catalog):
        catalog.register_view("Q2", ["R"])
        report = catalog.apply_batch([Update("R", "+", (5, 6))])
        for name in ("Q", "Q2"):
            assert report.views[name]["seconds"] >= 0
        assert (
            report.views["Q"]["seconds"] + report.views["Q2"]["seconds"]
            <= report.seconds
        )

    def test_stats_shape(self, catalog):
        catalog.apply_batch([Update("R", "+", (7, 7))])
        stats = catalog.stats()
        assert stats["batches_applied"] == 1
        assert stats["relations"]["R"] == {
            "runs": 1, "inserts": 1, "deletes": 0, "view_builds": 0,
        }
        assert stats["views"]["Q"]["rows"] == 2
        assert stats["views"]["Q"]["maintenance_ops"]["findgap"] > 0
        catalog.flush("R")
        catalog.compact()
        assert catalog.stats()["relations"] == stats["relations"]

    def test_net_updates_last_wins_and_order(self):
        grouped = net_updates(
            [
                Update("S", "+", (1,)),
                Update("R", "+", (2, 2)),
                Update("S", "-", (1,)),
                Update("R", "+", (3, 3)),
            ]
        )
        assert list(grouped) == ["S", "R"]
        assert grouped["S"] == ([], [(1,)])
        assert grouped["R"] == ([(2, 2), (3, 3)], [])
        with pytest.raises(ValueError):
            net_updates([Update("R", "?", (1, 1))])


class TestUpdateLog:
    LOG = """
    # a comment
    +R 1,2
    -S 2,9   # trailing comment
    commit

    +R 4,5
    """

    def test_read_log_batches(self):
        batches = read_log(io.StringIO(self.LOG))
        assert batches == [
            [Update("R", "+", (1, 2)), Update("S", "-", (2, 9))],
            [Update("R", "+", (4, 5))],  # trailing batch without commit
        ]

    def test_round_trip(self, tmp_path):
        batches = [
            [Update("R", "+", (1, 2))],
            [Update("S", "-", (2, 9)), Update("R", "+", (3, 3))],
        ]
        path = str(tmp_path / "updates.log")
        write_log(path, batches)
        assert read_log(path) == batches
        text = open(path).read()
        assert "+R 1,2" in text and text.count("commit") == 2

    def test_format_update(self):
        assert format_update(Update("R", "-", (4, 5))) == "-R 4,5"

    @pytest.mark.parametrize("line", ["*R 1,2", "+R", "+R a,b", "+ 1,2"])
    def test_malformed_lines_rejected(self, line):
        with pytest.raises(ValueError):
            read_log(io.StringIO(line))

    def test_empty_update_line_raises_value_error(self):
        from repro.dynamic import parse_update

        with pytest.raises(ValueError):
            parse_update("")

    def test_strict_mode_discards_uncommitted_tail(self):
        from repro.dynamic import UncommittedTailWarning

        with pytest.warns(UncommittedTailWarning):
            batches = read_log(io.StringIO(self.LOG), require_commit=True)
        assert batches == [
            [Update("R", "+", (1, 2)), Update("S", "-", (2, 9))],
        ]

    def test_strict_mode_silent_when_committed(self, recwarn):
        batches = read_log(
            io.StringIO("+R 1,2\ncommit\n"), require_commit=True
        )
        assert batches == [[Update("R", "+", (1, 2))]]
        assert not recwarn.list

    def test_error_attribution_on_large_log(self):
        # Line numbers must stay exact thousands of lines in: comments,
        # blank lines, and commits all advance the count.
        lines = []
        for k in range(1000):
            lines.append(f"# batch {k}")
            lines.append(f"+R {k},{k + 1}")
            lines.append("")
            lines.append("commit")
        bad_lineno = len(lines) + 1
        lines.append("+R not,a,number")
        with pytest.raises(ValueError, match=f"line {bad_lineno}: "):
            read_log(io.StringIO("\n".join(lines)))

    def test_write_log_is_atomic_against_failure(self, tmp_path):
        path = str(tmp_path / "updates.log")
        write_log(path, [[Update("R", "+", (1, 2))]])
        before = open(path).read()

        class Boom(Exception):
            pass

        def exploding_batches():
            yield [Update("R", "+", (9, 9))]
            raise Boom()

        with pytest.raises(Boom):
            write_log(path, exploding_batches())
        # The original file is untouched and no temp debris remains.
        assert open(path).read() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "updates.log"
        ]

    def test_write_log_replaces_existing(self, tmp_path):
        path = str(tmp_path / "updates.log")
        write_log(path, [[Update("R", "+", (1, 2))]])
        write_log(path, [[Update("S", "-", (3, 4))]])
        assert read_log(path) == [[Update("S", "-", (3, 4))]]

    def test_write_log_permissions(self, tmp_path):
        # The temp-file dance must not leak mkstemp's 0600 mode: a new
        # log honors the umask, a rewrite keeps the existing mode.
        path = str(tmp_path / "updates.log")
        old_umask = os.umask(0o022)
        try:
            write_log(path, [[Update("R", "+", (1, 2))]])
            assert os.stat(path).st_mode & 0o777 == 0o644
            os.chmod(path, 0o664)
            write_log(path, [[Update("S", "-", (3, 4))]])
            assert os.stat(path).st_mode & 0o777 == 0o664
        finally:
            os.umask(old_umask)


class TestUpdateLogProperties:
    """Hypothesis round-trips through the text format."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    updates = st.lists(
        st.builds(
            Update,
            relation=st.sampled_from(["R", "S", "Edge_2"]),
            op=st.sampled_from(["+", "-"]),
            row=st.tuples(
                st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
                st.integers(min_value=-(10 ** 9), max_value=10 ** 9),
            ),
        ),
        min_size=1,
        max_size=6,
    )
    batches = st.lists(updates, min_size=0, max_size=5)

    @given(batches=batches, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_with_noise(self, batches, data, tmp_path_factory):
        """write_log -> interleave comments/blanks -> read_log is id."""
        tmp_path = tmp_path_factory.mktemp("log")
        path = str(tmp_path / "u.log")
        write_log(path, batches)
        lines = open(path).read().splitlines()
        noisy = []
        for line in lines:
            # Interleave the noise a crash-free human editor could
            # introduce without changing meaning.
            if data.draw(self.st.booleans()):
                noisy.append("# noise")
            if data.draw(self.st.booleans()):
                noisy.append("   ")
            noisy.append(line)
        assert read_log(io.StringIO("\n".join(noisy))) == batches
        # Strict mode agrees whenever the log is commit-terminated.
        assert (
            read_log(io.StringIO("\n".join(noisy)), require_commit=True)
            == batches
        )

    @given(batches=batches)
    @settings(max_examples=40, deadline=None)
    def test_format_parse_inverse(self, batches):
        from repro.dynamic import parse_update

        for batch in batches:
            for update in batch:
                assert parse_update(format_update(update)) == update


class TestStreams:
    def test_impossible_edge_count_fails_fast(self):
        with pytest.raises(ValueError):
            triangle_stream(n_nodes=3, n_edges=20)

    def test_deterministic(self):
        a = triangle_stream(n_nodes=10, n_edges=20, n_batches=3, seed=5)
        b = triangle_stream(n_nodes=10, n_edges=20, n_batches=3, seed=5)
        assert a == b
        c = triangle_stream(n_nodes=10, n_edges=20, n_batches=3, seed=6)
        assert a != c

    def test_deletes_target_live_rows(self):
        schemas, initial, batches = triangle_stream(
            n_nodes=10,
            n_edges=20,
            n_batches=5,
            batch_size=6,
            insert_fraction=0.2,
            seed=8,
        )
        live = {name: set(rows) for name, rows in initial.items()}
        for batch in batches:
            for update in batch:
                if update.op == "-":
                    assert update.row in live[update.relation]
                    live[update.relation].discard(update.row)
                else:
                    assert update.row not in live[update.relation]
                    live[update.relation].add(update.row)

    def test_build_catalog_replays_cleanly(self):
        schemas, initial, batches = triangle_stream(
            n_nodes=10, n_edges=20, n_batches=3, batch_size=4, seed=2
        )
        catalog, view = build_catalog(schemas, initial, view="tri")
        for batch in batches:
            catalog.apply_batch(batch)
        assert view.verify()
        assert catalog.view_names() == ["tri"]

"""CLI tests (``python -m repro``)."""

import argparse
import io
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def relation_files(tmp_path):
    r = tmp_path / "r.csv"
    r.write_text("1,2\n2,3\n3,1\n")
    s = tmp_path / "s.csv"
    s.write_text("2,10\n3,20\n")
    return (
        f"R=A,B:{r}",
        f"S=B,C:{s}",
    )


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJoin:
    def test_basic_join(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, err = run_cli(
            ["join", "--relation", r_spec, "--relation", s_spec,
             "--gao", "A,B,C"],
            capsys,
        )
        assert code == 0
        assert "1,2,10" in out
        assert "2,3,20" in out
        assert "# 2 rows" in err
        assert "findgap" in err

    def test_engine_choices_agree(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        outputs = {}
        for engine in ("minesweeper", "leapfrog", "generic", "yannakakis"):
            code, out, _ = run_cli(
                ["join", "--relation", r_spec, "--relation", s_spec,
                 "--gao", "A,B,C", "--engine", engine],
                capsys,
            )
            assert code == 0
            outputs[engine] = sorted(
                line for line in out.splitlines() if not line.startswith("#")
            )
        assert len(set(map(tuple, outputs.values()))) == 1

    @pytest.mark.parametrize("engine", ["leapfrog", "generic", "yannakakis"])
    def test_baseline_prints_the_counts_it_tallied(
        self, relation_files, capsys, engine
    ):
        """A baseline's ``# comparisons:`` / ``# findgap:`` lines are
        what a direct call tallies on the same input."""
        from repro.baselines.generic_join import generic_join
        from repro.baselines.leapfrog import leapfrog_triejoin
        from repro.baselines.yannakakis import yannakakis_join
        from repro.core.query import Query
        from repro.storage.relation import Relation
        from repro.util.counters import OpCounters

        r_spec, s_spec = relation_files
        code, _, err = run_cli(
            ["join", "--relation", r_spec, "--relation", s_spec,
             "--gao", "A,B,C", "--engine", engine],
            capsys,
        )
        assert code == 0
        printed = {}
        for line in err.splitlines():
            key, sep, value = line[2:].partition(": ")
            if line.startswith("# ") and sep:
                printed[key] = int(value)

        query = Query([
            Relation("R", ["A", "B"], [(1, 2), (2, 3), (3, 1)]),
            Relation("S", ["B", "C"], [(2, 10), (3, 20)]),
        ])
        gao = ["A", "B", "C"]
        counters = OpCounters()
        if engine == "yannakakis":
            yannakakis_join(query, gao, counters)
        else:
            run = leapfrog_triejoin if engine == "leapfrog" else generic_join
            run(query.with_gao(gao, counters), counters)
        tallied = {k: v for k, v in counters.snapshot().items() if v}
        assert printed == tallied
        assert printed.get("comparisons", 0) + printed.get("findgap", 0) > 0

    def test_missing_relation_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["join"])

    def test_bad_spec_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["join", "--relation", "nonsense"])

    def test_non_integer_csv_is_dictionary_encoded(self, tmp_path, capsys):
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("1,banana\n2,apple\n")
        code, out, _ = run_cli(
            ["join", "--relation", f"R=A,B:{mixed}", "--gao", "A,B"], capsys
        )
        assert code == 0
        # apple -> 0, banana -> 1 (order-preserving codes)
        assert "1,1" in out and "2,0" in out

    @pytest.mark.parametrize("command", ["join", "certificate", "gao-search"])
    def test_duplicate_relation_names_are_a_clean_error(
        self, command, relation_files
    ):
        r_spec, _ = relation_files
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--relation", r_spec, "--relation", r_spec])
        assert "duplicate relation names" in str(exc_info.value)

    def test_missing_file_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["join", "--relation", "R=A,B:/does/not/exist.csv"])

    def test_limit_streams_top_k(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, err = run_cli(
            ["join", "--relation", r_spec, "--relation", s_spec,
             "--gao", "A,B,C", "--limit", "1"],
            capsys,
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows == ["1,2,10"]
        assert "# 1 rows" in err

    def test_limit_rejected_for_baselines(self, relation_files):
        r_spec, s_spec = relation_files
        with pytest.raises(SystemExit):
            main(["join", "--relation", r_spec, "--relation", s_spec,
                  "--engine", "leapfrog", "--limit", "2"])

    def test_negative_limit_rejected_cleanly(self, relation_files):
        r_spec, s_spec = relation_files
        with pytest.raises(SystemExit):
            main(["join", "--relation", r_spec, "--relation", s_spec,
                  "--limit", "-1"])
        with pytest.raises(SystemExit):  # also on the --explain path
            main(["join", "--relation", r_spec, "--relation", s_spec,
                  "--explain", "--limit", "-1"])


class TestExplain:
    def test_explain_report(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, _ = run_cli(
            ["join", "--relation", r_spec, "--relation", s_spec,
             "--explain"],
            capsys,
        )
        assert code == 0
        assert "runtime regime" in out
        assert "|C| estimate" in out


class TestGaoSearch:
    def test_reports_best(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, _ = run_cli(
            ["gao-search", "--relation", r_spec, "--relation", s_spec],
            capsys,
        )
        assert code == 0
        assert out.startswith("best GAO:")


class TestCertificate:
    def test_passes_on_real_instance(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, _ = run_cli(
            ["certificate", "--relation", r_spec, "--relation", s_spec,
             "--samples", "5"],
            capsys,
        )
        assert code == 0
        assert "PASSED" in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize(
        "sharding",
        [[], ["--shards", "2"], ["--shards", "2", "--workers", "2"]],
    )
    def test_no_refutation_attempts_is_a_usage_error(
        self, relation_files, capsys, samples, sharding
    ):
        r_spec, s_spec = relation_files
        with pytest.raises(SystemExit) as exc_info:
            main(["certificate", "--relation", r_spec, "--relation", s_spec,
                  "--samples", samples, *sharding])
        assert str(exc_info.value) == (
            f"cannot check the certificate: samples must be >= 1, "
            f"got {samples}"
        )
        assert "PASSED" not in capsys.readouterr().out


class TestStream:
    @pytest.fixture()
    def stream_files(self, tmp_path, relation_files):
        log = tmp_path / "updates.log"
        log.write_text(
            "+R 5,6\n+S 6,7\ncommit\n-S 2,10\n+R 9,9\ncommit\n"
        )
        return (*relation_files, str(log))

    def test_replay_reports_savings(self, stream_files, capsys):
        r_spec, s_spec, log = stream_files
        code, out, _ = run_cli(
            ["stream", "--relation", r_spec, "--relation", s_spec,
             "--view", "Q=R,S", "--log", log, "--print-rows"],
            capsys,
        )
        assert code == 0
        assert "# replayed 2 batches" in out
        assert "incremental findgap=" in out
        assert "recompute findgap=" in out
        assert "savings=" in out
        assert "Q,5,6,7" in out  # the streamed-in row is served

    def test_no_recompute_skips_comparator(self, stream_files, capsys):
        r_spec, s_spec, log = stream_files
        code, out, _ = run_cli(
            ["stream", "--relation", r_spec, "--relation", s_spec,
             "--view", "Q=R,S", "--log", log, "--no-recompute"],
            capsys,
        )
        assert code == 0
        assert "recompute" not in out

    def test_requires_view(self, stream_files):
        r_spec, s_spec, log = stream_files
        with pytest.raises(SystemExit):
            main(["stream", "--relation", r_spec, "--log", log])

    def test_bad_view_spec(self, stream_files):
        r_spec, s_spec, log = stream_files
        with pytest.raises(SystemExit):
            main(["stream", "--relation", r_spec, "--view", "nonsense",
                  "--log", log])
        with pytest.raises(SystemExit):
            main(["stream", "--relation", r_spec, "--view", "Q=R,MISSING",
                  "--log", log])

    def test_malformed_log_errors(self, tmp_path, relation_files):
        r_spec, s_spec = relation_files
        bad = tmp_path / "bad.log"
        bad.write_text("*R 1,2\n")
        with pytest.raises(SystemExit):
            main(["stream", "--relation", r_spec, "--relation", s_spec,
                  "--view", "Q=R,S", "--log", str(bad)])

    def test_duplicate_relation_spec_rejected_cleanly(self, stream_files):
        r_spec, s_spec, log = stream_files
        with pytest.raises(SystemExit) as exc_info:
            main(["stream", "--relation", r_spec, "--relation", r_spec,
                  "--view", "Q=R", "--log", log])
        assert "already registered" in str(exc_info.value)

    def test_dictionary_encoded_relations_refused(self, tmp_path):
        """Raw-integer log updates can't address encoded values; the
        command must refuse rather than serve wrong answers."""
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("1,banana\n2,apple\n")
        log = tmp_path / "u.log"
        log.write_text("+R 3,0\ncommit\n")
        with pytest.raises(SystemExit) as exc_info:
            main(["stream", "--relation", f"R=A,B:{mixed}",
                  "--view", "Q=R", "--log", str(log)])
        assert "dictionary-encoded" in str(exc_info.value)

    def test_arity_mismatch_in_log_errors_cleanly(
        self, tmp_path, relation_files
    ):
        r_spec, s_spec = relation_files
        bad = tmp_path / "arity.log"
        bad.write_text("+R 1,2,3\ncommit\n")  # R is binary
        with pytest.raises(SystemExit) as exc_info:
            main(["stream", "--relation", r_spec, "--relation", s_spec,
                  "--view", "Q=R,S", "--log", str(bad)])
        assert "batch 1" in str(exc_info.value)


class TestExperiments:
    def test_unknown_name_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiments", "nope"])

    def test_runs_selected(self, capsys):
        code, out, _ = run_cli(
            ["experiments", "constant-certificate"], capsys
        )
        assert code == 0
        assert "Example B.1" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_command_offers_an_index_or_cds_tier(self):
        """Tiers are chosen where their objects are built, never by a
        command-line flag."""
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        assert {"join", "certificate", "stream", "query", "serve"} <= set(
            subparsers.choices
        )
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            assert "--backend" not in help_text, name
            assert "--cds-backend" not in help_text, name

    def test_bench_subcommand_is_gone(self):
        # wall-clock lives in benchmarks/ledger/, paper tables in
        # `experiments`; there is no third entry point
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["bench"])
        assert exc_info.value.code == 2


class TestParallelFlags:
    """--workers/--shards on join, certificate, and stream."""

    def test_join_sharded_matches_sequential(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        base = ["join", "--relation", r_spec, "--relation", s_spec,
                "--gao", "A,B,C"]
        code, seq_out, _ = run_cli(base, capsys)
        assert code == 0
        code, par_out, _ = run_cli(
            base + ["--shards", "2", "--workers", "2"], capsys
        )
        assert code == 0
        assert par_out == seq_out  # rows AND their order are invariant

    def test_join_workers_alone_implies_shards(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, _ = run_cli(
            ["join", "--relation", r_spec, "--relation", s_spec,
             "--gao", "A,B,C", "--workers", "0", "--shards", "2"],
            capsys,
        )
        assert code == 0
        assert "1,2,10" in out

    def test_parallel_flags_rejected_for_baselines(self, relation_files):
        r_spec, s_spec = relation_files
        with pytest.raises(SystemExit, match="Minesweeper-only"):
            main(["join", "--relation", r_spec, "--relation", s_spec,
                  "--engine", "leapfrog", "--workers", "2"])

    def test_invalid_values_rejected(self, relation_files):
        r_spec, s_spec = relation_files
        for flags in (["--workers", "-1"], ["--shards", "0"]):
            with pytest.raises(SystemExit):
                main(["join", "--relation", r_spec, "--relation", s_spec,
                      *flags])

    def test_certificate_sharded(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, _ = run_cli(
            ["certificate", "--relation", r_spec, "--relation", s_spec,
             "--gao", "A,B,C", "--samples", "4", "--shards", "2"],
            capsys,
        )
        assert code == 0
        assert "# shard [" in out
        assert "certificate check: PASSED" in out

    def test_stream_sharded_matches_recompute(self, tmp_path, relation_files,
                                              capsys):
        r_spec, s_spec = relation_files
        log = tmp_path / "u.log"
        log.write_text("+R 4,2\ncommit\n-S 3,20\ncommit\n")
        code, out, _ = run_cli(
            ["stream", "--relation", r_spec, "--relation", s_spec,
             "--view", "Q=R,S", "--log", str(log),
             "--shards", "2", "--workers", "0"],
            capsys,
        )
        assert code == 0  # nonzero would mean a maintained/recompute MISMATCH
        assert "replayed 2 batches" in out


class TestQuery:
    def test_one_shot(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, err = run_cli(
            ["query", "--relation", r_spec, "--relation", s_spec,
             "Q(x, z) :- R(x, y), S(y, z)"],
            capsys,
        )
        assert code == 0
        assert "# columns: x,z" in out
        assert "1,10" in out and "2,20" in out
        assert "# 2 rows" in err
        assert "# plan: engine=" in err

    def test_aggregate_one_shot(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, err = run_cli(
            ["query", "--relation", r_spec, "--relation", s_spec,
             "Q(COUNT) :- R(x, y), S(y, z)"],
            capsys,
        )
        assert code == 0
        assert "# columns: count" in out
        assert "# value: 2" in err

    def test_explain_prints_scoreboard(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        code, out, _ = run_cli(
            ["query", "--relation", r_spec, "--relation", s_spec,
             "--explain", "Q(x, z) :- R(x, y), S(y, z)"],
            capsys,
        )
        assert code == 0
        assert "candidates" in out
        assert "rationale" in out
        assert "findgap" in out
        assert "plan origin" in out

    def test_bad_query_text_is_clean_error(self, relation_files, capsys):
        r_spec, s_spec = relation_files
        with pytest.raises(SystemExit):
            main(["query", "--relation", r_spec,
                  "Q(x) :- Missing(x, y)"])
        with pytest.raises(SystemExit):
            main(["query", "--relation", r_spec, "syntax garbage"])

    def test_text_required_without_repl(self, relation_files):
        r_spec, _ = relation_files
        with pytest.raises(SystemExit):
            main(["query", "--relation", r_spec])

    def test_repl_session(self, relation_files, capsys, monkeypatch):
        r_spec, s_spec = relation_files
        lines = (
            "Q(x, z) :- R(x, y), S(y, z)\n"
            "+R 5,2\n"
            "commit\n"
            "Q(x, z) :- R(x, y), S(y, z)\n"
            "STATS\n"
            "exit\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        code, out, err = run_cli(
            ["query", "--repl", "--relation", r_spec,
             "--relation", s_spec],
            capsys,
        )
        assert code == 0
        assert "1,10" in out
        assert "5,10" in out  # sees the committed update
        assert "# batch 1 applied: R +1/-0" in out
        assert "# session:" in out

    def test_repl_error_recovers(self, relation_files, capsys, monkeypatch):
        r_spec, s_spec = relation_files
        lines = (
            "Q(x) :- Missing(x, y)\n"
            "Q(x, z) :- R(x, y), S(y, z)\n"
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        code, out, err = run_cli(
            ["query", "--repl", "--relation", r_spec,
             "--relation", s_spec],
            capsys,
        )
        assert code == 0
        assert "error: line 1" in err
        assert "1,10" in out


class TestServe:
    def test_script_end_to_end(self, tmp_path, capsys):
        from repro.datasets.instances import disjoint_ranges_triangle

        # R's and T's A ranges are disjoint apart from one planted
        # triangle: the triangle engine's regime.
        lines = ["CREATE E(A, B)", "CREATE S(B, C)", "CREATE T(A, C)"]
        for name, rows in zip("EST", disjoint_ranges_triangle(128, 1)):
            lines += [f"+{name} {a},{b}" for a, b in rows]
        lines += ["commit"] + 2 * ["T(x, y, z) :- E(x, y), S(y, z), T(x, z)"]
        script = tmp_path / "demo.script"
        script.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(["serve", "--script", str(script)], capsys)
        assert code == 0
        assert "# created E(A, B)" in out
        assert "256,0,0" in out
        assert "cached plan" in out  # second execution hit the cache
        assert "engine=triangle" in out
        assert "# served 2 queries: 1 planned, 1 from cache" in err

    def test_script_with_preloaded_relations(self, tmp_path, relation_files,
                                             capsys):
        r_spec, s_spec = relation_files
        script = tmp_path / "q.script"
        script.write_text("Q(x, z) :- R(x, y), S(y, z)\n")
        code, out, _ = run_cli(
            ["serve", "--script", str(script),
             "--relation", r_spec, "--relation", s_spec],
            capsys,
        )
        assert code == 0
        assert "1,10" in out

    def test_script_error_reports_line(self, tmp_path, capsys):
        script = tmp_path / "bad.script"
        script.write_text("CREATE R(A, B)\nnot a statement\n")
        with pytest.raises(SystemExit, match="line 2"):
            main(["serve", "--script", str(script)])

    def test_missing_script_file(self, capsys):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["serve", "--script", "/nonexistent/x.script"])


class TestDurableCli:
    SETUP = (
        "CREATE R(A, B)\n"
        "CREATE S(B, C)\n"
        "+R 1,2\n+S 2,3\n"
        "commit\n"
        "Q(a, c) :- R(a, b), S(b, c)\n"
    )

    def _serve(self, tmp_path, capsys, script_text, extra=()):
        script = tmp_path / "s.script"
        script.write_text(script_text)
        return run_cli(
            ["serve", "--script", str(script),
             "--data-dir", str(tmp_path / "state"), *extra],
            capsys,
        )

    def test_serve_data_dir_persists_across_runs(self, tmp_path, capsys):
        code, out, err = self._serve(tmp_path, capsys, self.SETUP)
        assert code == 0
        assert "1,3" in out
        assert "# recovered from no snapshot" in err
        # Second run: no CREATEs (state recovered), just more data.
        code, out, err = self._serve(
            tmp_path, capsys,
            "+R 5,2\ncommit\nQ(a, c) :- R(a, b), S(b, c)\n",
        )
        assert code == 0
        assert "# recovered from no snapshot + " in err
        assert "1,3" in out and "5,3" in out

    def test_serve_snapshot_statement_and_on_exit(self, tmp_path, capsys):
        code, out, err = self._serve(
            tmp_path, capsys, self.SETUP + "SNAPSHOT\n+R 7,2\ncommit\n"
        )
        assert code == 0
        assert "# snapshot 1 @ wal lsn" in out
        code, _, err = self._serve(
            tmp_path, capsys, "+R 8,2\ncommit\n",
            extra=["--snapshot-on-exit"],
        )
        assert code == 0
        assert "recovered from snapshot 1" in err
        assert "# snapshot 2 @ wal lsn" in err

    def test_snapshot_on_exit_requires_data_dir(self, tmp_path):
        script = tmp_path / "s.script"
        script.write_text("CREATE R(A)\n")
        with pytest.raises(SystemExit, match="requires --data-dir"):
            main(["serve", "--script", str(script),
                  "--snapshot-on-exit"])

    def test_snapshot_statement_needs_durable_session(self, tmp_path):
        script = tmp_path / "s.script"
        script.write_text("CREATE R(A)\nSNAPSHOT\n")
        with pytest.raises(SystemExit, match="no data directory"):
            main(["serve", "--script", str(script)])

    def test_recover_reports_and_snapshots(self, tmp_path, capsys):
        self._serve(tmp_path, capsys, self.SETUP)
        data_dir = str(tmp_path / "state")
        code, out, _ = run_cli(
            ["recover", "--data-dir", data_dir], capsys
        )
        assert code == 0
        assert "# relation R: 1 rows" in out
        assert "# catalog root: " in out
        code, out, _ = run_cli(
            ["recover", "--data-dir", data_dir, "--snapshot"], capsys
        )
        assert code == 0
        assert "# snapshot 1 @ wal lsn" in out

    @pytest.mark.parametrize("command", ["recover", "verify-state"])
    def test_missing_data_dir_is_refused_and_not_created(
        self, tmp_path, capsys, command
    ):
        missing = tmp_path / "no-such-dir"
        with pytest.raises(SystemExit) as exc_info:
            main([command, "--data-dir", str(missing)])
        assert exc_info.value.code != 0
        assert str(exc_info.value) == f"no such data directory: {missing}"
        assert not missing.exists()
        assert "PASSED" not in capsys.readouterr().out

    def test_verify_state_passes_then_catches_tampering(
        self, tmp_path, capsys
    ):
        import os

        self._serve(
            tmp_path, capsys, self.SETUP + "SNAPSHOT\n"
        )
        data_dir = str(tmp_path / "state")
        code, out, _ = run_cli(
            ["verify-state", "--data-dir", data_dir], capsys
        )
        assert code == 0
        assert "# state verification: PASSED" in out
        target = os.path.join(
            data_dir, "snapshots", "snap-00000001", "R.rows"
        )
        with open(target) as handle:
            text = handle.read()
        with open(target, "w") as handle:
            handle.write(text.replace("1", "6", 1))
        code, out, err = run_cli(
            ["verify-state", "--data-dir", data_dir], capsys
        )
        assert code == 1
        assert "FAIL" in out
        assert "# state verification: FAILED" in err

    def test_injected_crash_exits_3_and_recovery_converges(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CRASH_POINT", "catalog.apply.mutate")
        code, _, err = self._serve(tmp_path, capsys, self.SETUP)
        assert code == 3
        assert "injected crash" in err
        monkeypatch.delenv("REPRO_CRASH_POINT")
        from repro.testing import faults

        faults._ACTIVE = None  # the env hook installs process-wide
        code, out, _ = run_cli(
            ["recover", "--data-dir", str(tmp_path / "state")], capsys
        )
        assert code == 0
        # The batch was WAL-committed before the crash: it survives.
        assert "# relation R: 1 rows" in out

    def test_failed_script_still_closes_durable_session(
        self, tmp_path, capsys
    ):
        # A script error exits non-zero, but the durable session must
        # still be closed (batch-policy close-time fsync): everything
        # committed before the failure survives recovery.
        with pytest.raises(SystemExit):
            self._serve(
                tmp_path, capsys,
                self.SETUP + "THIS IS NOT A STATEMENT\n",
            )
        capsys.readouterr()
        code, out, _ = run_cli(
            ["recover", "--data-dir", str(tmp_path / "state")], capsys
        )
        assert code == 0
        assert "# relation R: 1 rows" in out

    def test_stream_strict_discards_uncommitted_tail(
        self, tmp_path, relation_files, capsys
    ):
        r_spec, s_spec = relation_files
        from repro.dynamic import UncommittedTailWarning

        log = tmp_path / "u.log"
        log.write_text("+R 7,2\ncommit\n+R 9,9\n")  # torn tail
        with pytest.warns(UncommittedTailWarning):
            code, out, _ = run_cli(
                ["stream", "--relation", r_spec, "--relation", s_spec,
                 "--view", "V=R,S", "--log", str(log), "--strict",
                 "--no-recompute"],
                capsys,
            )
        assert code == 0
        assert "# replayed 1 batches" in out


class TestClientCli:
    @staticmethod
    def closed_port_url():
        import socket

        # Bind an ephemeral port, then release it: nothing listens.
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        return f"http://127.0.0.1:{port}"

    @pytest.mark.parametrize("command", [
        ["health"], ["stats"], ["update", "+R 1,2", "--tenant", "t"],
    ])
    def test_unreachable_server_is_a_clean_exit(self, command, capsys):
        url = self.closed_port_url()
        with pytest.raises(SystemExit) as exc:
            main(["client", *command, "--url", url, "--timeout", "5"])
        assert str(exc.value).startswith(f"cannot reach {url}: ")
        assert "refused" in str(exc.value).lower()

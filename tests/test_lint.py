"""The ``repro lint`` static-analysis suite, tested on fixture trees.

Every rule gets a minimal flag/pass pair built as a throwaway
``src/repro`` tree under ``tmp_path`` — the checkers only ever see
ASTs, so tiny snippets exercise exactly the construct under test.
On top of the per-rule fixtures: pragma suppression, the baseline
ratchet's one-way semantics, deterministic report ordering, the CLI
driver's exit codes, and the ``--json`` report shape.

The repo's *own* source is covered too: the suite at the bottom runs
the real checkers over the real tree and requires a clean report, so
a violation introduced anywhere fails unit tests as well as CI's
``make lint``.
"""

from __future__ import annotations

import io
import json
import textwrap
from pathlib import Path

from repro.analysis import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    apply_baseline,
    load_baseline,
    load_project,
    run_checkers,
    write_baseline,
)
from repro.analysis import runner
from repro.analysis.annotations import StrictAnnotationsChecker
from repro.analysis.counters import CounterDisciplineChecker
from repro.analysis.crashpoints import CrashpointParityChecker
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.framework import Finding, RuleStats
from repro.analysis.layering import (
    LayeringChecker,
    ThirdPartyImportChecker,
)
from repro.analysis.payloads import MpPayloadChecker
from repro.analysis.wal_order import WalOrderChecker

REPO_ROOT = Path(__file__).resolve().parent.parent

#: A minimal crashpoint registry + call sites; full-suite fixtures need
#: one because CrashpointParityChecker treats a missing registry as an
#: internal error (exit 2), not a finding.
FAULTS_FIXTURE = {
    "testing/faults.py": """
        CRASH_POINTS = frozenset({"a.one", "a.two"})

        def crashpoint(point: str) -> None:
            pass
        """,
    "dynamic/ops.py": """
        from repro.testing.faults import crashpoint

        def run() -> None:
            crashpoint("a.one")
            crashpoint("a.two")
        """,
}


def make_project(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / "src" / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return load_project(tmp_path)


def run_rule(project, checker):
    active, suppressed, _stats = run_checkers(project, [checker])
    return active, suppressed


class TestLayering:
    def test_back_edge_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/engine.py": "from repro.parallel.executor import go\n",
        })
        active, _ = run_rule(proj, LayeringChecker())
        assert len(active) == 1
        assert "back-edge" in active[0].message
        assert active[0].path == "src/repro/core/engine.py"

    def test_downward_edge_passes(self, tmp_path):
        proj = make_project(tmp_path, {
            "planner/opt.py": "from repro.core.engine import join\n",
            "core/engine.py": "from repro.storage.trie import T\n",
        })
        active, _ = run_rule(proj, LayeringChecker())
        assert active == []

    def test_obs_may_only_import_util(self, tmp_path):
        proj = make_project(tmp_path, {
            "obs/good.py": "from repro.util.counters import OpCounters\n",
            "obs/bad.py": "from repro.core.engine import join\n",
        })
        active, _ = run_rule(proj, LayeringChecker())
        assert len(active) == 1
        assert active[0].path == "src/repro/obs/bad.py"

    def test_testing_importable_from_anywhere(self, tmp_path):
        proj = make_project(tmp_path, {
            "storage/trie.py":
                "from repro.testing.faults import crashpoint\n",
        })
        active, _ = run_rule(proj, LayeringChecker())
        assert active == []


class TestThirdPartyImport:
    def test_module_level_import_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "hypergraph/agm.py": """
                import os.path
                import numpy as np
                from scipy.optimize import linprog
                """,
        })
        active, _ = run_rule(proj, ThirdPartyImportChecker())
        assert [f.message for f in active] == [
            "import of third-party package 'numpy'",
            "import of third-party package 'scipy'",
        ]

    def test_deferred_import_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "hypergraph/agm.py": """
                def cover() -> None:
                    from scipy.optimize import linprog
                """,
        })
        active, _ = run_rule(proj, ThirdPartyImportChecker())
        assert len(active) == 1
        assert "'scipy'" in active[0].message
        assert active[0].line == 3

    def test_stdlib_and_own_package_pass(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/engine.py": """
                from __future__ import annotations
                import json, xml.etree.ElementTree
                from fractions import Fraction
                import repro.storage.trie
                from repro.util import counters
                from . import sibling
                from ..storage import trie
                """,
        })
        active, _ = run_rule(proj, ThirdPartyImportChecker())
        assert active == []

    def test_pragma_suppresses(self, tmp_path):
        proj = make_project(tmp_path, {
            "experiments/plots.py": """
                def draw() -> None:
                    import matplotlib  # lint: disable=third-party-import -- plotting extra
                """,
        })
        active, suppressed = run_rule(proj, ThirdPartyImportChecker())
        assert active == []
        assert len(suppressed) == 1


class TestCounterDiscipline:
    def test_off_protocol_tally_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/engine.py": """
                class Engine:
                    def step(self) -> None:
                        self.findgap += 1
                """,
        })
        active, _ = run_rule(proj, CounterDisciplineChecker())
        assert len(active) == 1
        assert "findgap" in active[0].message

    def test_counters_receiver_passes(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/engine.py": """
                class Engine:
                    def step(self) -> None:
                        self.counters.findgap += 1
                        self.counters.probes += 1
                """,
        })
        active, _ = run_rule(proj, CounterDisciplineChecker())
        assert active == []

    def test_unguarded_tally_dict_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "storage/trie.py": """
                def report(c):
                    return {"findgap": c.findgap, "probes": c.probes}
                """,
        })
        active, _ = run_rule(proj, CounterDisciplineChecker())
        assert len(active) == 1
        assert "tally dict" in active[0].message

    def test_guarded_and_snapshot_dicts_pass(self, tmp_path):
        proj = make_project(tmp_path, {
            "storage/trie.py": """
                def report(counters):
                    if counters.enabled:
                        return {"findgap": 1, "probes": 2}
                    return None

                class T:
                    def snapshot(self):
                        return {"findgap": 1, "probes": 2}
                """,
        })
        active, _ = run_rule(proj, CounterDisciplineChecker())
        assert active == []

    def test_cold_subpackages_not_checked(self, tmp_path):
        proj = make_project(tmp_path, {
            "planner/opt.py": """
                class P:
                    def step(self) -> None:
                        self.findgap += 1
                """,
        })
        active, _ = run_rule(proj, CounterDisciplineChecker())
        assert active == []


class TestCrashpointParity:
    def test_matching_registry_passes(self, tmp_path):
        proj = make_project(tmp_path, dict(FAULTS_FIXTURE))
        active, _ = run_rule(proj, CrashpointParityChecker())
        assert active == []

    def test_unregistered_literal_flags(self, tmp_path):
        files = dict(FAULTS_FIXTURE)
        files["dynamic/extra.py"] = """
            from repro.testing.faults import crashpoint
            crashpoint("a.three")
            """
        proj = make_project(tmp_path, files)
        active, _ = run_rule(proj, CrashpointParityChecker())
        assert len(active) == 1
        assert "a.three" in active[0].message
        assert "not registered" in active[0].message

    def test_orphan_registry_entry_flags(self, tmp_path):
        files = dict(FAULTS_FIXTURE)
        files["dynamic/ops.py"] = """
            from repro.testing.faults import crashpoint

            def run() -> None:
                crashpoint("a.one")
            """
        proj = make_project(tmp_path, files)
        active, _ = run_rule(proj, CrashpointParityChecker())
        assert len(active) == 1
        assert "a.two" in active[0].message

    def test_non_literal_point_flags(self, tmp_path):
        files = dict(FAULTS_FIXTURE)
        files["dynamic/extra.py"] = """
            from repro.testing.faults import crashpoint

            def run(name: str) -> None:
                crashpoint(name)
            """
        proj = make_project(tmp_path, files)
        active, _ = run_rule(proj, CrashpointParityChecker())
        assert len(active) == 1
        assert "non-literal" in active[0].message


WAL_ORDER_OK = """
    class Catalog:
        def create_relation(self, name):
            self._log_control("create", name)
            self._relations[name] = 1

        def register_view(self, name):
            self._log_control("view", name)
            self._views[name] = 1

        def apply_batch(self, updates):
            self.wal.append_batch(updates)
            self.generation = self.generation + 1

        def flush(self, name):
            self._log_control("flush", name)
            self._relations[name].flush()

        def compact(self, name):
            self._log_control("compact", name)
            self._relations[name].compact()
    """


class TestWalOrder:
    def test_log_before_mutate_passes(self, tmp_path):
        proj = make_project(tmp_path, {"dynamic/catalog.py": WAL_ORDER_OK})
        active, _ = run_rule(proj, WalOrderChecker())
        assert active == []

    def test_mutate_before_log_flags(self, tmp_path):
        bad = WAL_ORDER_OK.replace(
            '''self.wal.append_batch(updates)
            self.generation = self.generation + 1''',
            '''self.generation = self.generation + 1
            self.wal.append_batch(updates)''',
        )
        assert bad != WAL_ORDER_OK
        proj = make_project(tmp_path, {"dynamic/catalog.py": bad})
        active, _ = run_rule(proj, WalOrderChecker())
        assert len(active) == 1
        assert "apply_batch" in active[0].message
        assert "precedes the WAL append" in active[0].message

    def test_mutation_without_any_append_flags(self, tmp_path):
        bad = WAL_ORDER_OK.replace(
            '''self._log_control("create", name)
            self._relations[name] = 1''',
            "self._relations[name] = 1",
        )
        proj = make_project(tmp_path, {"dynamic/catalog.py": bad})
        active, _ = run_rule(proj, WalOrderChecker())
        assert len(active) == 1
        assert "without any WAL append" in active[0].message

    def test_missing_configured_method_flags(self, tmp_path):
        bad = WAL_ORDER_OK.replace("def compact", "def compact_renamed")
        proj = make_project(tmp_path, {"dynamic/catalog.py": bad})
        active, _ = run_rule(proj, WalOrderChecker())
        assert len(active) == 1
        assert "Catalog.compact not found" in active[0].message


class TestDeterminism:
    def test_global_rng_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/gen.py": """
                import random
                from random import choice

                def pick(xs):
                    return xs[random.randrange(len(xs))]
                """,
        })
        active, _ = run_rule(proj, DeterminismChecker())
        assert len(active) == 2
        assert any("choice" in f.message for f in active)
        assert any("randrange" in f.message for f in active)

    def test_seeded_instance_passes(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/gen.py": """
                import random
                from random import Random

                def make(seed: int):
                    return random.Random(seed)
                """,
        })
        active, _ = run_rule(proj, DeterminismChecker())
        assert active == []

    def test_wall_clock_outside_obs_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/run.py": "import time\nt = time.perf_counter()\n",
            "obs/run.py": "import time\nt = time.perf_counter()\n",
            "testing/run.py": "import time\nt = time.time()\n",
        })
        active, _ = run_rule(proj, DeterminismChecker())
        assert len(active) == 1
        assert active[0].path == "src/repro/core/run.py"


class TestMpPayload:
    def test_unpicklable_field_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "storage/interval_list.py": """
                class IntervalList:
                    def __init__(self, path):
                        self.data = []
                        self._fh = open(path)
                        self._cb = lambda x: x
                """,
        })
        active, _ = run_rule(proj, MpPayloadChecker())
        assert len(active) == 2
        assert any("open file handle" in f.message for f in active)
        assert any("lambda" in f.message for f in active)

    def test_plain_data_passes(self, tmp_path):
        proj = make_project(tmp_path, {
            "storage/interval_list.py": """
                class IntervalList:
                    def __init__(self, rows):
                        self.data = list(rows)
                """,
        })
        active, _ = run_rule(proj, MpPayloadChecker())
        assert active == []

    def test_missing_registered_class_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "storage/interval_list.py": "class SomethingElse:\n    pass\n",
        })
        active, _ = run_rule(proj, MpPayloadChecker())
        assert len(active) == 1
        assert "IntervalList not found" in active[0].message


class TestStrictAnnotations:
    def test_unannotated_signature_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "util/helpers.py": "def f(x):\n    return x\n",
        })
        active, _ = run_rule(proj, StrictAnnotationsChecker())
        messages = " / ".join(f.message for f in active)
        assert len(active) == 2
        assert "x" in messages  # the parameter
        assert "return" in messages

    def test_bare_generic_flags(self, tmp_path):
        proj = make_project(tmp_path, {
            "util/helpers.py": "def f(x: dict) -> int:\n    return len(x)\n",
        })
        active, _ = run_rule(proj, StrictAnnotationsChecker())
        assert len(active) == 1
        assert "dict" in active[0].message

    def test_fully_annotated_passes(self, tmp_path):
        proj = make_project(tmp_path, {
            "util/helpers.py": """
                from typing import Dict

                def f(x: Dict[str, int], *rest: int, **kw: object) -> int:
                    return len(x)
                """,
        })
        active, _ = run_rule(proj, StrictAnnotationsChecker())
        assert active == []

    def test_outside_ratchet_set_ignored(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/helpers.py": "def f(x):\n    return x\n",
        })
        active, _ = run_rule(proj, StrictAnnotationsChecker())
        assert active == []


class TestPragmas:
    def test_pragma_suppresses_only_named_rule(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/run.py": (
                "import time\n"
                "a = time.time()  # lint: disable=determinism -- report\n"
                "b = time.time()  # lint: disable=other-rule -- nope\n"
                "c = time.time()\n"
            ),
        })
        active, suppressed = run_rule(proj, DeterminismChecker())
        assert [f.line for f in suppressed] == [2]
        assert [f.line for f in active] == [3, 4]

    def test_pragma_rule_list(self, tmp_path):
        proj = make_project(tmp_path, {
            "core/run.py": (
                "import time\n"
                "a = time.time()  # lint: disable=layering,determinism -- x\n"
            ),
        })
        active, suppressed = run_rule(proj, DeterminismChecker())
        assert active == []
        assert len(suppressed) == 1


class TestBaselineRatchet:
    def _finding(self, message="m"):
        return Finding(
            rule="determinism", path="src/repro/core/x.py", line=3,
            message=message,
        )

    def _stats(self):
        return {"determinism": RuleStats(findings=1)}

    def test_unpinned_finding_is_new(self):
        f = self._finding()
        new, pinned, stale = apply_baseline([f], {}, self._stats())
        assert (new, pinned, stale) == ([f], [], [])

    def test_pinned_finding_is_baselined(self):
        f = self._finding()
        new, pinned, stale = apply_baseline([f], {f.key: 1}, self._stats())
        assert (new, pinned, stale) == ([], [f], [])

    def test_fixed_pin_goes_stale(self):
        f = self._finding()
        gone = self._finding("already fixed")
        new, pinned, stale = apply_baseline(
            [f], {f.key: 1, gone.key: 1}, self._stats()
        )
        assert new == []
        assert pinned == [f]
        assert stale == [gone.key]

    def test_pin_count_caps_occurrences(self):
        # Two occurrences of the same key, one pinned: the second is new.
        a, b = self._finding(), self._finding()
        new, pinned, stale = apply_baseline([a, b], {a.key: 1}, self._stats())
        assert (len(new), len(pinned), stale) == (1, 1, [])

    def test_baseline_round_trips(self, tmp_path):
        f = self._finding()
        path = tmp_path / "lint_baseline.json"
        write_baseline(path, [f, f])
        assert load_baseline(path) == {f.key: 2}
        write_baseline(path, [])
        assert load_baseline(path) == {}

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}


class TestRunnerCli:
    def _clean_tree(self, tmp_path):
        make_project(tmp_path, dict(FAULTS_FIXTURE))
        return tmp_path

    def _run(self, root, **kwargs):
        out = io.StringIO()
        code = runner.main(root, stream=out, **kwargs)
        return code, out.getvalue()

    def test_clean_tree_exits_0(self, tmp_path):
        code, text = self._run(self._clean_tree(tmp_path))
        assert code == EXIT_CLEAN
        assert "repro lint: clean" in text

    def test_findings_exit_1_with_summary_table(self, tmp_path):
        root = self._clean_tree(tmp_path)
        (root / "src" / "repro" / "core").mkdir(parents=True)
        (root / "src" / "repro" / "core" / "run.py").write_text(
            "import time\nt = time.time()\n"
        )
        code, text = self._run(root)
        assert code == EXIT_FINDINGS
        assert "determinism" in text
        assert "FAIL" in text
        assert "src/repro/core/run.py:2" in text

    def test_syntax_error_exits_2(self, tmp_path):
        root = self._clean_tree(tmp_path)
        (root / "src" / "repro" / "broken.py").write_text("def f(:\n")
        code, text = self._run(root)
        assert code == EXIT_INTERNAL
        assert "internal error" in text

    def test_update_baseline_then_ratchet(self, tmp_path):
        root = self._clean_tree(tmp_path)
        offender = root / "src" / "repro" / "core" / "run.py"
        offender.parent.mkdir(parents=True)
        offender.write_text("import time\nt = time.time()\n")
        code, _ = self._run(root)
        assert code == EXIT_FINDINGS
        # Pin the finding: the tree is now green with it grandfathered.
        code, _ = self._run(root, update_baseline=True)
        assert code == EXIT_CLEAN
        code, text = self._run(root)
        assert code == EXIT_CLEAN
        assert "baselined" in text
        # Fix the violation: the stale pin itself fails until ratcheted.
        offender.write_text("t = 0\n")
        code, text = self._run(root)
        assert code == EXIT_FINDINGS
        assert "stale baseline" in text
        code, _ = self._run(root, update_baseline=True)
        assert code == EXIT_CLEAN
        code, _ = self._run(root)
        assert code == EXIT_CLEAN

    def test_json_report_shape(self, tmp_path):
        root = self._clean_tree(tmp_path)
        (root / "src" / "repro" / "core").mkdir(parents=True)
        (root / "src" / "repro" / "core" / "run.py").write_text(
            "import time\nt = time.time()\n"
        )
        code, text = self._run(root, as_json=True)
        assert code == EXIT_FINDINGS
        payload = json.loads(text)
        assert payload["failed"] is True
        assert len(payload["findings"]) == 1
        finding = payload["findings"][0]
        assert finding["rule"] == "determinism"
        assert finding["path"] == "src/repro/core/run.py"
        assert finding["line"] == 2
        assert payload["summary"]["determinism"]["findings"] == 1

    def test_report_order_is_deterministic(self, tmp_path):
        root = self._clean_tree(tmp_path)
        (root / "src" / "repro" / "core").mkdir(parents=True)
        (root / "src" / "repro" / "core" / "zz.py").write_text(
            "import time\nt = time.time()\n"
        )
        (root / "src" / "repro" / "core" / "aa.py").write_text(
            "import time\nt = time.time()\nu = time.monotonic()\n"
        )
        code, first = self._run(root)
        assert code == EXIT_FINDINGS
        _, second = self._run(root)
        assert first == second
        lines = [l for l in first.splitlines() if l.startswith("src/")]
        assert lines == sorted(lines)


class TestRepoIsClean:
    """The real tree must satisfy its own linter (mirrors `make lint`)."""

    def test_repo_lints_clean(self):
        report = runner.lint_project(
            REPO_ROOT, REPO_ROOT / runner.BASELINE_REL
        )
        assert not report.findings, [f.render() for f in report.findings]
        assert not report.stale_baseline

    def test_committed_baseline_is_empty(self):
        assert load_baseline(REPO_ROOT / runner.BASELINE_REL) == {}

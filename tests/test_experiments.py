"""Experiment-registry tests (the EXPERIMENTS.md machinery)."""

import dataclasses
import os

import pytest

import repro.experiments
from repro.cli import main
from repro.experiments.runners import (
    BASELINE,
    EXPERIMENTS,
    REGENERATE,
    ExperimentResult,
    catalogue,
    fit_exponent,
    format_table,
    report,
    run_appendix_j,
    run_beta_cyclic,
    run_constant_certificate,
    run_figure2,
    run_gao_dependence,
    run_planner,
    run_treewidth,
    run_triangle,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestHelpers:
    def test_fit_exponent_exact(self):
        xs = [1, 2, 4, 8]
        assert abs(fit_exponent(xs, [x**2 for x in xs]) - 2.0) < 1e-9
        assert abs(fit_exponent(xs, [5 * x for x in xs]) - 1.0) < 1e-9

    def test_fit_exponent_needs_points(self):
        with pytest.raises(ValueError):
            fit_exponent([1], [1])

    def test_format_table(self):
        result = ExperimentResult("demo", ["a", "bee"])
        result.rows.append({"a": 1, "bee": 22})
        text = format_table(result)
        assert "demo" in text
        assert "bee" in text
        assert "22" in text

    def test_column_accessor(self):
        result = ExperimentResult("demo", ["a"])
        result.rows = [{"a": 1}, {"a": 3}]
        assert result.column("a") == [1, 3]


class TestRunners:
    """Each runner reproduces its experiment's shape at reduced scale."""

    def test_registry_complete(self):
        assert set(EXPERIMENTS) == {
            "figure2",
            "beta-acyclic",
            "appendix-j",
            "constant-certificate",
            "gao",
            "treewidth",
            "triangle",
            "triangle-planted",
            "intersection",
            "bowtie",
            "beta-cyclic",
            "certificate-bound",
            "memoization",
            "interval-merge",
            "planner",
            "view-maintenance",
        }
        exported = set(repro.experiments.__all__)
        assert {exp.run.__name__ for exp in EXPERIMENTS.values()} <= exported

    def test_figure2_small(self):
        result = run_figure2(scale=0.1, probability=0.01)
        assert len(result.rows) == 9
        for row in result.rows:
            assert row["C"] < row["N"]

    def test_appendix_j(self):
        result = run_appendix_j(blocks=(8, 16))
        ms = result.column("minesweeper")
        lf = result.column("leapfrog")
        assert lf[-1] / ms[-1] > lf[0] / ms[0]  # gap widens

    def test_gao_dependence(self):
        result = run_gao_dependence(sizes=(4, 8))
        by_key = {(r["n"], r["gao"]): r["work"] for r in result.rows}
        assert by_key[(8, "CAB")] * 4 < by_key[(8, "ABC")]

    def test_treewidth(self):
        result = run_treewidth(ms=(4, 8))
        backtracks = result.column("backtracks")
        assert backtracks == [20, 72]
        # For w = 3 the shadow-meet backtracker shares some prefix
        # dismissals (a wildcard meet retires a whole slab), so the
        # count sits between m² and m³: still superlinear in |C|.
        for row in run_treewidth(ms=(3, 5), w=3).rows:
            assert row["backtracks"] >= row["m"] ** 2

    def test_triangle(self):
        result = run_triangle(sizes=(8, 16))
        for row in result.rows:
            assert row["dyadic"] < row["generic"]

    def test_beta_cyclic(self):
        result = run_beta_cyclic(sizes=(6, 12))
        ratios = result.column("work_per_C")
        assert ratios[1] > ratios[0]

    def test_constant_certificate(self):
        result = run_constant_certificate(sizes=(100, 1_000))
        assert result.column("ms_probes") == [2, 2]
        comparisons = result.column("yannakakis_comparisons")
        assert comparisons[1] > 5 * comparisons[0]

    def test_planner(self):
        result = run_planner(n=12, m=30)
        shapes = result.column("shape")
        assert shapes == ["triangle", "bowtie", "3-path", "star", "4-cycle"]
        engines = dict(zip(shapes, result.column("engine")))
        assert engines["bowtie"] == "yannakakis"
        # unsampled random cyclic shapes (|C| several times N): the
        # measured pick is generic join, probing less than Minesweeper
        # under the naive fixed order
        assert engines["triangle"] == engines["4-cycle"] == "generic"
        by_shape = {row["shape"]: row for row in result.rows}
        for shape in ("triangle", "4-cycle"):
            row = by_shape[shape]
            assert row["planner_ops"] <= row["fixed_gao_findgap"]


@pytest.fixture(scope="module")
def full_report():
    """One run of every experiment at its one scale (~10 s), shared."""
    return report()


class TestRegistry:
    """The estate itself: every entry runs, holds, and is on record."""

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_entry_runs_and_its_claim_holds(self, name, full_report):
        exp = EXPERIMENTS[name]
        assert exp.name == name
        assert exp.paper and exp.description and exp.claim
        text, failed = full_report
        assert name not in failed
        assert f"## `{name}` — {exp.paper}" in text

    def test_report_equals_committed_baseline(self, full_report):
        text, failed = full_report
        assert failed == []
        with open(os.path.join(REPO_ROOT, BASELINE)) as handle:
            committed = handle.read()
        assert text == committed, (
            f"paper-experiment tables moved; if intended, regenerate with "
            f"`{REGENERATE}` and review the diff"
        )

    def test_experiments_md_embeds_the_catalogue(self):
        with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as handle:
            assert catalogue() in handle.read(), (
                "EXPERIMENTS.md §1 no longer matches the registry: paste "
                "repro.experiments.catalogue() over its catalogue table"
            )

    def test_flipped_inequality_fails_the_command(self, monkeypatch, capsys):
        name = "constant-certificate"
        exp = EXPERIMENTS[name]

        def flipped(result):
            """Yannakakis needs fewer than 2n comparisons (it does not)."""
            for row in result.rows:
                assert row["yannakakis_comparisons"] < 2 * row["n"], row

        assert main(["experiments", name]) == 0
        monkeypatch.setitem(
            EXPERIMENTS, name, dataclasses.replace(exp, check=flipped)
        )
        assert main(["experiments", name]) == 1
        captured = capsys.readouterr()
        assert "Claim: Yannakakis needs fewer" in captured.out
        assert "check: FAILED" in captured.out
        assert name in captured.err

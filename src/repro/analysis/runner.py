"""``repro lint`` driver: run every checker, ratchet, report.

Exit codes (consumed by ``make lint`` / CI):

* ``0`` — clean: no findings beyond the committed baseline, no stale
  baseline pins.
* ``1`` — findings: new violations, or baseline pins whose violation
  was fixed (ratchet the baseline down with ``--update-baseline``).
* ``2`` — internal error: unparsable source, broken checker, bad
  baseline file.  CI must treat this as red, not green.

The human report leads with a per-rule summary table so a CI failure
is readable without scrolling raw findings; ``--json`` emits the full
machine-consumable report instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence

from repro.analysis.annotations import StrictAnnotationsChecker
from repro.analysis.counters import CounterDisciplineChecker
from repro.analysis.crashpoints import CrashpointParityChecker
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.framework import (
    Checker,
    Finding,
    LintError,
    LintReport,
    Project,
    apply_baseline,
    load_baseline,
    load_project,
    run_checkers,
    write_baseline,
)
from repro.analysis.layering import (
    LayeringChecker,
    ThirdPartyImportChecker,
)
from repro.analysis.payloads import MpPayloadChecker
from repro.analysis.wal_order import WalOrderChecker

#: Default baseline location, relative to the repo root (next to the
#: op-count baseline the drift gate uses).
BASELINE_REL = "benchmarks/baselines/lint_baseline.json"

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL = 2


def all_checkers() -> List[Checker]:
    """The rule suite, in stable registration order."""
    return [
        LayeringChecker(),
        ThirdPartyImportChecker(),
        CounterDisciplineChecker(),
        CrashpointParityChecker(),
        WalOrderChecker(),
        DeterminismChecker(),
        MpPayloadChecker(),
        StrictAnnotationsChecker(),
    ]


def lint_project(
    root: Path, baseline_path: Optional[Path] = None
) -> LintReport:
    """Run the full suite over ``<root>/src/repro`` and apply the
    baseline ratchet.  Raises :class:`LintError` on internal failure."""
    project = load_project(root)
    return lint_loaded(project, baseline_path)


def lint_loaded(
    project: Project, baseline_path: Optional[Path] = None
) -> LintReport:
    active, suppressed, stats = run_checkers(project, all_checkers())
    baseline = (
        load_baseline(baseline_path) if baseline_path is not None else {}
    )
    new, pinned, stale = apply_baseline(active, baseline, stats)
    return LintReport(
        findings=new,
        suppressed=suppressed,
        baselined=pinned,
        stale_baseline=stale,
        stats=stats,
    )


def _summary_table(report: LintReport) -> str:
    checkers = all_checkers()
    headers = ("rule", "findings", "baselined", "suppressed", "status")
    rows = []
    for checker in checkers:
        stat = report.stats.get(checker.rule)
        if stat is None:
            continue
        status = "FAIL" if stat.findings else "ok"
        rows.append(
            (
                checker.rule,
                str(stat.findings),
                str(stat.baselined),
                str(stat.suppressed),
                status,
            )
        )
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows))
        for i in range(len(headers))
    ]
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_report(report: LintReport, stream: IO[str]) -> None:
    print(_summary_table(report), file=stream)
    if report.findings:
        print(file=stream)
        for finding in report.findings:
            print(finding.render(), file=stream)
    if report.stale_baseline:
        print(file=stream)
        print(
            "stale baseline pins (the violation was fixed — ratchet "
            "down with `repro lint --update-baseline`):",
            file=stream,
        )
        for key in report.stale_baseline:
            print(f"  {key}", file=stream)
    total = len(report.findings)
    verdict = (
        "clean"
        if not report.failed
        else f"{total} finding(s), {len(report.stale_baseline)} stale pin(s)"
    )
    print(file=stream)
    print(f"repro lint: {verdict}", file=stream)


def report_to_json(report: LintReport) -> str:
    payload = {
        "findings": [f.to_json() for f in report.findings],
        "baselined": [f.to_json() for f in report.baselined],
        "suppressed": [f.to_json() for f in report.suppressed],
        "stale_baseline": list(report.stale_baseline),
        "summary": {
            rule: {
                "findings": stat.findings,
                "baselined": stat.baselined,
                "suppressed": stat.suppressed,
            }
            for rule, stat in report.stats.items()
        },
        "failed": report.failed,
    }
    return json.dumps(payload, indent=2)


def main(
    root: Path,
    as_json: bool = False,
    update_baseline: bool = False,
    baseline: Optional[Path] = None,
    stream: Optional[IO[str]] = None,
) -> int:
    """Entry point shared by ``repro lint`` and ``python -m``-style use."""
    out: IO[str] = stream if stream is not None else sys.stdout
    baseline_path = (
        baseline if baseline is not None else root / BASELINE_REL
    )
    try:
        if update_baseline:
            project = load_project(root)
            active, _, _ = run_checkers(project, all_checkers())
            write_baseline(baseline_path, active)
            print(
                f"baseline updated: {len(active)} finding(s) pinned in "
                f"{baseline_path}",
                file=out,
            )
            return EXIT_CLEAN
        report = lint_project(root, baseline_path)
    except LintError as exc:
        print(f"repro lint: internal error: {exc}", file=out)
        return EXIT_INTERNAL
    if as_json:
        print(report_to_json(report), file=out)
    else:
        render_report(report, out)
    return EXIT_FINDINGS if report.failed else EXIT_CLEAN

"""Static analysis for the reproduction: ``repro lint``.

Machine-checks the invariants earlier PRs established informally —
import layering, the stdlib-only runtime, counter discipline,
crashpoint parity, log-before-mutate WAL ordering, determinism hygiene,
multiprocessing payload picklability, and the strict-typing ratchet.  See
:mod:`repro.analysis.framework` for the checker/baseline machinery and
:mod:`repro.analysis.runner` for the CLI driver.
"""

from repro.analysis.framework import (
    Checker,
    Finding,
    LintError,
    LintReport,
    ModuleInfo,
    Project,
    apply_baseline,
    load_baseline,
    load_project,
    run_checkers,
    write_baseline,
)
from repro.analysis.runner import (
    BASELINE_REL,
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL,
    all_checkers,
    lint_loaded,
    lint_project,
    main,
    render_report,
    report_to_json,
)

__all__ = [
    "BASELINE_REL",
    "Checker",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_INTERNAL",
    "Finding",
    "LintError",
    "LintReport",
    "ModuleInfo",
    "Project",
    "all_checkers",
    "apply_baseline",
    "lint_loaded",
    "lint_project",
    "load_baseline",
    "load_project",
    "main",
    "render_report",
    "report_to_json",
    "run_checkers",
    "write_baseline",
]

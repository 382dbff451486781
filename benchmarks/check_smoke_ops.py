"""Fail CI on operation-count drift against a committed baseline.

Runs every smoke workload (``_workloads.SMOKE_WORKLOADS``) and compares
the op snapshots against ``benchmarks/baselines/smoke_ops.json``.  The
paper's evaluation currency is operation counts, and the arena CDS's
contract is *exact* count equality with the pointer tree — so the
registry's ``cds/*`` family runs every engine shape on both tiers
(``cds/<shape>/pointer`` and ``cds/<shape>/arena``) and this check also
compares each pair; any drift (between tiers, or against history)
fails loudly.

Refresh intentionally after an algorithmic change (prints the same
per-row ``field: (old, new)`` drift report a failing check prints —
review it, and paste it into the PR)::

    PYTHONPATH=src python benchmarks/check_smoke_ops.py --update

The baseline stores one snapshot per workload; it is backend-invariant
by construction (that invariance is exactly what the check enforces).
Timing-dependent keys (none today) must not be added to snapshots —
only deterministic op tallies belong here.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines", "smoke_ops.json"
)


def collect() -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from _workloads import SMOKE_WORKLOADS

    return {name: SMOKE_WORKLOADS[name]() for name in sorted(SMOKE_WORKLOADS)}


def load_baseline() -> dict:
    with open(BASELINE) as handle:
        return json.load(handle)


def drift_report(baseline: dict, current: dict) -> list:
    """One line per workload whose snapshot differs: the moved fields as
    ``field: (baseline, current)``."""
    lines = []
    for name in sorted(set(baseline) | set(current)):
        if name not in current:
            lines.append(f"{name}: missing from this checkout")
        elif name not in baseline:
            lines.append(f"{name}: not in baseline")
        elif baseline[name] != current[name]:
            drift = {
                key: (baseline[name].get(key), current[name].get(key))
                for key in sorted(set(baseline[name]) | set(current[name]))
                if baseline[name].get(key) != current[name].get(key)
            }
            lines.append(f"{name}: {drift}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the committed baseline from this run",
    )
    args = parser.parse_args(argv)
    current = collect()
    if args.update:
        # Print what the rewrite changes, so the refresh is a reviewed
        # diff (paste it into the PR) and not a rubber stamp.
        try:
            previous = load_baseline()
        except OSError:
            previous = {}
        moved = drift_report(previous, current)
        os.makedirs(os.path.dirname(BASELINE), exist_ok=True)
        with open(BASELINE, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        for line in moved:
            print(f"  {line}")
        print(
            f"wrote {BASELINE} ({len(current)} workloads, "
            f"{len(moved)} changed)"
        )
        return 0
    try:
        baseline = load_baseline()
    except OSError as exc:
        print(f"cannot read baseline {BASELINE}: {exc}", file=sys.stderr)
        return 2
    failures = drift_report(baseline, current)
    shapes = sorted(
        name[: -len("/pointer")]
        for name in current
        if name.startswith("cds/") and name.endswith("/pointer")
    )
    for shape in shapes:
        if current[f"{shape}/pointer"] != current.get(f"{shape}/arena"):
            failures.append(
                f"{shape}: pointer and arena op counts differ"
            )
    if failures:
        print(
            f"op-count drift vs {os.path.basename(BASELINE)}:",
            file=sys.stderr,
        )
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        print("intended? refresh with --update", file=sys.stderr)
        return 1
    print(
        f"op counts match baseline for {len(current)} smoke workloads "
        f"({len(shapes)} cds/* shapes identical under both CDS backends)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

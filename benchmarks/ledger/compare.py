#!/usr/bin/env python3
"""A/A and A/B comparison of two ledger reports.

    python3 benchmarks/ledger/compare.py A/report.json B/report.json

One row per (end-to-end metric, workload): both medians with their
quartiles over the reports' repeats, the ratio B/A with its base, the
metric's bound from BENCHMARK.json, and a verdict:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread (quartile distance over median,
                the wider of the two sides) exceeds the bound, so the
                row cannot say "unchanged" — take more repeats.

Then the exact-count guard: op-sequence digests and the counts that
must repeat exactly for one seed (engine ops per pass, FindGap over
|C|, WAL bytes per update, plans built) are compared for identity.
Exit code 1 on any ``regressed``, ``unresolved`` or differing count.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Tuple

EXACT_COUNTS = (
    "core.ops_per_pass",
    "core.findgap_over_cert",
    "dynamic.wal_bytes_per_update",
    "planner.plans_built",
)


def load(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def per_repeat(report: Dict[str, object], traced: bool, key: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, one per repeat."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in report["runs"]:
        if bool(run["traced"]) != traced:
            continue
        for name, value in run.get(key, {}).items():
            out.setdefault((run["workload"], name), []).append(value)
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def compare(a: Dict[str, object], b: Dict[str, object]) -> Tuple[List[str], bool]:
    contract = a["contract"]
    a_vals = per_repeat(a, False, "e2e")
    b_vals = per_repeat(b, False, "e2e")
    lines = [
        f"{'workload':<18} {'metric':<15} {'A med [q1, q3]':<32} "
        f"{'B med [q1, q3]':<32} {'B/A':>7} {'bound':>6}  verdict"
    ]
    clean = True
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_vals or key not in b_vals:
                continue
            qa, qb = quartiles(a_vals[key]), quartiles(b_vals[key])
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            worse = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
            noise = max(spread(a_vals[key]), spread(b_vals[key]))
            if noise > metric["bound"]:
                verdict = f"unresolved (spread {noise:.1%} > bound)"
            elif worse > metric["bound"]:
                verdict = f"regressed ({worse:+.1%})"
            else:
                verdict = "ok"
            clean = clean and verdict == "ok"
            cell = "{:.4g} [{:.4g}, {:.4g}] n={}"
            lines.append(
                f"{workload:<18} {metric['name']:<15} "
                f"{cell.format(qa[1], qa[0], qa[2], len(a_vals[key])):<32} "
                f"{cell.format(qb[1], qb[0], qb[2], len(b_vals[key])):<32} "
                f"{ratio:>7.3f} {metric['bound']:>6.2f}  {verdict}"
            )
    return lines, clean


def exact_guard(a: Dict[str, object], b: Dict[str, object]) -> Tuple[List[str], bool]:
    lines, same = ["", "exact-count guard (must be identical for one seed):"], True

    def digests(report):
        return {
            (r["workload"], bool(r["traced"])): r.get("op_digest")
            for r in report["runs"]
        }

    da, db = digests(a), digests(b)
    for key in sorted(set(da) & set(db)):
        if da[key] != db[key]:
            same = False
            lines.append(f"  DIFFERS op digest {key}: {da[key][:12]} vs {db[key][:12]}")
    la, lb = per_repeat(a, True, "layers"), per_repeat(b, True, "layers")
    for (workload, name), values in sorted(la.items()):
        if name not in EXACT_COUNTS or (workload, name) not in lb:
            continue
        seen = set(values) | set(lb[(workload, name)])
        if len(seen) != 1:
            same = False
            lines.append(f"  DIFFERS {workload} {name}: {sorted(seen)}")
    if a["args"]["seed"] != b["args"]["seed"]:
        lines.append(f"  (seeds differ: {a['args']['seed']} vs {b['args']['seed']}; "
                     "digests are expected to)")
    elif same:
        lines.append("  identical")
    return lines, same or a["args"]["seed"] != b["args"]["seed"]


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    a, b = load(argv[0]), load(argv[1])
    rows, clean = compare(a, b)
    guard, same = exact_guard(a, b)
    print("\n".join(rows + guard))
    return 0 if clean and same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

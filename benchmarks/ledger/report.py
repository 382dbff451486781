"""Turning a run's raw result into printed metrics and artifacts.

Per run directory (the per-run-artifact pattern): ``report.json``
(everything, machine-readable, the input of ``compare.py``),
``summary.md`` (the tables a person reads) and, for traced runs,
``spans.jsonl`` (written by :mod:`layers`).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
from typing import Dict, List

import spec

#: Units of the class-specific metrics that ride along in the report
#: (the contract's end-to-end metrics carry theirs in BENCHMARK.json).
NAMED_UNITS = {
    "pass_p50_ms": "ms", "read_p50_ms": "ms", "read_p95_ms": "ms",
    "write_p50_ms": "ms", "write_p95_ms": "ms", "replan_read_p50_ms": "ms",
    "recover_s": "s", "failed_share": "ratio", "dir_bytes": "bytes",
    "live_tuples": "count",
}


def _units(kind: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec.load_contract()[kind]}


def finalize(result: Dict[str, object]) -> Dict[str, object]:
    """Derive failure share, validity and the verdict."""
    failures = result["failures"]
    failed = sum(failures.values())
    attempted = max(int(result["attempted"]), 1)
    kind = "per_layer" if result["traced"] else "end_to_end"
    metrics = result["layers"] if result["traced"] else result["e2e"]
    missing = [name for name in spec.metric_names(kind) if name not in metrics]
    result["failed"] = failed
    result["attempted"] = attempted
    result.setdefault("named", {})["failed_share"] = failed / attempted
    result["missing_metrics"] = missing
    result["correct"] = failed == 0 and not missing
    if not result["traced"]:
        # A generator that ran late measured its own lateness: flag it.
        lag = result["bench"].get("sched_lag_p95_ms", 0.0)
        p50 = result["e2e"].get("op_p50_ms")
        result["valid"] = p50 is not None and lag <= spec.MAX_LAG_SHARE * p50
    return result


def result_line(result: Dict[str, object]) -> Dict[str, object]:
    """The driver's object: correct / attempted / failed / metrics."""
    kind = "per_layer" if result["traced"] else "end_to_end"
    values = result["layers"] if result["traced"] else result["e2e"]
    units = _units(kind)
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in spec.metric_names(kind) if name in values
        },
    }


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def metric_lines(result: Dict[str, object]) -> List[str]:
    """``name value unit`` for every metric the run produced."""
    lines: List[str] = []
    if result["traced"]:
        units = _units("per_layer")
        for name in spec.metric_names("per_layer"):
            if name in result["layers"]:
                lines.append(f"{name:<36} {_fmt(result['layers'][name]):>14} {units[name]}")
        return lines
    units = _units("end_to_end")
    for name in spec.metric_names("end_to_end"):
        if name in result["e2e"]:
            lines.append(f"{name:<36} {_fmt(result['e2e'][name]):>14} {units[name]}")
    for name, value in sorted(result["named"].items()):
        lines.append(f"{name:<36} {_fmt(value):>14} {NAMED_UNITS.get(name, '')}")
    for kind, t in result["timings"].items():
        if not t.get("n"):
            continue
        tail = (
            f"p95 {t['p95_ms']:.3f}" if t["p95_supported"]
            else f"p95 ({t['p95_ms']:.3f}: n<{spec.P95_MIN_SAMPLES})"
        )
        lines.append(
            f"  timing.{kind:<27} n={t['n']:<5} p50 {t['p50_ms']:.3f} ms "
            f"[q1 {t['q1_ms']:.3f}, q3 {t['q3_ms']:.3f}] {tail}"
        )
    for name in ("datagen_s", "oracle_s", "sched_lag_p95_ms"):
        unit = "ms" if name.endswith("_ms") else "s"
        lines.append(f"bench.{name:<30} {_fmt(result['bench'][name]):>14} {unit}")
    lines.append(f"bench.{'speed':<30} {_fmt(result['bench']['speed']):>14} x reference")
    for name, value in result["bench"]["as_measured"].items():
        lines.append(f"  as measured: {name:<21} {_fmt(value):>14}")
    return lines


def print_run(result: Dict[str, object]) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(
        f"## {result['workload']} [{mode}] seed={result['seed']} "
        f"seconds={result['seconds']:g} repeat={result.get('repeat', 0)} "
        f"wall={result['wall_s']:.1f}s"
    )
    for line in metric_lines(result):
        print(line)
    for line in result.get("ledger_md", []):
        print(line)
    verdict = "ok" if result["correct"] else "FAILED"
    extras = ""
    if not result["traced"] and not result.get("valid", True):
        extras = "  (INVALID: generator lag p95 above 10 % of op_p50_ms)"
    print(
        f"# {verdict}: attempted={result['attempted']} failed={result['failed']} "
        f"{result['failures']}{extras}"
    )
    for failure in result.get("first_failures", []):
        print(f"#   {failure}")
    if result["missing_metrics"]:
        print(f"#   missing metrics: {result['missing_metrics']}")
    print(f"# op-sequence digest {result.get('op_digest', '')[:16]}", flush=True)


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


def machine() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def medians_by_workload(runs: List[Dict[str, object]], traced: bool) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> per-repeat values (untraced: e2e + named)."""
    out: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        if bool(run["traced"]) != traced:
            continue
        values = dict(run["layers"]) if traced else {**run["e2e"], **run["named"]}
        for name, value in values.items():
            out.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    return out


def write_artifacts(path: str, run_id: str, args: Dict[str, object],
                    runs: List[Dict[str, object]]) -> None:
    with open(os.path.join(path, "report.json"), "w") as handle:
        json.dump(
            {"run_id": run_id, "args": args, "machine": machine(),
             "contract": spec.load_contract(), "runs": runs},
            handle, indent=1, sort_keys=True, default=str,
        )
        handle.write("\n")
    with open(os.path.join(path, "summary.md"), "w") as handle:
        handle.write("\n".join(summary_lines(run_id, runs)) + "\n")


def summary_lines(run_id: str, runs: List[Dict[str, object]]) -> List[str]:
    lines = [
        f"# Ledger run {run_id}", "",
        f"Machine: {machine()}.  fsync policy: `{spec.FSYNC}`.  "
        "Durability is sandbox-level: a process kill keeps the OS page "
        "cache, so `serve_write` proves acknowledged writes survive a "
        "SIGKILL, not a power loss.", "",
    ]
    e2e = medians_by_workload(runs, traced=False)
    if e2e:
        lines += ["## End-to-end (tracing off; median over repeats)", ""]
        names = spec.metric_names("end_to_end")
        lines.append("| workload | " + " | ".join(names) + " | failed_share |")
        lines.append("|---|" + "---|" * (len(names) + 1))
        for workload, values in e2e.items():
            cells = [
                _fmt(statistics.median(values[n])) if n in values else "—"
                for n in names
            ]
            cells.append(_fmt(statistics.median(values["failed_share"])))
            lines.append(f"| `{workload}` | " + " | ".join(cells) + " |")
        lines += ["", "### Class metrics", ""]
        for workload, values in e2e.items():
            named = {
                n: statistics.median(v) for n, v in values.items()
                if n in NAMED_UNITS and n != "failed_share"
            }
            cells = ", ".join(
                f"`{n}` {_fmt(v)} {NAMED_UNITS[n]}" for n, v in sorted(named.items())
            )
            lines.append(f"- `{workload}`: {cells}")
        lines.append("")
    # One ledger per workload: the last traced repeat's.
    traced = {run["workload"]: run for run in runs if run["traced"]}
    for workload, run in traced.items():
        if run.get("ledger_md"):
            lines += [f"## Ledger: `{workload}` (traced re-drive)", ""]
            lines += run["ledger_md"]
            lines.append("")
    answers = [run["answers_md"] for run in traced.values() if run.get("answers_md")]
    if answers:
        lines += ["## ROADMAP item 1's open questions", ""]
        for block in answers:
            lines += block
        lines.append("")
    return lines

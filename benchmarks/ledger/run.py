#!/usr/bin/env python3
"""The layered perf ledger: one command, five workloads, every metric.

Two callers, one program::

    # the driver (one workload per invocation, JSON result on the last line)
    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

    # a person (all workloads, artifacts under benchmarks/results/ledger/<run-id>/)
    python3 benchmarks/ledger/run.py [--workload NAME]... [--seed N] [--trace]
                                     [--smoke] [--repeat K] [--out DIR]

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the per-layer probes and the traced re-drive and
reports only per-layer metrics; a bare ``--trace`` does both.  Every
metric is printed by name with its unit, every answer is checked
against an independent oracle, and the exit code is non-zero on any
correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, LEDGER_DIR)

import spec  # noqa: E402

if not os.path.isdir(os.path.join(spec.SRC_DIR, "repro")):
    sys.stderr.write(
        f"ledger: no program to measure: {spec.SRC_DIR}/repro is missing\n"
    )
    raise SystemExit(2)
sys.path.insert(0, spec.SRC_DIR)

import harness  # noqa: E402
import report  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv: List[str]) -> argparse.Namespace:
    contract = spec.load_contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=spec.WORKLOADS,
                        help="workload to run (repeatable; default all five)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="seconds the measured phases are sized for")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end only; 1: per-layer only; bare: both")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances and op counts (the tier-1 self-test)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="repeats, alternated across workloads; per-repeat "
                        "values are kept for compare.py")
    parser.add_argument("--out", help="artifact directory "
                        "(default benchmarks/results/ledger/<run-id>/)")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help=argparse.SUPPRESS)  # self-test: must exit non-zero
    return parser.parse_args(argv)


def run_one(name: str, traced: bool, settings: workloads.Settings,
            workspace: harness.Workspace, artifacts: str) -> Dict[str, object]:
    started = time.perf_counter()
    if traced:
        import layers

        result = layers.run_traced(name, settings, workspace, artifacts)
    else:
        result = workloads.run(name, settings, workspace)
    result.update(
        workload=name, seed=settings.seed, seconds=settings.seconds,
        traced=traced, smoke=settings.smoke,
        wall_s=time.perf_counter() - started,
    )
    return report.finalize(result)


def run_in_child(name: str, traced: bool, args: argparse.Namespace,
                 artifacts: str, tag: str) -> Dict[str, object]:
    """One run in a fresh process, as every run the driver makes is:
    nothing (RSS high-water, caches, GC state) carries over from the
    run before.  The child's printed metrics pass through."""
    out = os.path.join(artifacts, tag)
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if traced else "0", "--out", out,
    ]
    command += ["--smoke"] if args.smoke else []
    command += ["--corrupt-oracle"] if args.corrupt_oracle else []
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    print("\n".join(line for line in lines[:-1] if not line.startswith("# artifacts")),
          flush=True)
    if not os.path.exists(os.path.join(out, "report.json")):
        raise RuntimeError(f"run {tag} produced no report (exit {done.returncode})")
    with open(os.path.join(out, "report.json")) as handle:
        return json.load(handle)["runs"][0]


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    names = args.workload or list(spec.WORKLOADS)
    modes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    run_id = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    artifacts = args.out or os.path.join(spec.DEFAULT_OUT, run_id)
    os.makedirs(artifacts, exist_ok=True)
    plan = [
        (repeat, name, traced)
        for repeat in range(args.repeat) for name in names for traced in modes
    ]
    runs: List[Dict[str, object]] = []
    if len(plan) == 1:
        settings = workloads.Settings(
            args.seed, args.seconds, smoke=args.smoke,
            corrupt_oracle=args.corrupt_oracle,
        )
        _, name, traced = plan[0]
        with harness.Workspace(artifacts) as workspace:
            runs.append(run_one(name, traced, settings, workspace, artifacts))
        runs[0]["repeat"] = 0
        report.print_run(runs[0])
    else:
        for repeat, name, traced in plan:
            tag = f"{name}-{'traced' if traced else 'e2e'}-{repeat}"
            runs.append(run_in_child(name, traced, args, artifacts, tag))
            runs[-1]["repeat"] = repeat
    report.write_artifacts(artifacts, run_id, vars(args), runs)
    print(f"# artifacts: {os.path.relpath(artifacts)}")
    # The driver reads the last line: the last run's result object.
    print(json.dumps(report.result_line(runs[-1])))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

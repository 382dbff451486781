"""Smoke self-test of the perf ledger (collected by the tier-1 run).

``run.py --smoke`` on tiny op counts drives all five workloads — server
spawn, SIGKILL and recovery included — and one traced run; the checks
are about the benchmark's *shape*, never its numbers: names match
``BENCHMARK.json``, the contract's limits hold, a corrupted expectation
fails the command, and nothing (server process, temp data dir) is left
behind on success or on failure.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def _spawn(out_dir, *args):
    return subprocess.Popen(
        [sys.executable, RUN, "--smoke", "--out", str(out_dir), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )


def _finish(proc):
    stdout, stderr = proc.communicate(timeout=120)
    return proc.returncode, stdout, stderr


def _servers_of(out_dir):
    """PIDs of ``repro serve`` processes started over ``out_dir``."""
    pids = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
        except OSError:
            continue
        if "serve" in cmdline and str(out_dir) in cmdline:
            pids.append(int(pid))
    return pids


def _leftovers(out_dir):
    """Scratch directories (temp data dirs live in them) still on disk."""
    return [
        os.path.join(root, name)
        for root, dirs, _ in os.walk(out_dir)
        for name in dirs if name.startswith(".work-")
    ]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The four smoke invocations, run side by side to fit the budget."""
    dirs = {
        name: tmp_path_factory.mktemp(name)
        for name in ("e2e", "traced", "bad_engine", "bad_serving")
    }
    procs = {
        "e2e": _spawn(dirs["e2e"]),
        "traced": _spawn(dirs["traced"], "--trace", "1", "--workload", "serve_write"),
        "bad_engine": _spawn(dirs["bad_engine"], "--corrupt-oracle",
                             "--workload", "engine_paper"),
        "bad_serving": _spawn(dirs["bad_serving"], "--corrupt-oracle",
                              "--workload", "serve_read_hot"),
    }
    return {name: (dirs[name], *_finish(proc)) for name, proc in procs.items()}


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert metric["better"] in ("lower", "higher")
        assert UNIT_RE.match(metric["unit"]), metric
    assert all(NAME_RE.match(name) for name in names), names
    assert len(set(names)) == len(names)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert len(json.dumps(CONTRACT)) < 64 * 1024


def test_all_workloads_run_green(runs):
    out_dir, code, stdout, stderr = runs["e2e"]
    assert code == 0, stdout[-2000:] + stderr[-2000:]
    ran = re.findall(r"^## (\S+) \[untraced\]", stdout, re.M)
    assert ran == [w["name"] for w in CONTRACT["workloads"]]
    with open(os.path.join(out_dir, "report.json")) as handle:
        report = json.load(handle)
    wanted = [m["name"] for m in CONTRACT["end_to_end"]]
    for run in report["runs"]:
        assert run["correct"] and run["failed"] == 0, run["first_failures"]
        assert list(run["e2e"]) and sorted(run["e2e"]) == sorted(wanted)
        assert run["named"]["failed_share"] == 0
        for name in wanted:  # printed by name, with its unit
            assert re.search(rf"^{re.escape(name)}\s+\S+ \S+$", stdout, re.M), name
    last = json.loads(stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert list(last["metrics"]) == wanted
    by_name = {run["workload"]: run for run in report["runs"]}
    assert by_name["serve_write"]["named"]["recover_s"] > 0
    assert os.path.exists(os.path.join(out_dir, "summary.md"))


def test_traced_run_reports_every_layer_metric(runs):
    out_dir, code, stdout, stderr = runs["traced"]
    assert code == 0, stdout[-2000:] + stderr[-2000:]
    last = json.loads(stdout.strip().splitlines()[-1])
    assert list(last["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    units = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert all(v["unit"] == units[k] for k, v in last["metrics"].items())
    with open(os.path.join(out_dir, "spans-serve_write.jsonl")) as handle:
        spans = [json.loads(line) for line in handle]
    assert spans and set(spans[0]) == {
        "id", "op_id", "layer", "name", "start", "end", "parent"}
    ids = {span["id"] for span in spans}
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)


@pytest.mark.parametrize("which", ["bad_engine", "bad_serving"])
def test_corrupted_expectation_fails_the_command(runs, which):
    _, code, stdout, _ = runs[which]
    assert code != 0
    last = json.loads(stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_nothing_leaks(runs):
    for name, (out_dir, _, _, _) in runs.items():
        assert _leftovers(out_dir) == [], name
        assert _servers_of(out_dir) == [], name

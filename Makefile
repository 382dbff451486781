# Convenience entry points.  PYTHONPATH is set per-target so every rule
# works from a clean checkout with no install step.

PY := python
SRC := src
export PYTHONPATH := $(SRC)

.PHONY: test lint census check-ops ledger-smoke query-smoke recover-smoke view-smoke trace-smoke chaos-smoke http-smoke

test:
	$(PY) -m pytest -x -q

# Static analysis: the eight `repro lint` checkers plus the mypy strict
# ratchet (mypy.ini).  mypy is not baked into the container image, so
# it runs only where installed (CI pins and installs it); the
# strict-annotations lint rule is the always-on local mirror.
lint:
	$(PY) -m repro lint
	@if $(PY) -c "import mypy" 2>/dev/null; then \
	  $(PY) -m mypy --config-file mypy.ini; \
	else \
	  echo "mypy not installed; skipped (CI runs it — see mypy.ini)"; \
	fi

# Line census: code lines of src/repro (no blanks, comments or
# docstrings), per package and total — the figure simplicity PRs quote
# before/after in CHANGES.md.
census:
	$(PY) benchmarks/census.py

# Query-serving smoke: parse -> plan -> execute over the committed demo
# script, plus a one-shot `repro query` (CI runs this next to check-ops).
# The demo ends with a write followed by EXPLAIN of an already-planned
# query: the plan must have survived the write, and the comparison
# board must be scored on demand.
query-smoke:
	$(PY) -m repro.cli serve --script examples/serving_demo.script \
	  > /tmp/repro-query-smoke.out
	cat /tmp/repro-query-smoke.out
	grep -q '^plan origin      : cached$$' /tmp/repro-query-smoke.out
	grep -q 'for comparison, scored on demand' /tmp/repro-query-smoke.out
	grep -q '^planned at       : generation 3 (now 4)$$' \
	  /tmp/repro-query-smoke.out
	printf '1,2\n2,3\n3,1\n' > /tmp/repro-query-smoke.csv
	$(PY) -m repro.cli query \
	  --relation R=A,B:/tmp/repro-query-smoke.csv \
	  --explain "Q(x, y, z) :- R(x, y), R(y, z), R(x, z)"
	$(PY) -m repro.cli query \
	  --relation R=A,B:/tmp/repro-query-smoke.csv \
	  "Q(COUNT) :- R(x, y), R(y, z), R(x, z)"

# Durability smoke: crash the serving demo at a registered crashpoint
# (the CLI exits 3 on an injected crash — asserted, not ignored), then
# recover the directory into a fresh snapshot and verify every Merkle
# root offline; a mistyped directory must fail verification and stay
# uncreated.  CI runs this next to query-smoke.
recover-smoke:
	rm -rf /tmp/repro-recover-smoke /tmp/repro-recover-smoke-missing
	REPRO_CRASH_POINT=catalog.apply.mutate $(PY) -m repro.cli serve \
	  --script examples/serving_demo.script \
	  --data-dir /tmp/repro-recover-smoke; test $$? -eq 3
	$(PY) -m repro.cli recover --data-dir /tmp/repro-recover-smoke --snapshot
	$(PY) -m repro.cli verify-state --data-dir /tmp/repro-recover-smoke
	! $(PY) -m repro.cli verify-state \
	  --data-dir /tmp/repro-recover-smoke-missing
	test ! -e /tmp/repro-recover-smoke-missing

# Live-view smoke: replay the committed triangle update log through
# `repro stream`, which recomputes the view after every batch (exit 1
# on any mismatch).  The registration line must show each atom's
# insert term under a GAO its delta leads (ΔS: B,C,A; ΔT: A,C,B) and
# the three view-owned secondary orders; every view line must say how
# its delta terms were answered, and the log's delete-only batch
# (batch 2) must have run no engine evaluation and no probe: deletes
# are read from the view's projection index.  CI runs this next to
# recover-smoke.
view-smoke:
	$(PY) -m repro.cli stream \
	  --relation R=A,B:examples/triangle_view/R.csv \
	  --relation S=B,C:examples/triangle_view/S.csv \
	  --relation T=A,C:examples/triangle_view/T.csv \
	  --view tri=R,S,T --log examples/triangle_view/updates.log \
	  > /tmp/repro-view-smoke.out
	cat /tmp/repro-view-smoke.out
	! grep -q MISMATCH /tmp/repro-view-smoke.out
	grep -qx 'view tri: term GAOs R=A,B,C S=B,C,A T=A,C,B; secondary orders R(B,A) T(C,A) S(C,B)' \
	  /tmp/repro-view-smoke.out
	! grep '^  tri: ' /tmp/repro-view-smoke.out | grep -qv ' engine_runs='
	grep -A1 '^batch 2: ' /tmp/repro-view-smoke.out \
	  | grep -q 'inc findgap=0 probes=0 engine_runs=0 indexed_deletes=2 '

# Observability smoke: replay the serving demo traced + durable, dump
# the metrics artifacts, then schema-check them — span JSONL must
# round-trip with full lifecycle coverage (query/plan/execute/
# apply_batch/wal.append/recover) and the Prometheus exposition must be
# well-formed.  A one-shot traced query exercises the --trace render
# path too.  CI runs this next to query-smoke / recover-smoke.
trace-smoke:
	rm -rf /tmp/repro-trace-smoke
	$(PY) -m repro.cli serve --script examples/serving_demo.script \
	  --trace --data-dir /tmp/repro-trace-smoke/data \
	  --metrics-dir /tmp/repro-trace-smoke/metrics --slow-query-ms 0
	$(PY) benchmarks/check_obs.py /tmp/repro-trace-smoke/metrics \
	  --require query --require plan --require execute \
	  --require apply_batch --require wal.append --require recover
	printf '1,2\n2,3\n3,1\n' > /tmp/repro-trace-smoke.csv
	$(PY) -m repro.cli query --trace \
	  --relation R=A,B:/tmp/repro-trace-smoke.csv \
	  "Q(COUNT) :- R(x, y), R(y, z), R(x, z)"

# Chaos smoke: arm a worker-targeted crash fault in the environment
# (the supervisor retries the killed attempt) and require the pooled
# sharded join's stdout to be byte-identical to the fault-free
# in-process (workers=0) run; then arm a hang and require the
# --deadline-ms admission deadline to surface as a typed QueryTimeout
# (CLI exit 4) instead of a stuck pool.  CI runs this next to
# recover-smoke / trace-smoke.
chaos-smoke:
	printf '1,2\n2,1\n2,3\n3,2\n3,1\n1,3\n1,4\n4,1\n2,4\n4,2\n3,4\n4,3\n' \
	  > /tmp/repro-chaos-smoke.csv
	$(PY) -m repro.cli join \
	  --relation R=A,B:/tmp/repro-chaos-smoke.csv \
	  --relation S=B,C:/tmp/repro-chaos-smoke.csv \
	  --relation T=A,C:/tmp/repro-chaos-smoke.csv \
	  --workers 0 > /tmp/repro-chaos-smoke.expected
	REPRO_WORKER_FAULT=crash REPRO_WORKER_FAULT_TIMES=1 \
	  $(PY) -m repro.cli join \
	  --relation R=A,B:/tmp/repro-chaos-smoke.csv \
	  --relation S=B,C:/tmp/repro-chaos-smoke.csv \
	  --relation T=A,C:/tmp/repro-chaos-smoke.csv \
	  --workers 2 --shards 2 > /tmp/repro-chaos-smoke.got
	diff /tmp/repro-chaos-smoke.expected /tmp/repro-chaos-smoke.got
	REPRO_WORKER_FAULT=hang REPRO_WORKER_FAULT_TIMES=99 \
	  REPRO_WORKER_FAULT_SECONDS=30 \
	  $(PY) -m repro.cli join \
	  --relation R=A,B:/tmp/repro-chaos-smoke.csv \
	  --relation S=B,C:/tmp/repro-chaos-smoke.csv \
	  --relation T=A,C:/tmp/repro-chaos-smoke.csv \
	  --workers 2 --shards 2 --deadline-ms 500; test $$? -eq 4

# Serving smoke: the demo driver launches `repro serve --http` with
# two durable tenants on an ephemeral port, loads per-tenant data over
# HTTP, asserts concurrent responses byte-identical to sequential
# references, drains an async ingest batch, provokes a typed HTTP 429
# (BudgetExceeded), scrapes /metrics, and shuts down cleanly; then the
# scraped exposition is schema-checked, the clean-shutdown snapshots
# verified offline, and the op-count baseline asserted untouched.
http-smoke:
	rm -rf /tmp/repro-http-smoke
	$(PY) examples/http_demo.py --data-dir /tmp/repro-http-smoke \
	  --out-prom /tmp/repro-http-smoke/metrics.prom
	$(PY) benchmarks/check_obs.py --prom /tmp/repro-http-smoke/metrics.prom
	$(PY) -m repro.cli verify-state --data-dir /tmp/repro-http-smoke/alpha
	$(PY) -m repro.cli verify-state --data-dir /tmp/repro-http-smoke/beta
	git diff --exit-code -- benchmarks/baselines/smoke_ops.json

# Op-count drift gate: every smoke workload's tallies must match
# benchmarks/baselines/smoke_ops.json, each cds/* shape must tally
# identically under both CDS backends (refresh intentionally with
# --update), and the paper experiments' tables must equal
# benchmarks/baselines/experiments.md byte for byte (refresh with
# `python -m repro experiments > benchmarks/baselines/experiments.md`).
check-ops:
	$(PY) benchmarks/check_smoke_ops.py
	$(PY) -m repro experiments | diff benchmarks/baselines/experiments.md -

# The layered perf ledger (BENCHMARK.json's command) on tiny instances:
# all five workloads, every answer checked, artifacts under
# benchmarks/results/ledger/<run-id>/.  See benchmarks/ledger/README.md.
ledger-smoke:
	python3 benchmarks/ledger/run.py --smoke

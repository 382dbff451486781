"""Sharded parallel execution of Minesweeper joins.

Minesweeper's gap/probe dialogue is embarrassingly parallel along the
first GAO attribute: probe points whose leading coordinates fall in
disjoint ranges never share discovered gaps *about that range*, so
splitting the leading attribute's domain into contiguous shards
preserves both the output (the concatenation of the shards' GAO-ordered
outputs *is* the global GAO order) and the per-shard certificate
accounting (each shard's :class:`~repro.util.counters.OpCounters` is an
honest Section-5.2 tally for its sub-instance; the merged tally is the
plan's total).

Layers:

* :mod:`repro.parallel.planner` — split the leading attribute's domain
  into ``k`` contiguous ranges, balanced by stored tuple counts, and
  slice the prepared relations per range;
* :mod:`repro.parallel.executor` — build one payload per shard and
  merge the shards' rows + counters; each shard is one Minesweeper run,
  in worker processes (``workers >= 1``) or in-process (``workers=0``,
  the deterministic sequential mode tests and op-count parity checks
  rely on);
* :mod:`repro.parallel.supervisor` — the one place worker processes
  are started: one supervised process per shard attempt with death
  detection, per-shard timeouts, bounded retries with backoff, and a
  deterministic in-process fallback (see :mod:`repro.core.resilience`
  for the policy vocabulary);
* :mod:`repro.parallel.certify` — the Proposition-2.5 certificate
  recorder/checker run per shard, over the executor's payloads and
  under the same supervisor.

Entry points: the ``shards`` / ``workers`` fields of
:class:`repro.core.engine.ExecSpec` — ``join(..., workers=, shards=)``,
``LiveJoin(..., ExecSpec(workers=, shards=))``, and the
``--workers/--shards`` CLI flags on ``join`` / ``certificate`` /
``stream``.
"""

from repro.parallel.executor import ShardedRun, run_sharded
from repro.parallel.planner import Shard, plan_shards
from repro.parallel.supervisor import ShardSupervisor

__all__ = [
    "Shard",
    "ShardSupervisor",
    "ShardedRun",
    "plan_shards",
    "run_sharded",
]

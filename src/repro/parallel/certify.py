"""Sharded certificate recording/checking (Proposition 2.5, fanned out).

A shard's gap/probe dialogue concerns only its own sliced sub-instance,
so the comparisons the recorder extracts from it certify that
sub-instance, and the union over a disjoint covering plan certifies the
whole query: any instance agreeing with every shard's comparisons
produces every shard's output, and the shards' outputs partition the
full output along the leading attribute.  Each shard's argument is
checked by the randomized Definition-2.3 refuter independently — the
natural fan-out for the ``repro certificate --shards/--workers`` CLI.

The shards run under the same :class:`ShardSupervisor` as a sharded
join — same plan, same payloads, same death detection, retries and
in-process fallback — with :func:`_certify_shard` as the per-shard
runner.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import List, Tuple

from repro.certificates.recorder import record_certificate
from repro.certificates.verifier import check_certificate
from repro.core.engine import ExecSpec
from repro.core.query import PreparedQuery
from repro.parallel.executor import plan_payloads
from repro.parallel.supervisor import Row, ShardPayload, ShardSupervisor
from repro.util.counters import OpCounters


@dataclass
class ShardCertificate:
    """One shard's recorded-and-checked certificate summary."""

    lo: int
    hi: int
    rows: int
    comparisons: int
    findgap: int
    passed: bool


def _certify_shard(
    payload: ShardPayload, samples: int
) -> Tuple[List[Row], ShardCertificate]:
    """Record and check one shard's certificate; the rows go back too,
    so the supervisor validates them like a join shard's."""
    counters = OpCounters()
    for r in payload.relations:
        r.rebind_counters(counters)
    prepared = PreparedQuery(payload.relations, payload.spec.gao, counters)
    rows, argument = record_certificate(prepared)
    counterexample = check_certificate(prepared, argument, samples=samples)
    return rows, ShardCertificate(
        lo=payload.lo,
        hi=payload.hi,
        rows=len(rows),
        comparisons=len(argument),
        findgap=counters.findgap,
        passed=counterexample is None,
    )


def certify_sharded(
    prepared: PreparedQuery, spec: ExecSpec, samples: int = 20
) -> List[ShardCertificate]:
    """Record and check one certificate per shard of the plan.

    Of ``spec`` only ``shards`` / ``workers`` apply
    (the GAO is ``prepared``'s): ``workers=0`` runs the shards
    sequentially in-process; ``>= 1`` runs them in supervised worker
    processes.  Results arrive in plan (range) order either way.
    """
    # Checked here: in a worker the error would be retried as a fault.
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    spec = replace(spec, gao=prepared.gao).resolve()
    plan, payloads = plan_payloads(prepared.relations, spec, count=True)
    supervisor = ShardSupervisor(
        functools.partial(_certify_shard, samples=samples),
        payloads,
        plan,
        spec.workers or 0,
    )
    try:
        return [certificate for _, certificate in supervisor.results()]
    finally:
        supervisor.shutdown()

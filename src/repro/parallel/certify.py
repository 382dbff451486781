"""Sharded certificate recording/checking (Proposition 2.5, fanned out).

A shard's gap/probe dialogue concerns only its own sliced sub-instance,
so the comparisons the recorder extracts from it certify that
sub-instance, and the union over a disjoint covering plan certifies the
whole query: any instance agreeing with every shard's comparisons
produces every shard's output, and the shards' outputs partition the
full output along the leading attribute.  Each shard's argument is
checked by the randomized Definition-2.3 refuter independently — the
natural fan-out for the ``repro certificate --shards/--workers`` CLI.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.certificates.recorder import record_certificate
from repro.certificates.verifier import check_certificate
from repro.core.engine import ExecSpec
from repro.core.query import PreparedQuery
from repro.parallel.planner import plan_and_slice
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

#: (relations, gao, lo, hi, samples, cds_backend) shipped to a worker.
CertifyPayload = Tuple[
    List[Relation], List[str], int, int, int, Optional[str]
]


@dataclass
class ShardCertificate:
    """One shard's recorded-and-checked certificate summary."""

    lo: int
    hi: int
    rows: int
    comparisons: int
    findgap: int
    passed: bool


def _certify_shard(payload: CertifyPayload) -> ShardCertificate:
    relations, gao, lo, hi, samples, cds_backend = payload
    counters = OpCounters()
    for r in relations:
        r.rebind_counters(counters)
    prepared = PreparedQuery(list(relations), gao, counters)
    rows, argument = record_certificate(prepared, cds_backend=cds_backend)
    counterexample = check_certificate(prepared, argument, samples=samples)
    return ShardCertificate(
        lo=lo,
        hi=hi,
        rows=len(rows),
        comparisons=len(argument),
        findgap=counters.findgap,
        passed=counterexample is None,
    )


def certify_sharded(
    prepared: PreparedQuery, spec: ExecSpec, samples: int = 20
) -> List[ShardCertificate]:
    """Record and check one certificate per shard of the plan.

    Of ``spec`` only ``shards`` / ``workers`` / ``cds_backend`` apply
    (the GAO is ``prepared``'s): ``workers=0`` runs the shards
    sequentially in-process; ``>= 1`` uses a ``multiprocessing`` pool.
    Results arrive in plan (range) order either way.
    """
    # Resolved on the driver so pool workers agree with in-process runs.
    spec = spec.resolve()
    workers, cds_backend = spec.workers, spec.cds_backend
    plan, slices = plan_and_slice(
        prepared.relations, prepared.gao[0], spec.shards or 1
    )
    payloads = [
        (
            shard_rels,
            list(prepared.gao),
            shard.lo,
            shard.hi,
            samples,
            cds_backend,
        )
        for shard, shard_rels in zip(plan, slices)
    ]
    if workers and payloads:
        with multiprocessing.get_context().Pool(
            min(workers, len(payloads))
        ) as pool:
            return pool.map(_certify_shard, payloads, chunksize=1)
    return [_certify_shard(payload) for payload in payloads]

"""Shard planning: split the leading GAO attribute's domain by weight.

A *shard* is a contiguous, inclusive value range ``[lo, hi]`` of the
first GAO attribute.  Because every relation containing that attribute
stores it as its leading column (that is what GAO-consistent indexing
means), restricting a relation to a shard is a contiguous slice of its
sorted tuple list — no re-partitioning, no hashing, no tuple moves.
Relations not containing the leading attribute are passed through whole.

Disjoint ranges that cover the whole observed domain partition the
output exactly: an output tuple's leading value appears in every
relation containing the attribute, so it lands in exactly one shard,
and concatenating the shards' GAO-ordered outputs in range order yields
the global GAO order.

Ranges are balanced by *stored tuple counts* (summed over the relations
that lead with the attribute), the best static proxy for per-shard work
available without running the query.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.storage.relation import BACKENDS, DEFAULT_BACKEND, Relation


@dataclass(frozen=True)
class Shard:
    """One contiguous range of the leading attribute (inclusive bounds)."""

    lo: int
    hi: int
    #: Stored tuples whose leading value falls in the range (the
    #: balancing weight, not an output-size estimate).
    weight: int

    def __contains__(self, value: int) -> bool:
        return self.lo <= value <= self.hi


def leading_relations(
    relations: Sequence[Relation], attribute: str
) -> List[Relation]:
    """The relations whose leading (first-indexed) column is ``attribute``.

    In a GAO-prepared query these are exactly the relations *containing*
    the first GAO attribute; a relation holding it in a non-leading
    column would violate GAO consistency and is rejected loudly.
    """
    leading: List[Relation] = []
    for r in relations:
        if r.attributes[0] == attribute:
            leading.append(r)
        elif attribute in r.attributes:
            raise ValueError(
                f"relation {r.name} holds {attribute!r} in a non-leading "
                "column; shard planning needs GAO-prepared relations"
            )
    return leading


def plan_shards(
    relations: Sequence[Relation],
    attribute: str,
    shards: int,
    leading_rows: Optional[Dict[str, List[Tuple[int, ...]]]] = None,
) -> List[Shard]:
    """Split ``attribute``'s observed domain into ``<= shards`` ranges.

    The domain is the union of leading values over the relations that
    lead with ``attribute``; each range's weight (stored tuples) is
    balanced greedily against the remaining average.  Returns fewer
    ranges when the domain has fewer distinct values, and ``[]`` when
    it is empty (the join output is empty too: an output value must
    occur in every relation containing the attribute).

    ``leading_rows`` (name -> materialized tuple list) lets a caller
    that also slices share one materialization — see
    :func:`plan_and_slice`.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    weight_by_value: Dict[int, int] = {}
    for r in leading_relations(relations, attribute):
        rows = (
            leading_rows[r.name] if leading_rows is not None else r.tuples()
        )
        for row in rows:
            v = row[0]
            weight_by_value[v] = weight_by_value.get(v, 0) + 1
    values = sorted(weight_by_value)
    if not values:
        return []
    k = min(shards, len(values))
    remaining = sum(weight_by_value.values())
    plan: List[Shard] = []
    idx = 0
    for shards_left in range(k, 0, -1):
        target = remaining / shards_left
        start = idx
        acc = 0
        # Leave at least one value for each shard still to be cut.
        while idx < len(values) - (shards_left - 1) and (
            acc < target or acc == 0
        ):
            acc += weight_by_value[values[idx]]
            idx += 1
        plan.append(Shard(values[start], values[idx - 1], acc))
        remaining -= acc
    return plan


def _buildable(backend: str) -> str:
    """A backend name ``Relation()`` can construct a slice with.

    Live-index labels (e.g. ``"delta"``) are not buildable; the slice —
    a static snapshot of a contiguous range — uses the default backend,
    mirroring ``Query.with_gao``'s re-index rule.
    """
    return backend if backend in BACKENDS else DEFAULT_BACKEND


def slice_plan(
    relations: Sequence[Relation],
    attribute: str,
    plan: Sequence[Shard],
    leading_rows: Dict[str, List[Tuple[int, ...]]],
) -> List[List[Relation]]:
    """Per-shard relation lists for a whole plan.

    Relations leading with ``attribute`` are sliced to each shard's
    value range — a contiguous slice of their materialized tuple list
    (``leading_rows``), found by bisection; all others are passed
    through unchanged.
    """
    out: List[List[Relation]] = [[] for _ in plan]
    for r in relations:
        if r.attributes[0] != attribute:
            for per_shard in out:
                per_shard.append(r)
            continue
        rows = leading_rows[r.name]
        backend = _buildable(r.backend)
        for per_shard, shard in zip(out, plan):
            lo_i = bisect_left(rows, (shard.lo,))
            hi_i = bisect_left(rows, (shard.hi + 1,))
            per_shard.append(
                Relation(
                    r.name,
                    r.attributes,
                    rows[lo_i:hi_i],
                    backend=backend,
                )
            )
    return out


def plan_and_slice(
    relations: Sequence[Relation], attribute: str, shards: int
) -> Tuple[List[Shard], List[List[Relation]]]:
    """:func:`plan_shards` + :func:`slice_plan` sharing one tuple scan.

    Each leading relation's tuple list is materialized exactly once —
    for delta-backed live relations that list is a copy of the
    relation's view, so halving the scans matters for sharded ``LiveJoin``
    maintenance, whose per-term slicing cost is the knob's overhead.
    """
    leading_rows = {
        r.name: r.tuples()
        for r in leading_relations(relations, attribute)
    }
    plan = plan_shards(
        relations, attribute, shards, leading_rows=leading_rows
    )
    return plan, slice_plan(
        relations, attribute, plan, leading_rows=leading_rows
    )

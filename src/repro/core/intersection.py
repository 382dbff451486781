"""Set intersection — Minesweeper end-to-end (paper Appendix H, Algorithm 8).

Q∩ = S1(A) ⋈ ... ⋈ Sm(A): intersect m sorted sets.  The CDS degenerates to
a single :class:`IntervalList` over A.  Each iteration probes every set
around the active value t with one binary search (a ``FindGap``); either t
is in every set (output it, rule out exactly t) or some set contributes a
gap (S_i[x_l], S_i[x_h]) ∋ t.

The number of iterations is O(|C| + Z) (Theorem H.4): Minesweeper's work
tracks how *interleaved* the sets are, not how large they are — the
adaptive behaviour of Demaine–López-Ortiz–Munro / Barbay–Kenyon that the
paper generalizes.

``merge_intersection`` is the classic m-way merge baseline: linear in the
total input size regardless of the certificate.
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.storage.interval_list import IntervalList
from repro.util.counters import OpCounters
from repro.util.search import gallop_left
from repro.util.sentinels import NEG_INF, POS_INF, ExtendedValue


def _strictly_increasing(data: Sequence[int]) -> bool:
    """True iff ``data`` is strictly increasing."""
    if len(data) < 2:
        return True
    prev = data[0]
    for v in data[1:]:
        if v <= prev:
            return False
        prev = v
    return True


def _check_sorted_sets(
    sets: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], Optional[int]]:
    """Validate the input sets (lists pass through, others are copied).

    Returns ``(cleaned, first_empty)``.  An empty input set makes the
    intersection trivially empty, so it is handled *here*, explicitly:
    validation short-circuits at the first empty set and returns its
    index (``cleaned`` then holds only the sets before it; sets *after*
    the empty one are deliberately not validated — the answer no longer
    depends on them).  Callers branch on ``first_empty`` instead of
    relying on downstream loop behaviour.  Unsorted input at or before
    the first empty set raises ``ValueError``.
    """
    if not sets:
        raise ValueError("need at least one set")
    cleaned: List[List[int]] = []
    for i, s in enumerate(sets):
        data = s if type(s) is list else list(s)
        if not data:
            return cleaned, i  # short-circuit: the intersection is empty
        if not _strictly_increasing(data):
            raise ValueError(f"set {i} must be strictly increasing")
        cleaned.append(data)
    return cleaned, None


def _intersect_fast(data: List[List[int]]) -> List[int]:
    """The counting-free Minesweeper intersection loop.

    Because every inserted gap contains the active value t, the CDS of
    Algorithm 8 is always a single leading interval; its Next is simply
    the maximum discovered gap endpoint (or t+1 after an output).  That
    lets the whole loop run on per-set galloping cursors with no
    IntervalList and no per-operation counting — the Barbay–Kenyon
    adaptive intersection, byte for byte the same output as the
    instrumented loop.
    """
    lengths = [len(s) for s in data]
    cursors = [0] * len(data)
    enum_data = list(enumerate(data))
    output: List[int] = []
    t = min(s[0] for s in data)
    while True:
        nxt = t + 1
        member = True
        for si, s in enum_data:
            i = gallop_left(s, t, cursors[si])
            cursors[si] = i
            if i >= lengths[si]:
                return output  # a set is exhausted: gap reaches +inf
            v = s[i]
            if v == t:
                continue
            member = False
            if v > nxt:
                nxt = v  # the gap (s[i-1], s[i]) rules out t..s[i]-1
        if member:
            output.append(t)
        t = nxt


def intersect_sorted(
    sets: Sequence[Sequence[int]],
    counters: Optional[OpCounters] = None,
) -> List[int]:
    """Intersect sorted integer sets with Minesweeper (Algorithm 8).

    Pass an enabled :class:`OpCounters` to get the Section-5.2 operation
    tallies; with no counters (or :class:`repro.util.counters.NullCounters`)
    the counting-free fast path runs instead.
    """
    data, first_empty = _check_sorted_sets(sets)
    if first_empty is not None:
        return []
    if counters is None or not counters.enabled:
        return _intersect_fast(data)
    cds = IntervalList()
    cds_next = cds.next
    cds_insert = cds.insert
    lengths = [len(s) for s in data]
    cursors = [0] * len(data)
    enum_data = list(enumerate(data))
    output: List[int] = []
    start = min(s[0] for s in data)  # every value below start is inactive
    cds_insert(NEG_INF, start)
    while True:
        counters.interval_ops += 1
        t = cds_next(start)
        if t is POS_INF:
            break
        counters.probes += 1
        is_member = True
        for si, s in enum_data:
            counters.findgap += 1
            # Probes are monotone, so gallop from the previous cursor:
            # the paper counts this as one FindGap either way.
            i = gallop_left(s, t, cursors[si])
            cursors[si] = i
            present = i < lengths[si] and s[i] == t
            if present:
                continue
            is_member = False
            low: ExtendedValue = s[i - 1] if i > 0 else NEG_INF
            high: ExtendedValue = s[i] if i < lengths[si] else POS_INF
            counters.constraints += 1
            cds_insert(low, high)
        if is_member:
            output.append(t)  # type: ignore[arg-type]
            counters.output_tuples += 1
            counters.constraints += 1
            cds_insert(t - 1, t + 1)  # type: ignore[operator]
    return output


def merge_intersection(
    sets: Sequence[Sequence[int]],
    counters: Optional[OpCounters] = None,
) -> List[int]:
    """Baseline m-way merge intersection: Θ(N) comparisons always."""
    counters = counters if counters is not None else OpCounters()
    data, first_empty = _check_sorted_sets(sets)
    if first_empty is not None:
        return []
    positions = [0] * len(data)
    output: List[int] = []
    while all(positions[i] < len(data[i]) for i in range(len(data))):
        heads = [data[i][positions[i]] for i in range(len(data))]
        counters.comparisons += len(heads)
        top = max(heads)
        if all(h == top for h in heads):
            output.append(top)
            counters.output_tuples += 1
            for i in range(len(data)):
                positions[i] += 1
            continue
        for i in range(len(data)):
            while positions[i] < len(data[i]) and data[i][positions[i]] < top:
                positions[i] += 1
                counters.comparisons += 1
    return output


def partition_certificate(
    sets: Sequence[Sequence[int]],
) -> List[Tuple[str, object]]:
    """The Barbay–Kenyon *partition certificate* of the instance (§6.2).

    A partition certificate is a sequence of items covering the value
    line, each either

    * ``("gap", (low, high, witness))`` — an open interval containing no
      output, eliminated because set ``witness`` has no element in it, or
    * ``("output", v)`` — a value present in every set.

    Verified by tests to (a) tile the whole line and (b) be sound.  The
    paper observes these partitions correspond to the gap sets
    Minesweeper discovers — and indeed this function is the Minesweeper
    loop with the CDS's stored intervals read back out.
    """
    data, first_empty = _check_sorted_sets(sets)
    items: List[Tuple[str, object]] = []
    if first_empty is not None:
        items.append(("gap", (NEG_INF, POS_INF, first_empty)))
        return items
    # Run the Minesweeper loop, remembering every witness gap discovered.
    cds = IntervalList()
    outputs: List[int] = []
    witness_gaps: List[Tuple[ExtendedValue, ExtendedValue, int]] = []
    latest_start = max(range(len(data)), key=lambda i: data[i][0])
    witness_gaps.append((NEG_INF, data[latest_start][0], latest_start))
    start = min(s[0] for s in data)
    cds.insert(NEG_INF, start)
    while True:
        t = cds.next(start)
        if t is POS_INF:
            break
        member = True
        for i, s in enumerate(data):
            j = bisect.bisect_left(s, t)
            if j < len(s) and s[j] == t:
                continue
            member = False
            low: ExtendedValue = s[j - 1] if j > 0 else NEG_INF
            high: ExtendedValue = s[j] if j < len(s) else POS_INF
            witness_gaps.append((low, high, i))
            cds.insert(low, high)
        if member:
            outputs.append(t)  # type: ignore[arg-type]
            cds.insert(t - 1, t + 1)  # type: ignore[operator]
    # Greedy tiling: from the frontier (all integers <= frontier are
    # certified), either the next integer is an output, or some recorded
    # gap covers it — take the one reaching furthest right.
    output_set = set(outputs)
    frontier: ExtendedValue = NEG_INF
    guard = 0
    while guard <= 4 * len(witness_gaps) + len(outputs) + 4:
        guard += 1
        if frontier is not POS_INF and frontier is not NEG_INF:
            nxt = frontier + 1  # type: ignore[operator]
            if nxt in output_set:
                items.append(("output", nxt))
                frontier = nxt
                continue
        candidates = [
            (low, high, who)
            for low, high, who in witness_gaps
            if low is NEG_INF
            or (frontier is not NEG_INF and low <= frontier)
        ]
        if not candidates:
            raise AssertionError("partition tiling stalled; recorder bug")
        low, high, who = max(
            candidates,
            key=lambda g: (
                g[1] is POS_INF,
                g[1] if g[1] is not POS_INF else 0,
            ),
        )
        items.append(("gap", (low, high, who)))
        if high is POS_INF:
            return items
        assert isinstance(high, int)
        new_frontier = high if high in output_set else high - 1
        if high in output_set:
            items.append(("output", high))
        if frontier is not NEG_INF and new_frontier <= frontier:
            raise AssertionError("partition tiling made no progress")
        frontier = new_frontier
    raise AssertionError("partition tiling did not terminate")


def intersection_certificate_size(sets: Sequence[Sequence[int]]) -> int:
    """Size of the natural gap certificate for the intersection instance.

    Counts one comparison per maximal 'eliminating' gap plus a spanning set
    of equalities per output value — the Barbay–Kenyon partition-certificate
    view that Appendix H shows Minesweeper matches up to constants.
    """
    data, first_empty = _check_sorted_sets(sets)
    if first_empty is not None:
        return 1
    cds = IntervalList()
    output_equalities = 0
    start = min(s[0] for s in data)
    cds.insert(NEG_INF, start)
    comparisons = 0
    while True:
        t = cds.next(start)
        if t is POS_INF:
            break
        member = True
        for s in data:
            i = bisect.bisect_left(s, t)
            if i < len(s) and s[i] == t:
                continue
            member = False
            comparisons += 2 if 0 < i < len(s) else 1
            low: ExtendedValue = s[i - 1] if i > 0 else NEG_INF
            high: ExtendedValue = s[i] if i < len(s) else POS_INF
            cds.insert(low, high)
        if member:
            output_equalities += len(data) - 1
            cds.insert(t - 1, t + 1)  # type: ignore[operator]
    return comparisons + output_equalities

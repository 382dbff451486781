"""Pooled interval lists: many :class:`IntervalList`-equivalent stores
in two shared endpoint buffers.

The arena CDS backend (:mod:`repro.core.cds_arena`) and the arena
triangle engine keep one interval list per tree node.  Allocating a
Python object + two list objects per node is exactly the GC churn the
arena exists to avoid, so this pool stores *every* list as a slice of
two flat, int-only buffers:

* ``lows`` / ``highs`` — encoded endpoints (the :mod:`interval_list`
  ±inf-as-huge-int encoding), shared by all handles;
* per-handle ``start`` / ``length`` / ``cap`` — the slice;
* per-handle ``epoch`` — bumped on every mutation, so resumable probe
  cursors can detect that their saved position went stale.

Slices grow by power-of-two relocation; outgrown slabs and freed
handles go to size-classed free lists and are recycled (subtrees
subsumed on CDS insert return their storage instead of churning the
allocator).  Semantics of ``insert`` / ``next`` / ``covers`` /
``covered_runs`` / ``uncovered_runs`` mirror :class:`IntervalList`
operation-for-operation — the property suite checks them against each
other — but endpoints stay *encoded* end to end, which also removes
the decode/re-encode round trip the pointer dyadic tree pays when it
floats inserted parts upward.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Tuple

from repro.storage.interval_list import (
    ENC_NEG,
    ENC_POS,
    INSERT_DISJOINT,
    INSERT_MERGED,
    INSERT_NOCHANGE,
    Interval,
    _decode,
    _encode,
)
from repro.util.sentinels import ExtendedValue

_MIN_CAP = 4


class IntervalPool:
    """A slab allocator of disjoint-merged open integer interval lists."""

    __slots__ = (
        "lows",
        "highs",
        "start",
        "length",
        "cap",
        "epoch",
        "_free_slabs",
        "_free_handles",
    )

    def __init__(self) -> None:
        self.lows: List[int] = []
        self.highs: List[int] = []
        self.start: List[int] = []
        self.length: List[int] = []
        self.cap: List[int] = []
        self.epoch: List[int] = []
        #: cap -> starts of reusable slabs of exactly that capacity.
        self._free_slabs: Dict[int, List[int]] = {}
        self._free_handles: List[int] = []

    # ------------------------------------------------------------------
    # Handle and slab management
    # ------------------------------------------------------------------

    def new(self) -> int:
        """Allocate an empty list; storage is deferred to the first insert."""
        free = self._free_handles
        if free:
            h = free.pop()
            self.epoch[h] += 1
            return h
        h = len(self.start)
        self.start.append(0)
        self.length.append(0)
        self.cap.append(0)
        self.epoch.append(0)
        return h

    def free(self, h: int) -> None:
        """Release a handle; its slab and slot become reusable."""
        cap = self.cap[h]
        if cap:
            self._free_slabs.setdefault(cap, []).append(self.start[h])
        self.start[h] = 0
        self.length[h] = 0
        self.cap[h] = 0
        self.epoch[h] += 1
        self._free_handles.append(h)

    def _alloc_slab(self, cap: int) -> int:
        free = self._free_slabs.get(cap)
        if free:
            return free.pop()
        s = len(self.lows)
        self.lows.extend([0] * cap)
        self.highs.extend([0] * cap)
        return s

    def _grow(self, h: int, need: int) -> None:
        """Relocate handle ``h`` to a slab holding at least ``need`` slots."""
        cap = _MIN_CAP
        while cap < need:
            cap <<= 1
        new_start = self._alloc_slab(cap)
        old_start = self.start[h]
        old_cap = self.cap[h]
        m = self.length[h]
        if m:
            self.lows[new_start : new_start + m] = self.lows[
                old_start : old_start + m
            ]
            self.highs[new_start : new_start + m] = self.highs[
                old_start : old_start + m
            ]
        if old_cap:
            self._free_slabs.setdefault(old_cap, []).append(old_start)
        self.start[h] = new_start
        self.cap[h] = cap

    # ------------------------------------------------------------------
    # IntervalList-equivalent operations (encoded endpoints)
    # ------------------------------------------------------------------

    def insert_encoded(self, h: int, lo: int, hi: int) -> int:
        """:meth:`IntervalList.insert` on handle ``h``; encoded endpoints.

        Returns the same INSERT_* code, with identical merge semantics:
        the incoming interval absorbs every stored (l, r) with l < hi
        and lo < r (integer-set overlap).
        """
        if hi - lo <= 1:
            return INSERT_NOCHANGE
        m = self.length[h]
        lows = self.lows
        highs = self.highs
        s = self.start[h]
        e = s + m
        i = bisect_left(lows, lo, s, e)
        if i > s and highs[i - 1] > lo:
            i -= 1
        j = i
        while j < e and lows[j] < hi:
            if lows[j] < lo:
                lo = lows[j]
            if highs[j] > hi:
                hi = highs[j]
            j += 1
        if i == j:
            # Disjoint insert at position i.
            if m == self.cap[h]:
                off = i - s
                self._grow(h, m + 1)
                s = self.start[h]
                i = s + off
                e = s + m
                lows = self.lows
                highs = self.highs
            if i < e:
                lows[i + 1 : e + 1] = lows[i:e]
                highs[i + 1 : e + 1] = highs[i:e]
            lows[i] = lo
            highs[i] = hi
            self.length[h] = m + 1
            self.epoch[h] += 1
            return INSERT_DISJOINT
        if j - i == 1 and lows[i] == lo and highs[i] == hi:
            return INSERT_NOCHANGE  # subsumed by a single stored interval
        lows[i] = lo
        highs[i] = hi
        removed = j - i - 1
        if removed:
            lows[i + 1 : e - removed] = lows[j:e]
            highs[i + 1 : e - removed] = highs[j:e]
            self.length[h] = m - removed
        self.epoch[h] += 1
        return INSERT_MERGED

    def insert(self, h: int, low: ExtendedValue, high: ExtendedValue) -> int:
        """Public-endpoint convenience over :meth:`insert_encoded`."""
        return self.insert_encoded(h, _encode(low), _encode(high))

    def next_encoded(self, h: int, value: int) -> int:
        """Smallest integer >= ``value`` outside every stored interval.

        Encoded in and out: a return >= ``ENC_POS`` is +inf.  Gallops
        from the front exactly like :meth:`IntervalList.next`.  The probe
        walks in :mod:`repro.core.cds_arena` and
        :mod:`repro.core.triangle_arena` inline their Next instead: a
        cursor resumed from the previous answer, one single-step check,
        then one ``bisect_left`` from the cursor.
        """
        n = self.length[h]
        s = self.start[h]
        lows = self.lows
        if not n or lows[s] >= value:
            return value
        if n == 1 or lows[s + 1] >= value:
            high = self.highs[s]
        else:
            step = 2
            prev = 1
            while step < n and lows[s + step] < value:
                prev = step
                step <<= 1
            i = bisect_left(
                lows, value, s + prev + 1, s + (step if step < n else n)
            )
            high = self.highs[i - 1]
        return high if high > value else value

    def covers(self, h: int, value: int) -> bool:
        """True iff some stored interval strictly contains ``value``."""
        s = self.start[h]
        i = bisect_left(self.lows, value, s, s + self.length[h])
        if i == s:
            return False
        return self.highs[i - 1] > value

    def _overlapping(self, h: int, lo: int, hi: int) -> List[Tuple[int, int]]:
        """Stored intervals whose integer sets intersect open (lo, hi)."""
        s = self.start[h]
        e = s + self.length[h]
        lows = self.lows
        highs = self.highs
        out: List[Tuple[int, int]] = []
        for k in range(bisect_right(highs, lo, s, e), e):
            l_k = lows[k]
            if l_k >= hi:
                break
            h_k = highs[k]
            clipped_low = l_k if lo < l_k else lo
            clipped_high = h_k if h_k < hi else hi
            if clipped_high - clipped_low > 1:
                out.append((l_k, h_k))
        return out

    def covered_runs_encoded(
        self, h: int, lo: int, hi: int
    ) -> List[Tuple[int, int]]:
        """Stored coverage clipped to (lo, hi), encoded open intervals."""
        out: List[Tuple[int, int]] = []
        for l_k, h_k in self._overlapping(h, lo, hi):
            piece_low = l_k if lo < l_k else lo
            piece_high = h_k if h_k < hi else hi
            if piece_high - piece_low > 1:
                out.append((piece_low, piece_high))
        return out

    def uncovered_runs_encoded(
        self, h: int, lo: int, hi: int
    ) -> List[Tuple[int, int]]:
        """The integers of (lo, hi) *not* covered, encoded open intervals.

        Mirrors :meth:`IntervalList.uncovered_runs` (the dyadic tree's
        invariant-restoring float-up uses it), without decoding.
        """
        out: List[Tuple[int, int]] = []
        cursor = lo
        for l_k, h_k in self._overlapping(h, lo, hi):
            if l_k > cursor and l_k + 1 - cursor > 1:
                out.append((cursor, l_k + 1))
            new_cursor = h_k - 1 if h_k < ENC_POS else ENC_POS
            if new_cursor > cursor:
                cursor = new_cursor
            succ_cursor = cursor + 1 if cursor < ENC_POS else ENC_POS
            if succ_cursor >= hi:
                return out
        if hi - cursor > 1:
            out.append((cursor, hi))
        return out

    # ------------------------------------------------------------------
    # Introspection (tests, serialization helpers)
    # ------------------------------------------------------------------

    def intervals(self, h: int) -> List[Interval]:
        """Decoded (low, high) pairs of handle ``h`` in sorted order."""
        s = self.start[h]
        e = s + self.length[h]
        return [
            (_decode(lo), _decode(hi))
            for lo, hi in zip(self.lows[s:e], self.highs[s:e])
        ]

    def __repr__(self) -> str:
        handles = len(self.start) - len(self._free_handles)
        return (
            f"IntervalPool({handles} live handles, "
            f"{len(self.lows)} slots)"
        )


__all__ = ["IntervalPool", "ENC_NEG", "ENC_POS"]

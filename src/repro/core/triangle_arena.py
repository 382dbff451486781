"""Arena backend for the specialized triangle CDS (paper Appendix L).

:class:`ArenaTriangleMinesweeper` is :class:`~repro.core.triangle.
TriangleMinesweeper` with every CDS interval list — the A-gap root list,
the ⟨*, (b1,b2), *⟩ list, the per-``a`` B- and C-lists, and the whole
heap-numbered dyadic tree — stored as slices of one shared
:class:`~repro.storage.interval_pool.IntervalPool` instead of per-node
``IntervalList`` objects.  Endpoints stay in the :mod:`interval_list`
int encoding end to end, so the invariant-(7) float-up
(``insert_leaf``) no longer decodes and re-encodes every part it lifts,
and the probe walk's Next loops index two flat buffers.

Counting follows the ``OpCounters`` / ``NullCounters`` protocol: the
``enabled`` flag is read once and all tallying is skipped under
``NullCounters`` (the pointer engine pays those attribute bumps even
when nobody reads them).  Under an enabled counter the tallies are
placed exactly where the pointer engine places them, so probes, cache
hits/misses, interval ops, and rows are identical — asserted by the
backend-parity suite.

Only the flat (CSR) relation backend is supported; ``triangle_join``
falls back to the pointer CDS for the ``trie`` / ``btree`` ablations.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.core.triangle import TriangleMinesweeper, check_dyadic_invariant
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.interval_list import ENC_NEG, ENC_POS
from repro.storage.interval_pool import IntervalPool


class _PooledDyadic:
    """Heap-numbered dyadic tree as lazily-allocated pool handles."""

    __slots__ = ("depth", "n_leaves", "handles", "pool")

    def __init__(self, n_leaves: int, pool: IntervalPool) -> None:
        self.depth = max(1, (max(n_leaves, 1) - 1).bit_length())
        self.n_leaves = n_leaves
        self.handles: List[int] = [-1] * (1 << (self.depth + 1))
        self.pool = pool

    def check_invariant(self) -> None:
        """Assert invariant (7) on the materialized tree (tests)."""
        check_dyadic_invariant(
            [None if h < 0 else self.pool.intervals(h) for h in self.handles]
        )


class ArenaTriangleMinesweeper(TriangleMinesweeper):
    """Algorithm 10 over the pooled CDS; see the module docstring."""

    def _init_cds(self) -> None:
        if not isinstance(self.r_index, FlatTrieRelation):
            raise ValueError(
                "the arena triangle CDS requires the flat relation backend; "
                "use cds_backend='pointer' with trie/btree indexes"
            )
        # The tally gate and the CSR explorer's rank lookups.
        self._counting = self.counters.enabled
        self._a_rank_of = self.a_dict.rank_of
        self._b_rank_of = self.b_dict.rank_of
        self._c_rank_of = self.c_dict.rank_of
        pool = IntervalPool()
        self.pool = pool
        self.h_root = pool.new()  # gaps on A
        self.h_star_b = pool.new()  # ⟨*, (b1,b2), *⟩
        self.h_eq_a: Dict[int, int] = {}  # ⟨a, (b1,b2), *⟩
        self.h_eq_a_star: Dict[int, int] = {}  # ⟨a, *, (c1,c2)⟩
        self.dyadic = _PooledDyadic(len(self.b_dict), pool)
        # Padding leaves (the B domain rounded up to a power of two) carry
        # no real b value; mark them fully covered so invariant (7) can
        # propagate real coverage all the way to the root.
        for leaf in range(len(self.b_dict), 1 << self.dyadic.depth):
            self._insert_leaf(leaf, ENC_NEG, ENC_POS)
        self._cache: Dict[int, int] = {}
        self._key_shift = self.dyadic.depth + 1

    # ------------------------------------------------------------------
    # CDS helpers (pool handles in place of IntervalList objects)
    # ------------------------------------------------------------------

    def _eq_a_handle(self, a: int) -> int:
        h = self.h_eq_a.get(a)
        if h is None:
            h = self.pool.new()
            self.h_eq_a[a] = h
        return h

    def _eq_a_star_handle(self, a: int) -> int:
        h = self.h_eq_a_star.get(a)
        if h is None:
            h = self.pool.new()
            self.h_eq_a_star[a] = h
        return h

    def _dyadic_handle(self, heap: int) -> int:
        h = self.dyadic.handles[heap]
        if h < 0:
            h = self.pool.new()
            self.dyadic.handles[heap] = h
        return h

    def _insert_leaf(self, leaf: int, lo: int, hi: int) -> None:
        """Insert a C-gap for one b and restore invariant (7) upward.

        The pointer :meth:`DyadicTree.insert_leaf` with encoded
        endpoints end to end and counting-gated tallies; the part
        decomposition (uncovered runs, sibling-covered lifts) is
        identical, so interval-op counts match under enabled counters.
        """
        if hi - lo <= 1:
            return
        pool = self.pool
        counting = self._counting
        counters = self.counters
        heap = (1 << self.dyadic.depth) + leaf
        handles = self.dyadic.handles
        h = self._dyadic_handle(heap)
        if pool.length[h]:
            parts = pool.uncovered_runs_encoded(h, lo, hi)
        else:
            parts = [(lo, hi)]  # empty node: the whole insert is new
        pool.insert_encoded(h, lo, hi)
        if counting:
            counters.interval_ops += 1
        while heap > 1 and parts:
            sibling = handles[heap ^ 1]
            parent = self._dyadic_handle(heap >> 1)
            lifted: List[Tuple[int, int]] = []
            if sibling >= 0:
                for part_lo, part_hi in parts:
                    for cov_lo, cov_hi in pool.covered_runs_encoded(
                        sibling, part_lo, part_hi
                    ):
                        lifted.extend(
                            pool.uncovered_runs_encoded(parent, cov_lo, cov_hi)
                        )
                        pool.insert_encoded(parent, cov_lo, cov_hi)
                        if counting:
                            counters.interval_ops += 1
            parts = lifted
            heap >>= 1

    # ------------------------------------------------------------------
    # Probe search (Algorithm 10 over pool slices)
    # ------------------------------------------------------------------

    def get_probe_point(self) -> Optional[Tuple[int, int, int]]:
        """Return an active (a, b, c) in rank space, or None."""
        counters = self.counters
        counting = self._counting
        n_a, n_b, n_c = self._n_a, self._n_b, self._n_c
        if not n_a or not n_b or not n_c:
            return None
        pool = self.pool
        plows = pool.lows
        phighs = pool.highs
        pstart = pool.start
        plength = pool.length
        h_root = self.h_root
        h_star = self.h_star_b
        eq_a_get = self.h_eq_a.get
        eq_a_star_get = self.h_eq_a_star.get
        while True:
            # --- a = i_root.next(0), inline.
            if counting:
                counters.interval_ops += 1
            s = pstart[h_root]
            e = s + plength[h_root]
            i = s
            if i < e and plows[i] < 0:
                i += 1
                if i < e and plows[i] < 0:
                    i = bisect_left(plows, 0, i + 1, e)
            a = 0
            if i > s:
                high = phighs[i - 1]
                if high > 0:
                    a = high
            if a >= n_a:  # encoded +inf is >= any domain size
                return None
            h_eq = eq_a_get(a)
            # --- b_probe = Next of (star ∪ eq_a) from 0.
            if h_eq is None:
                if counting:
                    counters.interval_ops += 1
                b_probe = pool.next_encoded(h_star, 0)
            else:
                b_probe = self._next_b(h_eq, 0)
            if b_probe >= n_b:
                # No b is viable for this a: rule the a out (sound; see
                # the pointer module docstring) and retry.
                pool.insert_encoded(h_root, a - 1, a + 1)
                continue
            h_eq_star = eq_a_star_get(a)
            if h_eq_star is not None:
                if counting:
                    counters.interval_ops += 1
                first_free_c = pool.next_encoded(h_eq_star, 0)
                if first_free_c >= n_c:
                    pool.insert_encoded(h_root, a - 1, a + 1)
                    continue
            found = self._descend(a, b_probe, n_b, n_c)
            if found is None:
                # Dyadic walk exhausted every b for this a.
                pool.insert_encoded(h_root, a - 1, a + 1)
                continue
            return found

    def _next_b(self, h_eq: int, start: int) -> int:
        """Smallest b >= start outside I(*) ∪ I(=a), encoded.

        The pointer engine's ``_next_union(i_star_b, eq_a, start)`` over
        pool slices: identical alternation, identical operation tallies.
        """
        pool = self.pool
        plows = pool.lows
        phighs = pool.highs
        f_s = pool.start[self.h_star_b]
        f_e = f_s + pool.length[self.h_star_b]
        s_s = pool.start[h_eq]
        s_e = s_s + pool.length[h_eq]
        fi = f_s
        si = s_s
        value = start
        ops = 0
        while True:
            ops += 1
            i = fi
            if i < f_e and plows[i] < value:
                i += 1
                if i < f_e and plows[i] < value:
                    i = bisect_left(plows, value, i + 1, f_e)
            fi = i
            if i > f_s:
                high = phighs[i - 1]
                step_one = high if high > value else value
            else:
                step_one = value
            if step_one >= ENC_POS:
                b_next = step_one
                break
            ops += 1
            i = si
            if i < s_e and plows[i] < step_one:
                i += 1
                if i < s_e and plows[i] < step_one:
                    i = bisect_left(plows, step_one, i + 1, s_e)
            si = i
            if i > s_s:
                high = phighs[i - 1]
                step_two = high if high > step_one else step_one
            else:
                step_two = step_one
            if step_two >= ENC_POS or step_two == step_one:
                b_next = step_two
                break
            value = step_two
        if self._counting:
            self.counters.interval_ops += ops
        return b_next

    def _descend(
        self, a: int, b_next: int, n_b: int, n_c: int
    ) -> Optional[Tuple[int, int, int]]:
        """B-gap-guided dyadic walk; the pointer `_descend` over pool slices.

        Slice bounds of the ⟨a,*,C⟩ list are hoisted (it does not mutate
        inside the walk); the B-lists are only read by :meth:`_next_b`,
        after each dead-block insert.
        """
        counters = self.counters
        counting = self._counting
        pool = self.pool
        plows = pool.lows
        phighs = pool.highs
        pstart = pool.start
        plength = pool.length
        h_eq_star = self.h_eq_a_star.get(a)
        if h_eq_star is not None:
            es_s = pstart[h_eq_star]
            es_e = es_s + plength[h_eq_star]
        depth = self.dyadic.depth
        cache = self._cache
        cache_get = cache.get
        handles = self.dyadic.handles
        leaf_base = 1 << depth
        a_key = a << self._key_shift
        target = leaf_base + b_next  # heap id of leaf b_next
        heap = 1  # root of the heap-numbered dyadic tree
        below = depth  # tree levels under ``heap``
        while True:
            key = a_key | heap
            z = cache_get(key)
            if z is None:
                z = -1
                if counting:
                    counters.cache_misses += 1
            elif counting:
                counters.cache_hits += 1
            node_h = handles[heap]
            start = z if z > 0 else 0
            if node_h < 0:
                # Never-materialized node (the pointer walk's None).  A
                # *materialized but empty* handle — the float-up can
                # allocate a parent it then lifts nothing into — takes
                # the list branches below, exactly like the pointer
                # engine's empty IntervalList, so tallies agree.
                if h_eq_star is None:
                    c = start
                else:
                    # Single-list union (what _next_union degenerates to).
                    if counting:
                        counters.interval_ops += 1
                    c = pool.next_encoded(h_eq_star, start)
            elif h_eq_star is None:
                if counting:
                    counters.interval_ops += 1
                c = pool.next_encoded(node_h, start)
            else:
                # _next_union(eq_a_star, node_list, start) inlined on the
                # hottest path; identical alternation and op tallies.
                nl_s = pstart[node_h]
                nl_e = nl_s + plength[node_h]
                value = start
                ops = 0
                fi = es_s
                si = nl_s
                while True:
                    ops += 1
                    i = fi
                    if i < es_e and plows[i] < value:
                        i += 1
                        if i < es_e and plows[i] < value:
                            i = bisect_left(plows, value, i + 1, es_e)
                    fi = i
                    if i > es_s:
                        high = phighs[i - 1]
                        step_one = high if high > value else value
                    else:
                        step_one = value
                    if step_one >= ENC_POS:
                        c = step_one
                        break
                    ops += 1
                    i = si
                    if i < nl_e and plows[i] < step_one:
                        i += 1
                        if i < nl_e and plows[i] < step_one:
                            i = bisect_left(plows, step_one, i + 1, nl_e)
                    si = i
                    if i > nl_s:
                        high = phighs[i - 1]
                        step_two = high if high > step_one else step_one
                    else:
                        step_two = step_one
                    if step_two >= ENC_POS or step_two == step_one:
                        c = step_two
                        break
                    value = step_two
                if counting:
                    counters.interval_ops += ops
            if c < n_c:
                cache[key] = c
                if not below:
                    return (a, b_next, c)
                below -= 1
                heap = target >> below
                continue
            # Every c is dead for all b in this dyadic block: record the
            # block as a B-gap for this a, move b_next past it, and jump
            # to the child towards b_next of their lowest common ancestor.
            cache[key] = n_c
            hi = ((heap + 1) << below) - leaf_base
            h_eq = self._eq_a_handle(a)
            pool.insert_encoded(h_eq, hi - (1 << below) - 1, hi)
            if counting:
                counters.interval_ops += 1
            b_next = self._next_b(h_eq, hi)
            if b_next >= n_b:
                return None
            target = leaf_base + b_next
            below = ((leaf_base + hi - 1) ^ target).bit_length() - 1
            heap = target >> below

    # ------------------------------------------------------------------
    # Exploration (flat CSR arrays -> pool inserts, encoded rank space)
    # ------------------------------------------------------------------

    def _explore(
        self, a_rank: int, b_rank: int, c_rank: int, a: int, b: int, c: int
    ) -> bool:
        return self._explore_flat(a_rank, b_rank, c_rank, a, b, c)

    def _explore_flat(
        self, a_rank: int, b_rank: int, c_rank: int, a: int, b: int, c: int
    ) -> bool:
        """The plain tier's ``_explore`` over the CSR arrays, pool inserts.

        Same membership tests, gap bounds and tallies as the handle-API
        walk in :meth:`TriangleMinesweeper._explore`, read straight from
        the flat indexes' ``_vals`` / ``_offs``.
        """
        counters = self.counters
        counting = self._counting
        pool = self.pool
        a_rank_of = self._a_rank_of
        b_rank_of = self._b_rank_of
        c_rank_of = self._c_rank_of
        member = True
        # --- R(A, B): gaps on A and, under a match, on B.
        vals0 = self.r_index._vals[0]
        vals1 = self.r_index._vals[1]
        off1 = self.r_index._offs[1]
        if counting:
            counters.findgap += 1
        n = len(vals0)
        i = bisect_left(vals0, a)
        if i < n and vals0[i] == a:
            span_lo, span_hi = off1[i], off1[i + 1]
            if counting:
                counters.findgap += 1
            j = bisect_left(vals1, b, span_lo, span_hi)
            if not (j < span_hi and vals1[j] == b):
                low = b_rank_of[vals1[j - 1]] if j > span_lo else ENC_NEG
                high = b_rank_of[vals1[j]] if j < span_hi else ENC_POS
                pool.insert_encoded(self._eq_a_handle(a_rank), low, high)
                if counting:
                    counters.interval_ops += 1
                member = False
        else:
            low = a_rank_of[vals0[i - 1]] if i > 0 else ENC_NEG
            high = a_rank_of[vals0[i]] if i < n else ENC_POS
            pool.insert_encoded(self.h_root, low, high)
            if counting:
                counters.interval_ops += 1
            member = False
        # --- T(A, C): gaps on A and, under a match, on C (⟨a, *, gap⟩).
        vals0 = self.t_index._vals[0]
        vals1 = self.t_index._vals[1]
        off1 = self.t_index._offs[1]
        if counting:
            counters.findgap += 1
        n = len(vals0)
        i = bisect_left(vals0, a)
        if i < n and vals0[i] == a:
            span_lo, span_hi = off1[i], off1[i + 1]
            if counting:
                counters.findgap += 1
            j = bisect_left(vals1, c, span_lo, span_hi)
            if not (j < span_hi and vals1[j] == c):
                low = c_rank_of[vals1[j - 1]] if j > span_lo else ENC_NEG
                high = c_rank_of[vals1[j]] if j < span_hi else ENC_POS
                pool.insert_encoded(
                    self._eq_a_star_handle(a_rank), low, high
                )
                if counting:
                    counters.interval_ops += 1
                member = False
        else:
            low = a_rank_of[vals0[i - 1]] if i > 0 else ENC_NEG
            high = a_rank_of[vals0[i]] if i < n else ENC_POS
            pool.insert_encoded(self.h_root, low, high)
            if counting:
                counters.interval_ops += 1
            member = False
        # --- S(B, C): gaps on B (⟨*, gap, *⟩) and under a match on C
        #     (⟨*, b, gap⟩ -> dyadic leaf insert).
        vals0 = self.s_index._vals[0]
        vals1 = self.s_index._vals[1]
        off1 = self.s_index._offs[1]
        if counting:
            counters.findgap += 1
        n = len(vals0)
        i = bisect_left(vals0, b)
        if i < n and vals0[i] == b:
            span_lo, span_hi = off1[i], off1[i + 1]
            if counting:
                counters.findgap += 1
            j = bisect_left(vals1, c, span_lo, span_hi)
            if not (j < span_hi and vals1[j] == c):
                low = c_rank_of[vals1[j - 1]] if j > span_lo else ENC_NEG
                high = c_rank_of[vals1[j]] if j < span_hi else ENC_POS
                self._insert_leaf(b_rank, low, high)
                member = False
        else:
            low = b_rank_of[vals0[i - 1]] if i > 0 else ENC_NEG
            high = b_rank_of[vals0[i]] if i < n else ENC_POS
            pool.insert_encoded(self.h_star_b, low, high)
            if counting:
                counters.interval_ops += 1
            member = False
        return member


__all__ = ["ArenaTriangleMinesweeper"]

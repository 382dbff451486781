"""Triangle query Q△ = R(A,B) ⋈ S(B,C) ⋈ T(A,C) with the dyadic-tree CDS.

Paper Theorem 5.4 / Appendix L: the generic ConstraintTree spends Θ(|C|²)
work on hard triangle instances because it revisits Ω(|C|²) (a, b) pairs.
The specialized CDS keeps, for every *dyadic interval* x of the B domain,
an interval list

    I(*, x)  =  ⋂_{b ∈ x} I(*, =b)        (invariant (7))

of C-gaps that hold simultaneously for every b in x, so a whole dyadic
block of b values can be dismissed in one cached comparison.  Probe search
(Algorithm 10) walks the dyadic tree in pre-order with a per-(a, node)
cache of the last viable C candidate.

Implementation notes (documented deviations, all behaviour-preserving):

* Values are coordinate-compressed into rank space per column pair — only
  dictionary values can be output tuples, and gap endpoints are data
  values, so constraints translate monotonically.
* Algorithm 10 leaves two gaps a literal transcription would trip over:
  (i) when line 9 finds no viable b it loops to i=0 without ruling out
  ``a`` — we insert ⟨(a-1, a+1), *, *⟩ (sound: every b is dead for this a);
  (ii) the pre-order walk can land on a leaf b covered by I(=a) ∪ I(*) —
  such a leaf is skipped instead of returned as an inactive probe;
  (iii) B-gap-guided walk: re-entering at the root per probe, a literal
  pre-order walk re-crosses every dead block and covered leaf before the
  live position.  ``_descend`` instead carries ``b_next``, the first b
  not covered by I(*) ∪ I(=a), and only visits nodes whose block holds
  it.  Everything skipped is state-free for the answer (a re-crossed
  dead block re-derives the same cache value and re-inserts a B-gap
  already present), so the probe sequence is that of the pre-order walk
  — ``tests/test_triangle_walk.py`` keeps that walk as the reference.
* Output suppression uses the accompanying ``Cache(a, b, c+1)`` call the
  paper prescribes (leaf caches only; bumping internal caches on output
  would be unsound for sibling leaves).

This module is the plain tier: ``IntervalList`` objects reached only
through ``next`` / ``insert`` / ``covers``, indexes only through the
handle API.  :mod:`repro.core.triangle_arena` is the fast twin (pooled
lists, CSR explorer) and must return the same probes, rows and tallies.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.resilience import AdmittedQuery
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.interval_list import IntervalList, interval_is_empty
from repro.storage.trie import TrieRelation
from repro.util.counters import NullCounters, OpCounters
from repro.util.sentinels import NEG_INF, POS_INF, ExtendedValue

Edge = Tuple[int, int]


class _Dict:
    """A sorted value dictionary with rank translation (one per column)."""

    __slots__ = ("values", "rank_of")

    def __init__(self, values) -> None:
        self.values: List[int] = sorted(set(values))
        self.rank_of: Dict[int, int] = {
            v: i for i, v in enumerate(self.values)
        }

    def __len__(self) -> int:
        return len(self.values)

    def to_rank(self, value: ExtendedValue) -> ExtendedValue:
        """Exact rank of a dictionary value; infinities pass through."""
        if value is NEG_INF or value is POS_INF:
            return value
        return self.rank_of[value]


class DyadicTree:
    """Interval lists I(*, x) for every dyadic B-interval x (App. L.1).

    Storage is one dense heap-numbered array (the tree is complete and
    small: 2^{depth+1} slots; node (level, index) lives at slot
    ``2^level + index``), so the probe walk addresses nodes by a single
    integer — descend is ``heap << 1``, sibling is ``heap ^ 1``, parent
    is ``heap >> 1`` — with no per-visit tuple hashing or level
    bookkeeping.
    """

    def __init__(self, n_leaves: int, counters: OpCounters) -> None:
        self.depth = max(1, (max(n_leaves, 1) - 1).bit_length())
        self.n_leaves = n_leaves
        self.counters = counters
        self._heap: List[Optional[IntervalList]] = [None] * (
            1 << (self.depth + 1)
        )

    def node_list(self, level: int, index: int) -> Optional[IntervalList]:
        return self._heap[(1 << level) + index]

    def _list_for_heap(self, heap: int) -> IntervalList:
        lst = self._heap[heap]
        if lst is None:
            lst = IntervalList()
            self._heap[heap] = lst
        return lst

    def insert_leaf(
        self, leaf: int, low: ExtendedValue, high: ExtendedValue
    ) -> None:
        """Insert a C-gap for one b value and restore invariant (7) upward.

        Follows Proposition L.1: only the genuinely new parts float up, and
        a part rises only where the sibling already covers it.
        """
        if interval_is_empty(low, high):
            return
        heap = (1 << self.depth) + leaf
        node = self._list_for_heap(heap)
        if node:
            parts = node.uncovered_runs(low, high)
        else:
            parts = [(low, high)]  # empty node: the whole insert is new
        node.insert(low, high)
        self.counters.interval_ops += 1
        while heap > 1 and parts:
            sibling = self._heap[heap ^ 1]
            parent = self._list_for_heap(heap >> 1)
            lifted: List[Tuple[ExtendedValue, ExtendedValue]] = []
            if sibling is not None:
                for lo, hi in parts:
                    for cov_lo, cov_hi in sibling.covered_runs(lo, hi):
                        lifted.extend(parent.uncovered_runs(cov_lo, cov_hi))
                        parent.insert(cov_lo, cov_hi)
                        self.counters.interval_ops += 1
            parts = lifted
            heap >>= 1

    def check_invariant(self) -> None:
        """Assert invariant (7) on the materialized tree (tests)."""
        check_dyadic_invariant(
            [None if lst is None else lst.intervals() for lst in self._heap]
        )


def check_dyadic_invariant(
    nodes: Sequence[Optional[Sequence[Tuple[ExtendedValue, ExtendedValue]]]],
) -> None:
    """Assert I(*, x) = I(*, x0) ∩ I(*, x1) on a heap-numbered tree.

    ``nodes[heap]`` is the decoded interval list of that slot (``None``
    where never materialized) — the one form both CDS backends can
    produce.  Used by tests.  Verified pointwise over the integer hull
    of the finite endpoints.
    """

    def covers(intervals, v: int) -> bool:
        return intervals is not None and any(
            lo < v < hi for lo, hi in intervals
        )

    points = {
        v
        for intervals in nodes
        for interval in intervals or ()
        for v in interval
        if v is not NEG_INF and v is not POS_INF
    }
    probe_points = sorted(points | {p + 1 for p in points} | {-1, 0})
    for heap in range(1, len(nodes) // 2):
        if nodes[heap] is None:
            continue
        for v in probe_points:
            if covers(nodes[heap], v) and not (
                covers(nodes[2 * heap], v) and covers(nodes[2 * heap + 1], v)
            ):
                level = heap.bit_length() - 1
                raise AssertionError(
                    f"I(*,{(level, heap - (1 << level))}) covers {v} "
                    "but children do not"
                )


def _next_union(
    first: IntervalList,
    second: Optional[IntervalList],
    start: int,
    counters: OpCounters,
) -> ExtendedValue:
    """Smallest v >= start not covered by either list (paper MERGE).

    Alternates ``next`` on the two lists until both agree; one tallied
    interval op per ``next``.  ``second`` may be absent.
    """
    if second is None:
        counters.interval_ops += 1
        return first.next(start)
    value: ExtendedValue = start
    while True:
        counters.interval_ops += 1
        step_one = first.next(value)  # type: ignore[arg-type]
        if step_one is POS_INF:
            return POS_INF
        counters.interval_ops += 1
        value = second.next(step_one)  # type: ignore[arg-type]
        if value is POS_INF or value == step_one:
            return value


class TriangleMinesweeper:
    """Algorithm 10: Minesweeper for Q△ in Õ(|C|^{3/2} + Z).

    Parameters are edge lists: R ⊆ A×B, S ⊆ B×C, T ⊆ A×C.  ``iterate``
    streams the triangles (a, b, c) in GAO order (A, B, C); ``run``
    returns them as a list.
    """

    def __init__(
        self,
        r_edges: Sequence[Edge],
        s_edges: Sequence[Edge],
        t_edges: Sequence[Edge],
        counters: Optional[OpCounters] = None,
        backend: str = "auto",
    ) -> None:
        self.counters = counters if counters is not None else OpCounters()
        if backend in ("auto", "flat"):
            make_index = FlatTrieRelation
        elif backend == "trie":
            make_index = TrieRelation
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self.r_index = make_index(r_edges, arity=2, counters=self.counters)
        self.s_index = make_index(s_edges, arity=2, counters=self.counters)
        self.t_index = make_index(t_edges, arity=2, counters=self.counters)
        r_rows = self.r_index.tuples()
        s_rows = self.s_index.tuples()
        t_rows = self.t_index.tuples()
        self.a_dict = _Dict(
            [a for a, _ in r_rows] + [a for a, _ in t_rows]
        )
        self.b_dict = _Dict(
            [b for _, b in r_rows] + [b for b, _ in s_rows]
        )
        self.c_dict = _Dict(
            [c for _, c in s_rows] + [c for _, c in t_rows]
        )
        self._n_a = len(self.a_dict)
        self._n_b = len(self.b_dict)
        self._n_c = len(self.c_dict)
        self._init_cds()

    def _init_cds(self) -> None:
        """Build the specialized CDS state (overridden by the arena twin)."""
        # CDS state, all in rank space.
        self.i_root = IntervalList()  # gaps on A
        self.i_star_b = IntervalList()  # ⟨*, (b1,b2), *⟩
        self.i_eq_a: Dict[int, IntervalList] = {}  # ⟨a, (b1,b2), *⟩
        self.i_eq_a_star: Dict[int, IntervalList] = {}  # ⟨a, *, (c1,c2)⟩
        self.dyadic = DyadicTree(len(self.b_dict), self.counters)
        # Padding leaves (the B domain rounded up to a power of two) carry
        # no real b value; mark them fully covered so invariant (7) can
        # propagate real coverage all the way to the root.
        for leaf in range(len(self.b_dict), 1 << self.dyadic.depth):
            self.dyadic.insert_leaf(leaf, NEG_INF, POS_INF)
        # (a, dyadic node) -> last viable C candidate at that node.  Keys
        # are packed ints — (a << shift) | heap_id with heap_id =
        # 2^level + index — so the probe walk never allocates key tuples.
        self._cache: Dict[int, int] = {}
        self._key_shift = self.dyadic.depth + 1

    # ------------------------------------------------------------------
    # Cache
    # ------------------------------------------------------------------

    def _cache_key(self, a: int, level: int, index: int) -> int:
        return (a << self._key_shift) | ((1 << level) + index)

    def _get_cache(self, a: int, level: int, index: int) -> int:
        value = self._cache.get(self._cache_key(a, level, index))
        if value is None:  # stored candidates are always >= 0
            self.counters.cache_misses += 1
            return -1
        self.counters.cache_hits += 1
        return value

    def _set_cache(self, a: int, level: int, index: int, value: int) -> None:
        self._cache[self._cache_key(a, level, index)] = value

    # ------------------------------------------------------------------
    # Constraint insertion helpers (rank space)
    # ------------------------------------------------------------------

    def _eq_a_list(self, a: int) -> IntervalList:
        lst = self.i_eq_a.get(a)
        if lst is None:
            lst = IntervalList()
            self.i_eq_a[a] = lst
        return lst

    def _eq_a_star_list(self, a: int) -> IntervalList:
        lst = self.i_eq_a_star.get(a)
        if lst is None:
            lst = IntervalList()
            self.i_eq_a_star[a] = lst
        return lst

    # ------------------------------------------------------------------
    # Probe search (Algorithm 10)
    # ------------------------------------------------------------------

    def get_probe_point(self) -> Optional[Tuple[int, int, int]]:
        """Return an active (a, b, c) in rank space, or None."""
        counters = self.counters
        n_a, n_b, n_c = self._n_a, self._n_b, self._n_c
        if not n_a or not n_b or not n_c:
            return None
        while True:
            counters.interval_ops += 1
            a = self.i_root.next(0)  # smallest free a >= 0
            if a is POS_INF or a >= n_a:
                return None
            b_probe = _next_union(self.i_star_b, self.i_eq_a.get(a), 0, counters)
            if b_probe is POS_INF or b_probe >= n_b:
                # No b is viable for this a: rule the a out (sound; see
                # module docstring) and retry.
                self.i_root.insert(a - 1, a + 1)
                continue
            eq_a_star = self.i_eq_a_star.get(a)
            if eq_a_star is not None:
                counters.interval_ops += 1
                first_free_c = eq_a_star.next(0)
                if first_free_c is POS_INF or first_free_c >= n_c:
                    self.i_root.insert(a - 1, a + 1)
                    continue
            found = self._descend(a, b_probe, n_b, n_c)
            if found is None:
                # Dyadic walk exhausted every b for this a.
                self.i_root.insert(a - 1, a + 1)
                continue
            return found

    def _descend(
        self, a: int, b_next: int, n_b: int, n_c: int
    ) -> Optional[Tuple[int, int, int]]:
        """Walk the dyadic tree towards ``b_next``; return (a, b, c) or None.

        ``b_next`` is the smallest b at or after the walk's position that
        I(*) ∪ I(=a) does not cover, and every visited node's block
        contains it: a live internal node steps to the child holding
        ``b_next``, a live leaf *is* ``b_next``, and a dead block advances
        ``b_next`` past itself and jumps below the lowest common ancestor.

        Each visit is one cached comparison: the per-(a, node) cache
        gives the last viable c, and MERGE over I(=a, *) and the node's
        I(*, x) moves it forward.
        """
        counters = self.counters
        eq_a_star = self.i_eq_a_star.get(a)
        depth = self.dyadic.depth
        leaf_base = 1 << depth
        target = leaf_base + b_next  # heap id of leaf b_next
        heap = 1  # root of the heap-numbered dyadic tree
        below = depth  # tree levels under ``heap``
        while True:
            level = depth - below
            index = heap - (1 << level)
            c: ExtendedValue = max(self._get_cache(a, level, index), 0)
            first, second = eq_a_star, self.dyadic.node_list(level, index)
            if first is None:
                first, second = second, None
            if first is not None:
                c = _next_union(first, second, c, counters)  # type: ignore[arg-type]
            if c is not POS_INF and c < n_c:
                self._set_cache(a, level, index, c)  # type: ignore[arg-type]
                if not below:
                    return (a, b_next, c)  # type: ignore[return-value]
                below -= 1
                heap = target >> below
                continue
            # Every c is dead for all b in this dyadic block: record the
            # block as a B-gap for this a, move b_next past it, and jump
            # to the child towards b_next of their lowest common ancestor.
            self._set_cache(a, level, index, n_c)
            hi = ((heap + 1) << below) - leaf_base
            eq_a = self._eq_a_list(a)
            eq_a.insert(hi - (1 << below) - 1, hi)
            counters.interval_ops += 1
            b_next = _next_union(self.i_star_b, eq_a, hi, counters)  # type: ignore[assignment]
            if b_next >= n_b:
                return None
            target = leaf_base + b_next
            below = ((leaf_base + hi - 1) ^ target).bit_length() - 1
            heap = target >> below

    # ------------------------------------------------------------------
    # Outer loop
    # ------------------------------------------------------------------

    def run(
        self, admission: Optional[AdmittedQuery] = None
    ) -> List[Tuple[int, int, int]]:
        """Every triangle of :meth:`iterate`, as a list."""
        return list(self.iterate(admission))

    def iterate(
        self, admission: Optional[AdmittedQuery] = None
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield the triangles (a, b, c), ascending, as they are found.

        Probes arrive in ascending (a, b, c) order, so the output needs
        no sort, and a consumer that stops early pays only for the
        probes so far.  ``admission`` is ticked once per probe.
        """
        counters = self.counters
        a_values = self.a_dict.values
        b_values = self.b_dict.values
        c_values = self.c_dict.values
        explore = self._explore
        n = (
            len(self.r_index)
            + len(self.s_index)
            + len(self.t_index)
        )
        budget = 1000 + 200 * (n + 1)
        while True:
            probe = self.get_probe_point()
            if probe is None:
                break
            counters.probes += 1
            if counters.probes - counters.output_tuples > budget:
                raise RuntimeError(
                    f"triangle probe budget exhausted at {probe}"
                )
            if admission is not None:
                admission.tick(counters, "triangle")
            a_rank, b_rank, c_rank = probe
            a = a_values[a_rank]
            b = b_values[b_rank]
            c = c_values[c_rank]
            is_member = explore(a_rank, b_rank, c_rank, a, b, c)
            if is_member:
                counters.output_tuples += 1
                self._set_cache(
                    a_rank, self.dyadic.depth, b_rank, c_rank + 1
                )
                yield (a, b, c)

    def _explore(
        self, a_rank: int, b_rank: int, c_rank: int, a: int, b: int, c: int
    ) -> bool:
        """Probe R, S, T around (a, b, c); insert the gaps (Algorithm 2).

        Returns True iff (a, b, c) is a triangle.  Constraints are inserted
        in rank space into the specialized lists.  Index access goes
        through node handles (``gap_at`` / ``value_at`` / ``child_at``),
        which every index backend provides.
        """
        member = True
        # --- R(A, B): gaps on A and, under a match, on B.
        r_root = self.r_index.root_handle()
        lo, hi = self.r_index.gap_at(r_root, a)
        if lo != hi:
            self._insert_a_gap(self.r_index, r_root, lo, hi)
            member = False
        else:
            node = self.r_index.child_at(r_root, hi)
            b_lo, b_hi = self.r_index.gap_at(node, b)
            if b_lo != b_hi:
                low = self.b_dict.to_rank(self.r_index.value_at(node, b_lo))
                high = self.b_dict.to_rank(self.r_index.value_at(node, b_hi))
                self._eq_a_list(a_rank).insert(low, high)
                self.counters.interval_ops += 1
                member = False
        # --- T(A, C): gaps on A and, under a match, on C (⟨a, *, gap⟩).
        t_root = self.t_index.root_handle()
        lo, hi = self.t_index.gap_at(t_root, a)
        if lo != hi:
            self._insert_a_gap(self.t_index, t_root, lo, hi)
            member = False
        else:
            node = self.t_index.child_at(t_root, hi)
            c_lo, c_hi = self.t_index.gap_at(node, c)
            if c_lo != c_hi:
                low = self.c_dict.to_rank(self.t_index.value_at(node, c_lo))
                high = self.c_dict.to_rank(self.t_index.value_at(node, c_hi))
                self._eq_a_star_list(a_rank).insert(low, high)
                self.counters.interval_ops += 1
                member = False
        # --- S(B, C): gaps on B (⟨*, gap, *⟩) and under a match on C
        #     (⟨*, b, gap⟩ -> dyadic leaf insert).
        s_root = self.s_index.root_handle()
        lo, hi = self.s_index.gap_at(s_root, b)
        if lo != hi:
            low = self.b_dict.to_rank(self.s_index.value_at(s_root, lo))
            high = self.b_dict.to_rank(self.s_index.value_at(s_root, hi))
            self.i_star_b.insert(low, high)
            self.counters.interval_ops += 1
            member = False
        else:
            node = self.s_index.child_at(s_root, hi)
            c_lo, c_hi = self.s_index.gap_at(node, c)
            if c_lo != c_hi:
                low = self.c_dict.to_rank(self.s_index.value_at(node, c_lo))
                high = self.c_dict.to_rank(self.s_index.value_at(node, c_hi))
                self.dyadic.insert_leaf(b_rank, low, high)
                member = False
        return member

    def _insert_a_gap(self, index, root_handle, lo: int, hi: int) -> None:
        """Translate an A-level index gap to rank space and store it."""
        low = self.a_dict.to_rank(index.value_at(root_handle, lo))
        high = self.a_dict.to_rank(index.value_at(root_handle, hi))
        self.i_root.insert(low, high)
        self.counters.interval_ops += 1


def triangle_join(
    r_edges: Sequence[Edge],
    s_edges: Sequence[Edge],
    t_edges: Sequence[Edge],
    counters: Optional[OpCounters] = None,
    cds_backend: Optional[str] = None,
    admission: Optional[AdmittedQuery] = None,
) -> List[Tuple[int, int, int]]:
    """Enumerate Q△ = R(A,B) ⋈ S(B,C) ⋈ T(A,C) with the dyadic CDS.

    With no ``counters`` the engine runs counting-free (the tallies
    would be unreachable through this interface anyway); pass an
    :class:`OpCounters` to collect the Section-5.2 numbers.

    The run is :class:`~repro.core.triangle_arena.ArenaTriangleMinesweeper`
    over flat tries.  A comparison against the plain tier builds
    :class:`TriangleMinesweeper` directly (``backend="trie"`` for the
    pointer-trie indexes); rows and operation counts are the same.
    ``cds_backend`` is not a knob: any value but ``None`` raises
    ``ValueError``.  It stays only because the frozen perf ledger's
    ``benchmarks/ledger/layers.py::_engine_call`` passes
    ``cds_backend=plan.cds_backend``; ROADMAP items 2(b) and 7(a)
    remove it.

    ``admission`` (an :class:`~repro.core.resilience.AdmittedQuery`)
    is checked once per probe and aborts the run with a typed
    ``BudgetExceeded`` / ``QueryTimeout``.
    """
    from repro.core.triangle_arena import ArenaTriangleMinesweeper

    if cds_backend is not None:
        raise ValueError(
            "triangle_join() takes no CDS tier "
            f"(got cds_backend={cds_backend!r})"
        )
    if counters is None:
        counters = NullCounters()
    engine = ArenaTriangleMinesweeper(r_edges, s_edges, t_edges, counters)
    return engine.run(admission)

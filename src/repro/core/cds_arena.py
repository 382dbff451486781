"""Arena-backed CDS: the ConstraintTree as integer-indexed flat arrays.

Drop-in backend for :class:`repro.core.cds.ConstraintTree` (paper §3.3 /
App. E) in which a tree node is an *integer index* into parallel arrays
rather than a Python object:

* node arrays — depth, star-child index, parent/incoming-label (pattern
  reconstruction), cached pattern tuple and equality count;
* one pooled eq-key store — each node's sorted equality labels and child
  indices are a slice of two shared flat buffers, grown by power-of-two
  relocation;
* one pooled interval store — a :class:`repro.storage.interval_pool.
  IntervalPool` slice per node, with the :mod:`interval_list` int
  encoding of ±inf so every hot comparison is a C-level int compare.

There is one InsConstraint walk (Algorithm 5), :meth:`ArenaConstraintTree.
insert_many`; ``insert`` is its one-constraint case, and every interval
lands through :meth:`IntervalPool.insert_encoded`, whose ``INSERT_*``
code drives the epochs below.  Subtrees subsumed on insert (the
covered-label invariant) return their node slots and slabs to free
lists instead of churning the GC.

Beyond layout, the arena exploits two structural facts the pointer tree
cannot express cheaply:

* **Per-depth epochs.**  The principal filter of a length-``d`` prefix
  changes only when a depth-``d`` node's intervals turn non-empty or a
  subtree reaching depth ``d`` is pruned — so cached probe chains are
  keyed on a per-depth epoch instead of the pointer tree's global
  ``version``, and survive unrelated inserts untouched.  (Chain caching
  performs no counted operations, so operation counts are unchanged.)
* **Resumable probe cursors.**  Within one probe-point search the sought
  value only ascends, so each chain level keeps a cursor into its
  interval slice: a Next checks the cursor's next slot, then bisects
  from there instead of from the front.  A memoization insert resets
  the cursors of exactly the levels whose slices it can move.  Cursors
  change how a Next result is *found*, never how many Next operations
  are tallied.

There is one probe walk.  :class:`ArenaGeneralProbeStrategy` runs
Algorithm 7 over cached shadow chains, with one- and two-level chains
unrolled in ``get_probe_point`` and deeper ones taking the recursion.
:class:`ArenaChainProbeStrategy` is its all-degenerate case: on a chain
filter every suffix meet is the level's own pattern, so Algorithm 4 is
that walk with every level its own shadow, plus Algorithm 4's one op
per inner call.

Counting follows the ``OpCounters`` / ``NullCounters`` protocol: the
``enabled`` flag is read once per engine and every tally is skipped
wholesale when nobody will read the numbers.  Under an enabled counter
the arena tallies exactly what the pointer tree tallies — the property
suite asserts byte-identical rows and exact op-count equality, and
``benchmarks/check_smoke_ops.py`` holds every ``cds/*`` smoke workload
to it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Optional, Tuple

from repro.core.constraints import (
    Constraint,
    Pattern,
    WILDCARD,
    equality_count,
    last_equality_position,
    meet,
    specializes,
)
from repro.core.probe_acyclic import NotAChainError
from repro.storage.interval_list import (
    ENC_POS,
    INSERT_DISJOINT,
    INSERT_NOCHANGE,
    _ENC_LIMIT,
    _encode,
)
from repro.storage.interval_pool import IntervalPool
from repro.util.counters import OpCounters

_EQ_MIN_CAP = 4


class ArenaConstraintTree:
    """The CDS as flat arrays; nodes are integer indices (root is 0).

    API-compatible with :class:`~repro.core.cds.ConstraintTree` up to
    the node representation: every method that takes or returns a
    ``CDSNode`` here takes or returns an ``int``.  Only the merged
    interval representation exists here; the E13 naive-list ablation
    builds the pointer tree over ``NaiveIntervalList`` instead.
    """

    is_arena = True

    def __init__(
        self,
        n_attributes: int,
        counters: Optional[OpCounters] = None,
    ) -> None:
        if n_attributes < 1:
            raise ValueError("need at least one attribute")
        self.n = n_attributes
        self.counters = counters if counters is not None else OpCounters()
        self._counting = self.counters.enabled
        self.root = 0
        self.version = 0
        self.constraints_inserted = 0
        #: One epoch per prefix length 0..n; the principal filter of a
        #: length-d prefix can only change when epoch d is bumped.
        self.depth_epoch: List[int] = [0] * (n_attributes + 1)
        self.pool = IntervalPool()
        # --- node arrays -------------------------------------------------
        self._depth: List[int] = []
        self._star: List[int] = []  # star-child node index, -1 = none
        self._parent: List[int] = []
        self._plabel: List[int] = []  # incoming eq label (star via _star)
        self._pattern: List[Optional[Pattern]] = []
        self._eqc: List[int] = []  # equality_count(pattern), the sort key
        self._ivh: List[int] = []  # interval-pool handle
        # --- pooled eq-key slices ---------------------------------------
        self._eq_start: List[int] = []
        self._eq_len: List[int] = []
        self._eq_cap: List[int] = []
        self._ekey: List[int] = []  # shared label buffer
        self._echild: List[int] = []  # shared child-index buffer
        self._eq_free: dict = {}  # cap -> reusable slab starts
        self._free_nodes: List[int] = []
        self._new_node(0, -1, 0, ())

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------

    def _new_node(
        self, depth: int, parent: int, label: int, pattern: Pattern
    ) -> int:
        free = self._free_nodes
        if free:
            u = free.pop()
            self._depth[u] = depth
            self._star[u] = -1
            self._parent[u] = parent
            self._plabel[u] = label
            self._pattern[u] = pattern
            self._eqc[u] = equality_count(pattern)
            self._ivh[u] = self.pool.new()
            return u
        u = len(self._depth)
        self._depth.append(depth)
        self._star.append(-1)
        self._parent.append(parent)
        self._plabel.append(label)
        self._pattern.append(pattern)
        self._eqc.append(equality_count(pattern))
        self._ivh.append(self.pool.new())
        self._eq_start.append(0)
        self._eq_len.append(0)
        self._eq_cap.append(0)
        return u

    def _eq_grow(self, u: int, need: int) -> None:
        cap = _EQ_MIN_CAP
        while cap < need:
            cap <<= 1
        free = self._eq_free.get(cap)
        if free:
            new_start = free.pop()
        else:
            new_start = len(self._ekey)
            self._ekey.extend([0] * cap)
            self._echild.extend([0] * cap)
        old_start = self._eq_start[u]
        old_cap = self._eq_cap[u]
        m = self._eq_len[u]
        if m:
            self._ekey[new_start : new_start + m] = self._ekey[
                old_start : old_start + m
            ]
            self._echild[new_start : new_start + m] = self._echild[
                old_start : old_start + m
            ]
        if old_cap:
            self._eq_free.setdefault(old_cap, []).append(old_start)
        self._eq_start[u] = new_start
        self._eq_cap[u] = cap

    def _eq_child(self, u: int, label: int) -> int:
        """Child of ``u`` along equality ``label``; -1 when absent."""
        m = self._eq_len[u]
        if not m:
            return -1
        s = self._eq_start[u]
        e = s + m
        ekey = self._ekey
        i = bisect_left(ekey, label, s, e)
        if i < e and ekey[i] == label:
            return self._echild[i]
        return -1

    def child_for(self, u: int, component) -> int:
        """The child along an equality label or the wildcard; -1 if none."""
        if component is WILDCARD:
            return self._star[u]
        return self._eq_child(u, component)

    def _make_child(self, u: int, component) -> int:
        pattern = self._pattern[u] + (component,)
        if component is WILDCARD:
            child = self._new_node(self._depth[u] + 1, u, 0, pattern)
            self._star[u] = child
        else:
            child = self._new_node(self._depth[u] + 1, u, component, pattern)
            m = self._eq_len[u]
            if m == self._eq_cap[u]:
                self._eq_grow(u, m + 1)
            s = self._eq_start[u]
            e = s + m
            ekey = self._ekey
            echild = self._echild
            i = bisect_left(ekey, component, s, e)
            if i < e:
                ekey[i + 1 : e + 1] = ekey[i:e]
                echild[i + 1 : e + 1] = echild[i:e]
            ekey[i] = component
            echild[i] = child
            self._eq_len[u] = m + 1
        self.version += 1
        return child

    def _free_subtree(self, u: int) -> None:
        """Recycle ``u`` and everything below it (slots and slabs)."""
        stack = [u]
        pool = self.pool
        while stack:
            v = stack.pop()
            m = self._eq_len[v]
            if m:
                s = self._eq_start[v]
                stack.extend(self._echild[s : s + m])
            if self._star[v] >= 0:
                stack.append(self._star[v])
            cap = self._eq_cap[v]
            if cap:
                self._eq_free.setdefault(cap, []).append(self._eq_start[v])
            self._eq_start[v] = 0
            self._eq_len[v] = 0
            self._eq_cap[v] = 0
            self._star[v] = -1
            self._pattern[v] = None  # drop the tuple; slot is recyclable
            pool.free(self._ivh[v])
            self._free_nodes.append(v)

    def ensure_node(self, pattern: Pattern) -> int:
        """Get-or-create the node for ``pattern`` (shadow-node creation)."""
        u = self.root
        for component in pattern:
            child = self.child_for(u, component)
            if child < 0:
                child = self._make_child(u, component)
            u = child
        return u

    def find_node(self, pattern: Pattern) -> Optional[int]:
        u = self.root
        for component in pattern:
            u = self.child_for(u, component)
            if u < 0:
                return None
        return u

    # ------------------------------------------------------------------
    # InsConstraint (Algorithm 5)
    # ------------------------------------------------------------------

    def insert(self, constraint: Constraint) -> bool:
        """Insert a constraint; returns False when subsumed or empty.

        The one-constraint case of :meth:`insert_many`'s walk.
        """
        return self.insert_many((constraint,)) == 1

    def insert_many(self, constraints) -> int:
        """InsConstraint (Algorithm 5) for a batch, in order.

        Equivalent to ``for c in constraints: insert(c)`` on the pointer
        tree — same walk, same tallies, same subsumption answers — with
        the hot-path locals bound once per batch (engines call it once
        per non-member probe).  The covers probe runs only on the
        node-creation path: an existing equality child is never covered
        by its parent's intervals.  Returns how many constraints reached
        their interval node (neither empty nor subsumed on the way).
        """
        counting = self._counting
        counters = self.counters
        n = self.n
        star = self._star
        eq_start = self._eq_start
        eq_len = self._eq_len
        ekey = self._ekey
        echild = self._echild
        insert_encoded = self._insert_interval_encoded
        landed = 0
        for constraint in constraints:
            if counting:
                counters.constraints += 1
            self.constraints_inserted += 1
            low = constraint.low
            high = constraint.high
            if type(low) is int and type(high) is int:
                # The all-finite hot case: emptiness before any range
                # check, exactly like Constraint.is_empty().
                if high - low <= 1:
                    continue
                lo = low if -_ENC_LIMIT < low < _ENC_LIMIT else _encode(low)
                hi = (
                    high
                    if -_ENC_LIMIT < high < _ENC_LIMIT
                    else _encode(high)
                )
            else:
                if constraint.is_empty():
                    continue
                lo = _encode(low)
                hi = _encode(high)
            prefix = constraint.prefix
            if len(prefix) >= n:
                raise ValueError(
                    f"constraint dimension {len(prefix)} "
                    f"exceeds attribute count {n}"
                )
            u = 0  # root
            for component in prefix:
                if component is WILDCARD:
                    child = star[u]
                else:
                    m = eq_len[u]
                    if m:
                        s = eq_start[u]
                        e = s + m
                        i = bisect_left(ekey, component, s, e)
                        if i < e and ekey[i] == component:
                            child = echild[i]
                        else:
                            child = -1
                    else:
                        child = -1
                if child < 0:
                    if component is not WILDCARD and self.pool.covers(
                        self._ivh[u], component
                    ):
                        break  # subsumed by an existing, more general gap
                    child = self._make_child(u, component)
                u = child
            else:
                insert_encoded(u, lo, hi)
                landed += 1
        return landed

    def _insert_interval_encoded(self, u: int, lo: int, hi: int) -> None:
        """Insert encoded (lo, hi) at node ``u``, pruning covered eq children.

        Tally placement matches the pointer tree's ``insert_interval_at``:
        one interval op per call, counted before the insert is attempted.
        The merge is :meth:`IntervalPool.insert_encoded`; its ``INSERT_*``
        code drives the epochs.
        """
        if self._counting:
            self.counters.interval_ops += 1
        pool = self.pool
        h = self._ivh[u]
        code = pool.insert_encoded(h, lo, hi)
        if code == INSERT_NOCHANGE:
            return
        if code == INSERT_DISJOINT and pool.length[h] == 1:
            # The node just entered every principal filter containing
            # its pattern: probe chains cached for this depth go stale.
            self.depth_epoch[self._depth[u]] += 1
            self.version += 1
        m = self._eq_len[u]
        if not m:  # no equality children to prune (common case)
            return
        # Prune with the *original* endpoints, like the pointer tree: the
        # absorbed neighbours pruned their labels when they were inserted.
        s = self._eq_start[u]
        e = s + m
        ekey = self._ekey
        a = bisect_right(ekey, lo, s, e)
        b = bisect_left(ekey, hi, s, e)
        if a >= b:
            return
        echild = self._echild
        removed_children = echild[a:b]
        width = b - a
        ekey[a : e - width] = ekey[b:e]
        echild[a : e - width] = echild[b:e]
        self._eq_len[u] = m - width
        for child in removed_children:
            self._free_subtree(child)
        # Pruned subtrees start one level below u and may hold interval
        # nodes at any deeper depth: stale out every deeper chain cache.
        epochs = self.depth_epoch
        for d in range(self._depth[u] + 1, self.n + 1):
            epochs[d] += 1
        self.version += 1

    # ------------------------------------------------------------------
    # Traversal used by probe strategies
    # ------------------------------------------------------------------

    def _filter_ids(self, prefix: Tuple[int, ...]) -> List[int]:
        """Node ids of the principal filter G(prefix), frontier order.

        Enumeration order matches the pointer tree's ``frontier`` (at
        each level: equality child first, then the ``*`` child), so the
        stable descending-equality-count sort downstream linearizes the
        two backends' chains identically.
        """
        frontier = [self.root]
        star = self._star
        for value in prefix:
            extended: List[int] = []
            for u in frontier:
                c = self._eq_child(u, value)
                if c >= 0:
                    extended.append(c)
                if star[u] >= 0:
                    extended.append(star[u])
            frontier = extended
            if not frontier:
                return frontier
        pool_length = self.pool.length
        ivh = self._ivh
        return [u for u in frontier if pool_length[ivh[u]]]

    # ------------------------------------------------------------------
    # Introspection (tests, debugging, serialization)
    # ------------------------------------------------------------------

    def intervals_at(self, u: int):
        """Decoded (low, high) pairs stored at node ``u``."""
        return self.pool.intervals(self._ivh[u])

    def node_covers(self, u: int, value: int) -> bool:
        """True iff node ``u``'s intervals strictly contain ``value``."""
        return self.pool.covers(self._ivh[u], value)

    def eq_labels(self, u: int) -> List[int]:
        s = self._eq_start[u]
        return self._ekey[s : s + self._eq_len[u]]

    def iter_nodes(self) -> Iterator[Tuple[Pattern, int]]:
        stack: List[Tuple[Pattern, int]] = [((), self.root)]
        while stack:
            pattern, u = stack.pop()
            yield pattern, u
            s = self._eq_start[u]
            for i in range(self._eq_len[u]):
                label = self._ekey[s + i]
                stack.append((pattern + (label,), self._echild[s + i]))
            if self._star[u] >= 0:
                stack.append((pattern + (WILDCARD,), self._star[u]))

    def node_count(self) -> int:
        """Live nodes (allocated minus recycled) — tests."""
        return len(self._depth) - len(self._free_nodes)

    def covers_row(self, row: Tuple[int, ...]) -> bool:
        """True iff some stored gap covers the output-space point ``row``."""
        pool = self.pool
        ivh = self._ivh
        star = self._star
        frontier = [self.root]
        for value in row:
            next_frontier: List[int] = []
            for u in frontier:
                if pool.covers(ivh[u], value):
                    return True
                c = self._eq_child(u, value)
                if c >= 0:
                    next_frontier.append(c)
                if star[u] >= 0:
                    next_frontier.append(star[u])
            frontier = next_frontier
        return False

    def __getstate__(self) -> dict:
        """Pickle as plain int arrays (patterns are rebuilt on load).

        Sharded executions ship engines to pool workers; the arena's
        whole state is flat buffers, which serialize far cheaper than a
        pointer tree's object graph.
        """
        state = {slot: getattr(self, slot) for slot in (
            "n", "counters", "_counting", "root", "version",
            "constraints_inserted", "depth_epoch", "_depth", "_star",
            "_parent", "_plabel", "_eqc", "_ivh", "_eq_start", "_eq_len",
            "_eq_cap", "_ekey", "_echild", "_eq_free", "_free_nodes",
        )}
        state["pool"] = {
            slot: getattr(self.pool, slot) for slot in IntervalPool.__slots__
        }
        return state

    def __setstate__(self, state: dict) -> None:
        pool_state = state.pop("pool")
        for key, value in state.items():
            setattr(self, key, value)
        self.pool = IntervalPool()
        for key, value in pool_state.items():
            setattr(self.pool, key, value)
        # Rebuild pattern tuples bottom-up from parent/label arrays.
        n_nodes = len(self._depth)
        free = set(self._free_nodes)
        patterns: List[Optional[Pattern]] = [None] * n_nodes
        self._pattern = patterns
        order = sorted(
            (u for u in range(n_nodes) if u not in free),
            key=self._depth.__getitem__,
        )
        star = self._star
        for u in order:
            parent = self._parent[u]
            if parent < 0:
                patterns[u] = ()
            elif star[parent] == u:
                patterns[u] = patterns[parent] + (WILDCARD,)
            else:
                patterns[u] = patterns[parent] + (self._plabel[u],)


class _ShadowState:
    """One cached shadow chain (Algorithm 6) of the arena probe strategies.

    Per level: the shadow node (where inferred gaps are memoized), its
    interval handle and the original node's handle.  ``deg`` marks
    degenerate levels where the shadow *is* the original: the leaf always
    is (the last suffix meet is its own pattern), and a chain-strategy
    state is degenerate throughout.  Chains of more than two levels also
    carry per level resumable cursors into the original and shadow
    slices with their absolute buffer bounds (a degenerate level reads
    the original side only).  ``tied[j]`` lists the levels whose
    slices a memoization insert at level ``j`` can move (the level
    itself, plus any level sharing its shadow node — suffix meets can
    coincide), so the walk refreshes exactly those and the per-step path
    never re-reads pool metadata.
    """

    __slots__ = (
        "nodes", "shandles", "ohandles", "deg", "bottom", "tied",
        "obase", "oend", "ocur", "sbase", "send", "scur",
    )

    def __init__(self, nodes, shandles, ohandles, deg, bottom):
        self.nodes = nodes
        self.shandles = shandles
        self.ohandles = ohandles
        self.deg = deg
        self.bottom = bottom
        k = len(nodes)
        if k > 2:  # one- and two-level chains run on plain locals
            self.obase = [0] * k
            self.oend = [0] * k
            self.ocur = [0] * k
            self.sbase = [0] * k
            self.send = [0] * k
            self.scur = [0] * k
            self.tied = [
                [
                    lvl
                    for lvl in range(k)
                    if shandles[lvl] == shandles[j]
                    or ohandles[lvl] == shandles[j]
                ]
                for j in range(k)
            ]

    def refresh(self, pool: IntervalPool, j: int) -> None:
        starts = pool.start
        lengths = pool.length
        h = self.ohandles[j]
        s = starts[h]
        self.obase[j] = s
        self.oend[j] = s + lengths[h]
        self.ocur[j] = s
        h = self.shandles[j]
        s = starts[h]
        self.sbase[j] = s
        self.send[j] = s + lengths[h]
        self.scur[j] = s


class ArenaGeneralProbeStrategy:
    """Algorithm 6 (shadow chains) over the arena tree.

    Mirrors :class:`repro.core.probe_general.GeneralProbeStrategy` Next
    for Next — identical op and memoization tallies — while every Next
    runs over pooled slices with per-level resumable cursors.
    """

    name = "general"
    #: Ops charged on entering an inner chain level: none in Algorithm 7;
    #: Algorithm 4 charges one (:class:`ArenaChainProbeStrategy`).
    _ENTRY_OPS = 0

    def __init__(self, cds: ArenaConstraintTree, memoize: bool = True) -> None:
        self.cds = cds
        self.memoize = memoize
        self.counters = cds.counters
        self._counting = self.counters.enabled
        self._chains: dict = {}  # prefix -> (depth epoch, _ShadowState|None)

    def _chain_for(self, prefix: Tuple[int, ...]) -> Optional[_ShadowState]:
        cds = self.cds
        epoch = cds.depth_epoch[len(prefix)]
        cached = self._chains.get(prefix)
        if cached is not None and cached[0] == epoch:
            return cached[1]
        ids = cds._filter_ids(prefix)
        state = self._build_shadow_chain(ids) if ids else None
        # Shadow-node creation cannot move this depth's epoch (new nodes
        # hold no intervals), so the pre-build epoch is still current.
        self._chains[prefix] = (epoch, state)
        return state

    def _build_shadow_chain(self, ids: List[int]) -> _ShadowState:
        """Linearize G and attach suffix-meet shadow nodes (Alg 6 8-14)."""
        cds = self.cds
        if len(ids) == 1:
            # Singleton filter (the dominant cold-build case): it is its
            # own linearization and its own suffix meet.
            u = ids[0]
            h = cds._ivh[u]
            return _ShadowState([u], [h], [h], [True], cds._pattern[u])
        # Stable descending sort: frontier order kept on equal counts,
        # exactly like the pointer strategy's -count key.
        ids.sort(key=cds._eqc.__getitem__, reverse=True)
        patterns = cds._pattern
        suffix_meet: Optional[Pattern] = None
        meets: List[Pattern] = []
        for u in reversed(ids):
            pattern = patterns[u]
            if suffix_meet is None:
                suffix_meet = pattern
            else:
                merged = meet(suffix_meet, pattern)
                if merged is None:
                    raise AssertionError(
                        "filter patterns conflict; they cannot share a prefix"
                    )
                suffix_meet = merged
            meets.append(suffix_meet)
        meets.reverse()
        ivh = cds._ivh
        nodes: List[int] = []
        shandles: List[int] = []
        ohandles: List[int] = []
        deg: List[bool] = []
        for u, shadow_pattern in zip(ids, meets):
            if shadow_pattern == patterns[u]:
                shadow = u
            else:
                shadow = cds.ensure_node(shadow_pattern)
            nodes.append(shadow)
            shandles.append(ivh[shadow])
            ohandles.append(ivh[u])
            deg.append(shadow == u)
        return _ShadowState(nodes, shandles, ohandles, deg, meets[0])

    def get_probe_point(self) -> Optional[Tuple[int, ...]]:
        """Return an active tuple, or None when the gaps cover everything.

        The dominant shadow-chain shapes run inlined here with
        plain-local cursors: one level (a single slice — the leaf is
        always degenerate) and two levels (the leaf alternating with
        level 0, a single slice or a {ū ⪯ u} pair).  Deeper chains take
        the recursive walk.  Tally arithmetic in every branch is the
        walk's.
        """
        cds = self.cds
        counting = self._counting
        counters = self.counters
        memoize = self.memoize
        entry_ops = self._ENTRY_OPS
        pool = cds.pool
        plows = pool.lows
        phighs = pool.highs
        pstart = pool.start
        plength = pool.length
        depth_epoch = cds.depth_epoch
        chains_get = self._chains.get
        n = cds.n
        t: List[int] = []
        while len(t) < n:
            prefix = tuple(t)
            cached = chains_get(prefix)
            if cached is not None and cached[0] == depth_epoch[len(t)]:
                entries = cached[1]
            else:
                entries = self._chain_for(prefix)
            if entries is None:
                t.append(-1)
                continue
            nodes = entries.nodes
            k = len(nodes)
            # The k == 1 and k == 2 unrollings stay on measurement: with
            # every chain sent through _next_shadow_chain_val instead,
            # the perf ledger read x1.14 engine_paper and x1.18
            # serve_read_cyclic op_p50 (capacity x0.88), over 5
            # alternating A/B runs on a 2-core Xeon, CPython 3.11.  They
            # can go once a faster walk (generated per-shape kernels)
            # takes their place, not by plain deletion.
            if k == 1:
                # One level {u}: one Next from -1, no memoize.
                if counting:
                    counters.interval_ops += 1
                h = entries.ohandles[0]
                s = pstart[h]
                e = s + plength[h]
                i = s
                if i < e and plows[i] < -1:
                    i += 1
                    if i < e and plows[i] < -1:
                        i = bisect_left(plows, -1, i + 1, e)
                value = -1
                if i > s:
                    high = phighs[i - 1]
                    if high > -1:
                        value = high
            elif k == 2:
                # The leaf alternating with level 0, which is a single
                # slice or a {ū ⪯ u} pair; memoize at the level-0 shadow
                # on completion.  Tallies: the entry charge, 1 per
                # single-slice Next, 2 per pair round — the walk's.
                lh = entries.ohandles[1]
                l_s = pstart[lh]
                l_e = l_s + plength[lh]
                li = l_s
                deg0 = entries.deg[0]
                oh = entries.ohandles[0]
                o_s = pstart[oh]
                o_e = o_s + plength[oh]
                oi = o_s
                if not deg0:
                    sh = entries.shandles[0]
                    s_s = pstart[sh]
                    s_e = s_s + plength[sh]
                    si = s_s
                cur = -1
                total_ops = entry_ops
                while True:
                    # z = leaf.next(cur), resuming cursor li.
                    total_ops += 1
                    i = li
                    if i < l_e and plows[i] < cur:
                        i += 1
                        if i < l_e and plows[i] < cur:
                            i = bisect_left(plows, cur, i + 1, l_e)
                    li = i
                    if i > l_s:
                        high = phighs[i - 1]
                        z = high if high > cur else cur
                    else:
                        z = cur
                    if z >= ENC_POS:
                        y = ENC_POS
                    elif deg0:
                        # y = level0.next(z), resuming cursor oi.
                        total_ops += 1
                        i = oi
                        if i < o_e and plows[i] < z:
                            i += 1
                            if i < o_e and plows[i] < z:
                                i = bisect_left(plows, z, i + 1, o_e)
                        oi = i
                        if i > o_s:
                            high = phighs[i - 1]
                            y = high if high > z else z
                        else:
                            y = z
                    else:
                        # y = pair-next(z) over level 0's two slices:
                        # ``_next_pair`` inlined, since a two-level chain
                        # with a {ū ⪯ u} pair at level 0 is the common
                        # shape of a 4-cycle's probes, where the call and
                        # its cursor round-trip show in the ledger's
                        # serve_read_cyclic latency.
                        yy = z
                        while True:
                            total_ops += 2
                            i = oi
                            if i < o_e and plows[i] < yy:
                                i += 1
                                if i < o_e and plows[i] < yy:
                                    i = bisect_left(plows, yy, i + 1, o_e)
                            oi = i
                            if i > o_s:
                                high = phighs[i - 1]
                                zz = high if high > yy else yy
                            else:
                                zz = yy
                            if zz >= ENC_POS:
                                y = ENC_POS
                                break
                            i = si
                            if i < s_e and plows[i] < zz:
                                i += 1
                                if i < s_e and plows[i] < zz:
                                    i = bisect_left(plows, zz, i + 1, s_e)
                            si = i
                            if i > s_s:
                                high = phighs[i - 1]
                                yy = high if high > zz else zz
                            else:
                                yy = zz
                            if yy == zz:
                                y = yy
                                break
                            if yy >= ENC_POS:
                                y = ENC_POS
                                break
                    if y == z or y >= ENC_POS:
                        if memoize:
                            cds._insert_interval_encoded(nodes[0], -2, y)
                        value = y
                        break
                    cur = y  # fixpoint not reached: re-descend to the leaf
                if counting:
                    counters.interval_ops += total_ops
            else:
                for j in range(k):
                    entries.refresh(pool, j)
                value = self._next_shadow_chain_val(-1, 0, entries)
            if value < ENC_POS:
                t.append(value)
                continue
            bottom_pattern = entries.bottom  # meet of every filter pattern
            i0 = last_equality_position(bottom_pattern)
            if i0 == 0:
                return None
            if counting:
                counters.backtracks += 1
            pinned = bottom_pattern[i0 - 1]
            assert isinstance(pinned, int)
            cds.insert(
                Constraint(bottom_pattern[: i0 - 1], pinned - 1, pinned + 1)
            )
            del t[i0 - 1 :]
        return tuple(t)

    def _next_shadow_chain_val(
        self, x: int, j: int, entries: _ShadowState
    ) -> int:
        """Algorithm 7 over the shadow chain (bottom at index 0), encoded.

        The pointer strategy's recursion: the leaf answers with one Next
        (it is always degenerate); an inner level alternates the levels
        above it with its own Next — one slice, or the {ū ⪯ u} pair —
        until a fixpoint, then memoizes ``(x - 1, y)`` at its shadow
        node and refreshes the levels that insert can move.  Every Next
        resumes its level's cursor: the sought value only ascends.
        """
        pool = self.cds.pool
        lows = pool.lows
        highs = pool.highs
        obase = entries.obase
        oend = entries.oend
        ocur = entries.ocur
        if j == len(entries.nodes) - 1:
            if self._counting:
                self.counters.interval_ops += 1
            e = oend[j]
            i = ocur[j]
            if i < e and lows[i] < x:
                i += 1
                if i < e and lows[i] < x:
                    i = bisect_left(lows, x, i + 1, e)
            ocur[j] = i
            if i > obase[j]:
                high = highs[i - 1]
                if high > x:
                    return high
            return x
        deg = entries.deg[j]
        ops = self._ENTRY_OPS
        y = x
        while True:
            z = self._next_shadow_chain_val(y, j + 1, entries)
            if z >= ENC_POS:
                y = ENC_POS
                break
            if deg:
                # Bounds re-read per step: a memoization insert above
                # can move this level's slice (shared suffix meets).
                ops += 1
                e = oend[j]
                i = ocur[j]
                if i < e and lows[i] < z:
                    i += 1
                    if i < e and lows[i] < z:
                        i = bisect_left(lows, z, i + 1, e)
                ocur[j] = i
                y = z
                if i > obase[j]:
                    high = highs[i - 1]
                    if high > z:
                        y = high
            else:
                y = self._next_pair(z, j, entries)
            if y == z or y >= ENC_POS:
                break
        if self._counting and ops:
            self.counters.interval_ops += ops
        if self.memoize:
            self.cds._insert_interval_encoded(entries.nodes[j], x - 1, y)
            for lvl in entries.tied[j]:
                entries.refresh(pool, lvl)
        return y

    def _next_pair(self, x: int, j: int, entries: _ShadowState) -> int:
        """nextChainVal over level j's two-node chain {ū ⪯ u}, encoded.

        The original and shadow slices alternate from ``x``, both cursors
        resuming, two ops per round; +inf comes back as ``ENC_POS``.
        """
        pool = self.cds.pool
        lows = pool.lows
        highs = pool.highs
        o_s = entries.obase[j]
        o_e = entries.oend[j]
        s_s = entries.sbase[j]
        s_e = entries.send[j]
        oi = entries.ocur[j]
        si = entries.scur[j]
        y = x
        ops = 0
        while True:
            ops += 2
            i = oi
            if i < o_e and lows[i] < y:
                i += 1
                if i < o_e and lows[i] < y:
                    i = bisect_left(lows, y, i + 1, o_e)
            oi = i
            if i > o_s:
                high = highs[i - 1]
                z = high if high > y else y
            else:
                z = y
            if z >= ENC_POS:
                y = ENC_POS
                break
            i = si
            if i < s_e and lows[i] < z:
                i += 1
                if i < s_e and lows[i] < z:
                    i = bisect_left(lows, z, i + 1, s_e)
            si = i
            if i > s_s:
                high = highs[i - 1]
                y = high if high > z else z
            else:
                y = z
            if y == z:
                break
            if y >= ENC_POS:
                y = ENC_POS
                break
        entries.ocur[j] = oi
        entries.scur[j] = si
        if self._counting:
            self.counters.interval_ops += ops
        return y


class ArenaChainProbeStrategy(ArenaGeneralProbeStrategy):
    """Algorithm 3 over the arena tree (beta-acyclic / NEO GAOs).

    When the principal filter is a chain every suffix meet is the
    level's own pattern, so Algorithm 4 is the shadow-chain walk with
    every level degenerate.  Only two things differ from the general
    strategy: the chain is checked rather than shadowed
    (:class:`NotAChainError` otherwise), and each inner call charges the
    entry op of :class:`repro.core.probe_acyclic.ChainProbeStrategy`.
    """

    name = "chain"
    _ENTRY_OPS = 1

    def _build_shadow_chain(self, ids: List[int]) -> _ShadowState:
        """Linearize G (Prop. 4.2) as an all-degenerate shadow chain."""
        cds = self.cds
        # Descending equality count; reverse=True keeps the sort stable
        # on equal keys, so frontier order is preserved exactly like the
        # pointer strategy's -count key.
        ids.sort(key=cds._eqc.__getitem__, reverse=True)
        patterns = cds._pattern
        for narrow, wide in zip(ids, ids[1:]):
            if not specializes(patterns[narrow], patterns[wide]):
                raise NotAChainError(
                    f"filter contains incomparable patterns "
                    f"{patterns[narrow]} / {patterns[wide]}; use the "
                    "general (shadow-chain) strategy"
                )
        ivh = cds._ivh
        handles = [ivh[u] for u in ids]
        return _ShadowState(
            ids, handles, handles, [True] * len(ids), patterns[ids[0]]
        )


def make_probe_strategy(cds, strategy: str, memoize: bool = True):
    """Probe strategy matching ``cds``'s type (arena or pointer tree)
    and the ``strategy`` name."""
    if isinstance(cds, ArenaConstraintTree):
        if strategy == "chain":
            return ArenaChainProbeStrategy(cds, memoize=memoize)
        if strategy == "general":
            return ArenaGeneralProbeStrategy(cds, memoize=memoize)
        raise ValueError(f"unknown strategy {strategy!r}")
    from repro.core.probe_acyclic import ChainProbeStrategy
    from repro.core.probe_general import GeneralProbeStrategy

    if strategy == "chain":
        return ChainProbeStrategy(cds, memoize=memoize)
    if strategy == "general":
        return GeneralProbeStrategy(cds, memoize=memoize)
    raise ValueError(f"unknown strategy {strategy!r}")


__all__ = [
    "ArenaChainProbeStrategy",
    "ArenaConstraintTree",
    "ArenaGeneralProbeStrategy",
    "make_probe_strategy",
]

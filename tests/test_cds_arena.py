"""Arena CDS backend: property/fuzz equivalence against the pointer tree.

The arena contract is *exact*: byte-identical rows, identical operation
counts, identical tree contents, identical probe-point sequences under
every strategy — the tier may only change wall-clock.  No run option
picks the tier: these tests build the plain tier (``ConstraintTree``,
``TriangleMinesweeper``) directly, drive randomized interleaved
InsConstraint + probe workloads through both, and assert that contract,
plus the arena-only mechanics (slab recycling, plain-array pickling,
per-depth epochs).
"""

import pickle
import random

import pytest

from repro.core.cds import ConstraintTree
from repro.core.cds_arena import (
    ArenaChainProbeStrategy,
    ArenaConstraintTree,
    ArenaGeneralProbeStrategy,
    make_probe_strategy,
)
from repro.core.constraints import Constraint, WILDCARD
from repro.core.engine import join
from repro.core.minesweeper import Minesweeper
from repro.core.probe_acyclic import ChainProbeStrategy, NotAChainError
from repro.core.probe_general import GeneralProbeStrategy
from repro.core.query import PreparedQuery, Query
from repro.core.triangle import TriangleMinesweeper, triangle_join
from repro.datasets.instances import triangle_hard, triangle_with_output
from repro.parallel.planner import plan_and_slice
from repro.storage.interval_pool import IntervalPool
from repro.storage.interval_list import IntervalList, NaiveIntervalList
from repro.storage.relation import Relation
from repro.storage.trie import TrieRelation
from repro.util.counters import NullCounters, OpCounters
from repro.util.sentinels import NEG_INF, POS_INF

W = WILDCARD


def random_constraint(rng, n_attr, domain=9):
    depth = rng.randrange(n_attr)
    prefix = tuple(
        rng.randrange(domain) if rng.random() < 0.6 else W
        for _ in range(depth)
    )
    low = rng.randrange(-1, domain)
    high = low + rng.randint(0, 5)
    if rng.random() < 0.05:
        low = NEG_INF
    if rng.random() < 0.05:
        high = POS_INF
    return Constraint(prefix, low, high)


def tree_snapshot(tree):
    """Backend-agnostic {pattern: (intervals, eq labels, has star)} map."""
    if isinstance(tree, ArenaConstraintTree):
        return {
            pattern: (
                tree.intervals_at(u),
                list(tree.eq_labels(u)),
                tree._star[u] >= 0,
            )
            for pattern, u in tree.iter_nodes()
        }
    return {
        pattern: (
            node.intervals.intervals(),
            node.eq_keys.as_list(),
            node.star is not None,
        )
        for pattern, node in tree.iter_nodes()
    }


class TestIntervalPool:
    """The pooled slices against the reference IntervalList."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_interval_list(self, seed):
        rng = random.Random(seed)
        pool = IntervalPool()
        handles = [pool.new() for _ in range(5)]
        refs = [IntervalList() for _ in range(5)]
        for _ in range(300):
            k = rng.randrange(5)
            low = rng.randrange(-2, 40)
            high = low + rng.randint(-1, 12)
            assert pool.insert(handles[k], low, high) == refs[k].insert(
                low, high
            )
            probe = rng.randrange(-2, 45)
            assert pool.covers(handles[k], probe) == refs[k].covers(probe)
            nxt = refs[k].next(probe)
            got = pool.next_encoded(handles[k], probe)
            assert (POS_INF if got >= 1 << 62 else got) == nxt
            lo, hi = sorted((rng.randrange(-2, 40), rng.randrange(-2, 40)))
            assert pool.intervals(handles[k]) == refs[k].intervals()
            covered = [
                (a, b)
                for a, b in refs[k].covered_runs(lo, hi)
            ]
            got_runs = [
                tuple(
                    POS_INF if v >= 1 << 62 else NEG_INF if v <= -(1 << 62)
                    else v
                    for v in run
                )
                for run in pool.covered_runs_encoded(handles[k], lo, hi)
            ]
            assert got_runs == covered
            uncov = refs[k].uncovered_runs(lo, hi)
            got_un = [
                tuple(
                    POS_INF if v >= 1 << 62 else NEG_INF if v <= -(1 << 62)
                    else v
                    for v in run
                )
                for run in pool.uncovered_runs_encoded(handles[k], lo, hi)
            ]
            assert got_un == uncov

    def test_free_recycles_slabs_and_handles(self):
        pool = IntervalPool()
        h = pool.new()
        for i in range(10):
            pool.insert(h, 3 * i, 3 * i + 2)
        cap = pool.cap[h]
        start = pool.start[h]
        pool.free(h)
        h2 = pool.new()
        assert h2 == h  # handle slot reused
        assert pool.length[h2] == 0
        for i in range(10):
            pool.insert(h2, 3 * i, 3 * i + 2)
        # The previously-grown slab is reused rather than re-extended.
        assert pool.cap[h2] == cap
        assert pool.start[h2] == start


class TestArenaTreeEquivalence:
    """Randomized InsConstraint sequences: identical trees and answers."""

    @pytest.mark.parametrize("seed", range(25))
    def test_insert_fuzz(self, seed):
        rng = random.Random(seed)
        n_attr = rng.randint(1, 4)
        c1 = OpCounters()
        c2 = OpCounters()
        ptr = ConstraintTree(n_attr, counters=c1)
        arena = ArenaConstraintTree(n_attr, counters=c2)
        for _ in range(rng.randint(10, 80)):
            constraint = random_constraint(rng, n_attr)
            assert ptr.insert(constraint) == arena.insert(constraint)
        assert tree_snapshot(ptr) == tree_snapshot(arena)
        assert c1.snapshot() == c2.snapshot()
        assert ptr.constraints_inserted == arena.constraints_inserted
        for _ in range(60):
            row = tuple(rng.randrange(10) for _ in range(n_attr))
            assert ptr.covers_row(row) == arena.covers_row(row)

    @pytest.mark.parametrize("seed", range(10))
    def test_insert_many_matches_loop(self, seed):
        rng = random.Random(seed)
        n_attr = rng.randint(1, 3)
        batch = [random_constraint(rng, n_attr) for _ in range(30)]
        one = ArenaConstraintTree(n_attr, counters=OpCounters())
        for c in batch:
            one.insert(c)
        many = ArenaConstraintTree(n_attr, counters=OpCounters())
        many.insert_many(batch)
        assert tree_snapshot(one) == tree_snapshot(many)
        assert one.counters.snapshot() == many.counters.snapshot()

    def test_node_recycling(self):
        arena = ArenaConstraintTree(3)
        for label in range(20):
            arena.insert(Constraint((label,), 0, 5))
        before = arena.node_count()
        # A root interval covering every label prunes all 20 subtrees.
        arena.insert(Constraint((), -1, 100))
        assert arena.node_count() == 1  # only the root survives
        for label in range(200, 220):
            arena.insert(Constraint((label,), 0, 5))
        # Recycled slots: the arena did not grow past its high-water mark.
        assert len(arena._depth) <= before + 1
        assert before > 1

    def test_merge_intervals_false_is_pointer_only(self):
        """The unmerged (verbatim) interval list exists only in the
        pointer tree; the arena takes no such switch."""
        with pytest.raises(TypeError):
            ArenaConstraintTree(2, merge_intervals=False)
        tree = ConstraintTree(2, merge_intervals=False)
        assert isinstance(tree.root.intervals, NaiveIntervalList)

    def test_resolve_backend(self):
        """The CDS object picks its probe strategy by type, and the
        engine's default CDS is the arena."""
        arena, pointer = ArenaConstraintTree(2), ConstraintTree(2)
        for strategy, fast, plain in (
            ("chain", ArenaChainProbeStrategy, ChainProbeStrategy),
            ("general", ArenaGeneralProbeStrategy, GeneralProbeStrategy),
        ):
            assert type(make_probe_strategy(arena, strategy)) is fast
            assert type(make_probe_strategy(pointer, strategy)) is plain
        with pytest.raises(ValueError):
            make_probe_strategy(arena, "bogus")
        prepared = Query(
            [Relation("R", ["A", "B"], [(1, 2)])]
        ).with_gao(["A", "B"])
        assert isinstance(Minesweeper(prepared).cds, ArenaConstraintTree)
        engine = Minesweeper(
            prepared, cds=ConstraintTree(2, counters=prepared.counters)
        )
        assert type(engine.probe) is ChainProbeStrategy

    def test_pickle_round_trip_plain_arrays(self):
        rng = random.Random(7)
        arena = ArenaConstraintTree(3)
        for _ in range(60):
            arena.insert(random_constraint(rng, 3))
        blob = pickle.dumps(arena)
        clone = pickle.loads(blob)
        assert tree_snapshot(clone) == tree_snapshot(arena)
        assert clone.depth_epoch == arena.depth_epoch
        # The payload is flat int arrays + the counters object: the
        # pattern tuples (an object graph in the pointer tree) are
        # rebuilt on load, not shipped.
        state = arena.__getstate__()
        assert "_pattern" not in state
        assert all(
            isinstance(v, int) for v in state["_ekey"] + state["_depth"]
        )


def _filters(tree, domain):
    """Every principal filter over ``domain`` labels, as the chain cache
    sees it: (node, pattern, interval handle) in frontier order."""
    out = {}
    prefixes = [()]
    for _ in range(tree.n):
        for prefix in prefixes:
            out[prefix] = [
                (u, tree._pattern[u], tree._ivh[u])
                for u in tree._filter_ids(prefix)
            ]
        prefixes = [p + (v,) for p in prefixes for v in range(domain)]
    return out


class TestDepthEpochs:
    """The per-depth epoch contract the probe chain cache relies on: the
    principal filter of a length-d prefix never changes unless
    ``depth_epoch[d]`` does.  The epochs are derived from the
    ``INSERT_*`` codes of :meth:`IntervalPool.insert_encoded`."""

    @pytest.mark.parametrize("seed", range(30))
    def test_filter_change_moves_its_depth_epoch(self, seed):
        rng = random.Random(seed)
        n_attr = rng.randint(1, 4)
        domain = 4  # label 3 is never drawn: filters that stay empty
        tree = ArenaConstraintTree(n_attr)
        before = _filters(tree, domain)
        for _ in range(60):
            epochs = list(tree.depth_epoch)
            if rng.random() < 0.7:
                tree.insert(random_constraint(rng, n_attr, domain=3))
            else:
                # A memoization insert: straight onto a (shadow) node
                # that may hold no interval yet.
                pattern = random_constraint(rng, n_attr, domain=3).prefix
                low = rng.randrange(-2, 4)
                tree._insert_interval_encoded(
                    tree.ensure_node(pattern), low, low + rng.randint(0, 4)
                )
            after = _filters(tree, domain)
            for prefix, ids in after.items():
                if ids != before[prefix]:
                    d = len(prefix)
                    assert tree.depth_epoch[d] != epochs[d], (prefix, ids)
            before = after


def _probe_all(strategy_cls, tree, memoize=True):
    """Drain probe points, inserting a point gap after each (a run skeleton
    that exercises get_probe_point + insert interleaving)."""
    strategy = strategy_cls(tree, memoize=memoize)
    points = []
    while len(points) < 200:
        t = strategy.get_probe_point()
        if t is None:
            break
        points.append(t)
        tree.insert(Constraint.trusted(t[:-1], t[-1] - 1, t[-1] + 1))
    return points


def _seeded_trees(n_attr, seeded):
    """A pointer and an arena tree holding the same constraints."""
    c1 = OpCounters()
    ptr = ConstraintTree(n_attr, counters=c1)
    c2 = OpCounters()
    arena = ArenaConstraintTree(n_attr, counters=c2)
    for c in seeded:
        ptr.insert(c)
        arena.insert(c)
    return ptr, arena, c1, c2


def _random_trees(seed, chain_safe=False):
    """Broad random seeding: labels 0-8, ±inf endpoints, zero widths.

    ``chain_safe`` draws only all-equality or all-wildcard patterns, so
    every principal filter is (almost always) a chain.  Probes mostly
    sit on ``-1`` prefixes no label matches, so chains stay short and
    empty principal filters occur.
    """
    rng = random.Random(seed)
    n_attr = rng.randint(1, 5)
    if not chain_safe:
        seeded = [random_constraint(rng, n_attr) for _ in range(15)]
        return _seeded_trees(n_attr, seeded)
    seeded = []
    for _ in range(15):
        depth = rng.randrange(n_attr)
        if rng.random() < 0.5:
            prefix = tuple(rng.randrange(6) for _ in range(depth))
        else:
            prefix = (W,) * depth
        low = rng.randrange(-1, 8)
        seeded.append(Constraint(prefix, low, low + rng.randint(0, 4)))
    return _seeded_trees(n_attr, seeded)


def _deep_trees(seed, chain_safe=False):
    """Deep seeding: principal filters of up to n_attr + 1 levels.

    Every attribute is bounded to [0, 5) by wildcard gaps, and equality
    labels are drawn from {0, 1}, so the probe walk lands where the
    random patterns live (n_attr <= 5).  ``chain_safe`` draws only
    patterns of the form (labels..., *, ..., *): every filter is then a
    chain.
    """
    rng = random.Random(seed)
    n_attr = rng.randint(1, 5)
    seeded = []
    for depth in range(n_attr):
        seeded.append(Constraint((W,) * depth, NEG_INF, 0))
        seeded.append(Constraint((W,) * depth, 4, POS_INF))
    for _ in range(30):
        depth = rng.randrange(n_attr)
        if chain_safe:
            j = rng.randint(0, depth)
            prefix = tuple(rng.randrange(2) for _ in range(j))
            prefix += (W,) * (depth - j)
        else:
            prefix = tuple(
                rng.randrange(2) if rng.random() < 0.6 else W
                for _ in range(depth)
            )
        low = rng.randrange(-1, 5)
        seeded.append(Constraint(prefix, low, low + rng.randint(1, 2)))
    return _seeded_trees(n_attr, seeded)


def _pair_trees(seed, chain_safe=False):
    """Two incomparable families: every filter at C is {(a, *), (*, b)}.

    A and B are bounded to {0, 1} and C's intervals sit only on (a, *)
    and (*, b) patterns, so until a point gap lands on (a, b) itself the
    principal filter is a two-level chain whose level 0 is a {ū ⪯ u}
    pair with shadow (a, b).  Never a chain: general strategy only.
    """
    assert not chain_safe
    rng = random.Random(seed)
    seeded = []
    for depth in range(2):
        seeded.append(Constraint((W,) * depth, NEG_INF, 0))
        seeded.append(Constraint((W,) * depth, 1, POS_INF))
    for a in range(2):
        seeded.append(Constraint((a, W), 8, POS_INF))
    for _ in range(12):
        label = rng.randrange(2)
        prefix = (label, W) if rng.random() < 0.5 else (W, label)
        low = rng.randrange(-1, 8)
        seeded.append(Constraint(prefix, low, low + rng.randint(1, 3)))
    return _seeded_trees(3, seeded)


_SEEDINGS = {"random": _random_trees, "deep": _deep_trees}
_GENERAL_SEEDINGS = {**_SEEDINGS, "pair": _pair_trees}


def _recorded_chains(strategy_cls, arena):
    """Every chain ``strategy_cls`` looks up while probing (None: empty)."""
    built = []

    class Recording(strategy_cls):
        def _chain_for(self, prefix):
            state = super()._chain_for(prefix)
            built.append(state)
            return state

    _probe_all(Recording, arena)
    return built


class TestProbeEquivalence:
    """Interleaved probe/insert sequences under both strategies."""

    @pytest.mark.parametrize(
        "seeding, seed, memoize",
        [
            pytest.param(seeding, seed, memoize, id=f"{prefix}{memoize}-{seed}")
            for seeding, prefix in (
                ("random", ""), ("deep", "deep-"), ("pair", "pair-")
            )
            for memoize in (True, False)
            for seed in range(12)
        ],
    )
    def test_general_probe_sequences(self, seeding, seed, memoize):
        ptr, arena, c1, c2 = _GENERAL_SEEDINGS[seeding](seed)
        p1 = _probe_all(GeneralProbeStrategy, ptr, memoize=memoize)
        p2 = _probe_all(ArenaGeneralProbeStrategy, arena, memoize=memoize)
        assert p1 == p2
        assert c1.snapshot() == c2.snapshot()
        assert tree_snapshot(ptr) == tree_snapshot(arena)

    @pytest.mark.parametrize(
        "seeding, seed, memoize",
        [
            pytest.param(seeding, seed, memoize, id=f"{prefix}{tag}{seed}")
            for seeding, prefix in (("random", ""), ("deep", "deep-"))
            for memoize, tag in ((True, ""), (False, "nomemo-"))
            for seed in range(12)
        ],
    )
    def test_chain_probe_sequences(self, seeding, seed, memoize):
        ptr, arena, c1, c2 = _SEEDINGS[seeding](seed, chain_safe=True)
        try:
            p1 = _probe_all(ChainProbeStrategy, ptr, memoize=memoize)
        except NotAChainError:
            with pytest.raises(NotAChainError):
                _probe_all(ArenaChainProbeStrategy, arena, memoize=memoize)
            return
        p2 = _probe_all(ArenaChainProbeStrategy, arena, memoize=memoize)
        assert p1 == p2
        assert c1.snapshot() == c2.snapshot()
        assert tree_snapshot(ptr) == tree_snapshot(arena)

    @pytest.mark.parametrize("seeding", sorted(_GENERAL_SEEDINGS))
    @pytest.mark.parametrize("seed", range(12))
    def test_shadow_leaf_is_always_degenerate(self, seeding, seed):
        # The last suffix meet is the leaf's own pattern (and a singleton
        # filter is its own meet), so no walk ever needs a {ū ⪯ u} pair
        # at the leaf: every shadow chain built must say so.
        _, arena, _, _ = _GENERAL_SEEDINGS[seeding](seed)
        built = _recorded_chains(ArenaGeneralProbeStrategy, arena)
        assert any(state is not None for state in built)
        for state in built:
            if state is not None:
                assert state.deg[-1] is True
                assert state.shandles[-1] == state.ohandles[-1]

    def test_sequences_reach_every_walk_shape(self):
        # The sequence tests above must drive, under both strategies, an
        # empty principal filter, the recursive walk on chains of four
        # levels (not only the unrolled one- and two-level shapes), and
        # in the general strategy a {ū ⪯ u} pair at level 0 of a
        # two-level chain as well as deeper down.
        seen = {"general": [], "chain": []}
        for seeding in _GENERAL_SEEDINGS.values():
            for seed in range(12):
                arena = seeding(seed)[1]
                seen["general"] += _recorded_chains(
                    ArenaGeneralProbeStrategy, arena
                )
        for seeding in _SEEDINGS.values():
            for seed in range(12):
                arena = seeding(seed, chain_safe=True)[1]
                try:
                    seen["chain"] += _recorded_chains(
                        ArenaChainProbeStrategy, arena
                    )
                except NotAChainError:
                    pass
        for states in seen.values():
            assert None in states
            assert max(len(s.nodes) for s in states if s) >= 4
        pairs = [s for s in seen["general"] if s and not all(s.deg)]
        assert any(len(s.nodes) == 2 for s in pairs)
        assert any(len(s.nodes) > 2 for s in pairs)

    def test_chain_raises_not_a_chain(self):
        # Patterns (0, *) and (*, 0) both hold intervals and are
        # incomparable: the principal filter of prefix (0, 0) is not a
        # chain, exactly like the pointer strategy's error case.
        tree = ArenaConstraintTree(3)
        tree.insert(Constraint((0, W), 1, 5))
        tree.insert(Constraint((W, 0), 1, 5))
        strategy = ArenaChainProbeStrategy(tree)
        with pytest.raises(NotAChainError):
            strategy._chain_for((0, 0))

    def test_counting_free_paths_match_counted_rows(self):
        r, s, t, _ = triangle_hard(12)
        q = Query(
            [
                Relation("R", ["A", "B"], r),
                Relation("S", ["B", "C"], s),
                Relation("T", ["A", "C"], t),
            ]
        )
        rows = {}
        for counters in (None, NullCounters()):
            prepared = q.with_gao(["A", "B", "C"], counters=counters)
            engine = Minesweeper(prepared, strategy="general")
            rows[type(counters).__name__] = engine.run()
        assert rows["NoneType"] == rows["NullCounters"]


def _pointer_run(prepared, strategy, memoize=True):
    """Minesweeper over the plain tier's pointer ConstraintTree."""
    cds = ConstraintTree(prepared.n, counters=prepared.counters)
    return Minesweeper(
        prepared, strategy=strategy, memoize=memoize, cds=cds
    ).run()


def _engine_outcome(query, gao, strategy, tier, shards=None, memoize=True):
    """``(rows, op snapshot)`` of one join on the arena (the library's
    run) or the pointer tree (built here, shard by shard when
    ``shards`` is set, the way the sharded executor plans them)."""
    counters = OpCounters()
    if tier == "arena":
        rows = join(
            query, gao=gao, strategy=strategy, counters=counters,
            shards=shards, memoize=memoize,
        ).rows
        return rows, counters.snapshot()
    prepared = query.with_gao(gao, counters)
    if shards is None:
        return _pointer_run(prepared, strategy, memoize), counters.snapshot()
    rows = []
    _, slices = plan_and_slice(prepared.relations, gao[0], shards)
    for relations in slices:
        shard_counters = OpCounters()
        for r in relations:
            r.rebind_counters(shard_counters)
        shard = PreparedQuery(relations, gao, shard_counters)
        rows += _pointer_run(shard, strategy, memoize)
        counters.merge(shard_counters)
    return rows, counters.snapshot()


def _dyadic_outcome(r, s, t, plain):
    """``(rows, op snapshot)`` of the triangle engine: the library's
    arena run, or the plain :class:`TriangleMinesweeper` built here."""
    counters = OpCounters()
    if plain:
        rows = TriangleMinesweeper(r, s, t, counters).run()
    else:
        rows = triangle_join(r, s, t, counters)
    return rows, counters.snapshot()


class TestEngineEquivalence:
    """End-to-end joins: rows and op counts are the same on the arena
    and on the pointer tree built directly."""

    def _triangle_query(self, r, s, t):
        return Query(
            [
                Relation("R", ["A", "B"], r),
                Relation("S", ["B", "C"], s),
                Relation("T", ["A", "C"], t),
            ]
        )

    @pytest.mark.parametrize("n", [8, 16])
    def test_triangle_hard(self, n):
        r, s, t, _ = triangle_hard(n)
        q = self._triangle_query(r, s, t)
        a = _engine_outcome(q, ["A", "B", "C"], "general", "pointer")
        b = _engine_outcome(q, ["A", "B", "C"], "general", "arena")
        assert a == b

    def test_triangle_planted_sharded(self):
        r, s, t = triangle_with_output(60, 15, seed=5)
        q = self._triangle_query(r, s, t)
        a = _engine_outcome(
            q, ["A", "B", "C"], "general", "pointer", shards=3
        )
        b = _engine_outcome(q, ["A", "B", "C"], "general", "arena", shards=3)
        assert a == b

    def test_bowtie_chain(self):
        rng = random.Random(1)
        n = 300
        rv = sorted(rng.sample(range(n), n // 5))
        tv = sorted(rng.sample(range(n), n // 5))
        sv = sorted(
            {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
        )
        q = Query(
            [
                Relation("R", ["X"], [(v,) for v in rv]),
                Relation("S", ["X", "Y"], sv),
                Relation("T", ["Y"], [(v,) for v in tv]),
            ]
        )
        for strategy in ("chain", "general"):
            a = _engine_outcome(q, ["X", "Y"], strategy, "pointer")
            b = _engine_outcome(q, ["X", "Y"], strategy, "arena")
            assert a == b

    def test_memoize_off_ablation(self):
        r, s, t, _ = triangle_hard(8)
        q = self._triangle_query(r, s, t)
        a = _engine_outcome(
            q, ["A", "B", "C"], "general", "pointer", memoize=False
        )
        b = _engine_outcome(
            q, ["A", "B", "C"], "general", "arena", memoize=False
        )
        assert a == b

    def test_merge_intervals_off_pins_pointer(self):
        """The E13 ablation's unmerged lists live in the pointer tree;
        the engine runs over the tree it is handed and answers the
        same."""
        r, s, t, _ = triangle_hard(8)
        q = self._triangle_query(r, s, t)
        prepared = q.with_gao(["A", "B", "C"])
        unmerged = ConstraintTree(
            prepared.n, counters=prepared.counters, merge_intervals=False
        )
        engine = Minesweeper(prepared, cds=unmerged)
        assert engine.cds is unmerged
        assert type(engine.probe) is GeneralProbeStrategy
        assert engine.run() == join(q, gao=["A", "B", "C"]).rows

    @pytest.mark.parametrize("n", [24, 48])
    def test_dyadic_triangle_backends(self, n):
        r, s, t, _ = triangle_hard(n)
        assert _dyadic_outcome(r, s, t, plain=True) == _dyadic_outcome(
            r, s, t, plain=False
        )

    def test_dyadic_triangle_planted(self):
        r, s, t = triangle_with_output(120, 30, seed=5)
        assert _dyadic_outcome(r, s, t, plain=True) == _dyadic_outcome(
            r, s, t, plain=False
        )

    def test_dynamic_live_join_backends(self):
        """A live view (arena, the only tier a view runs on) holds,
        after every batch, exactly the rows the plain tier computes
        from scratch: the pointer ConstraintTree over pointer tries."""
        from repro import dynamic

        schemas, initial, batches = dynamic.triangle_stream(
            n_nodes=12, n_edges=40, n_batches=3, batch_size=5,
            insert_fraction=0.5, seed=3,
        )
        catalog, view = dynamic.build_catalog(schemas, initial)
        for batch in batches:
            catalog.apply_batch(batch)
            plain = Query(
                [
                    Relation.from_index(
                        name, attrs,
                        TrieRelation(
                            catalog.relation(name).index.tuples(),
                            arity=len(attrs),
                        ),
                    )
                    for name, attrs in schemas.items()
                ]
            )
            expected = _pointer_run(plain.with_gao(view.gao), "auto")
            assert sorted(view.rows()) == sorted(expected)

    def test_hash_seed_invariant(self):
        """Probe sequences agree across PYTHONHASHSEEDs and backends."""
        import json
        import os
        import subprocess
        import sys

        program = (
            "import json\n"
            "from repro.core.cds import ConstraintTree\n"
            "from repro.core.engine import join\n"
            "from repro.core.minesweeper import Minesweeper\n"
            "from repro.core.query import Query\n"
            "from repro.storage.relation import Relation\n"
            "from repro.datasets.instances import triangle_hard\n"
            "from repro.util.counters import OpCounters\n"
            "r, s, t, _ = triangle_hard(8)\n"
            "q = Query([Relation('R', ['A', 'B'], r),\n"
            "           Relation('S', ['B', 'C'], s),\n"
            "           Relation('T', ['A', 'C'], t)])\n"
            "out = {}\n"
            "c = OpCounters()\n"
            "out['arena'] = [join(q, gao=['A', 'B', 'C'], counters=c).rows,\n"
            "                c.snapshot()]\n"
            "c = OpCounters()\n"
            "p = q.with_gao(['A', 'B', 'C'], c)\n"
            "rows = Minesweeper(p, cds=ConstraintTree(3, counters=c)).run()\n"
            "out['pointer'] = [rows, c.snapshot()]\n"
            "print(json.dumps(out, sort_keys=True))\n"
        )
        outputs = set()
        for seed in ("0", "7", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in ("src", env.get("PYTHONPATH", "")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(proc.stdout.strip())
        assert len(outputs) == 1
        decoded = json.loads(outputs.pop())
        assert decoded["pointer"] == decoded["arena"]

"""Probe-point search tests (Algorithms 3/4 and 6/7)."""

import random

import pytest

from repro.core.cds import ConstraintTree
from repro.core.constraints import WILDCARD, Constraint
from repro.core.probe_acyclic import ChainProbeStrategy, NotAChainError, sort_as_chain
from repro.core.probe_general import GeneralProbeStrategy
from repro.datasets.instances import example_4_1_constraints
from repro.util.counters import OpCounters
from repro.util.sentinels import NEG_INF, POS_INF

W = WILDCARD


def make_cds(n, constraints, **kwargs):
    cds = ConstraintTree(n, **kwargs)
    for prefix, lo, hi in constraints:
        cds.insert(Constraint(prefix, lo, hi))
    return cds


class TestChainProbe:
    def test_empty_cds_returns_all_minus_one(self):
        cds = ConstraintTree(3)
        probe = ChainProbeStrategy(cds)
        assert probe.get_probe_point() == (-1, -1, -1)

    def test_skips_root_interval(self):
        cds = make_cds(2, [((), NEG_INF, 4)])
        probe = ChainProbeStrategy(cds)
        assert probe.get_probe_point() == (4, -1)

    def test_none_when_fully_covered(self):
        cds = make_cds(1, [((), NEG_INF, POS_INF)])
        probe = ChainProbeStrategy(cds)
        assert probe.get_probe_point() is None

    def test_backtracking_rules_out_dead_prefix(self):
        # value 5 at level 0 has all of level 1 dead; 6 is free
        cds = make_cds(
            2,
            [
                ((), NEG_INF, 5),
                ((5,), NEG_INF, POS_INF),
                ((), 6, POS_INF),
            ],
        )
        probe = ChainProbeStrategy(cds)
        assert probe.get_probe_point() == (6, -1)
        assert cds.counters.backtracks >= 1

    def test_returned_point_is_active(self):
        rng = random.Random(0)
        for _ in range(50):
            constraints = []
            for _ in range(rng.randint(0, 8)):
                depth = rng.randint(0, 2)
                prefix = tuple(
                    rng.choice([W, rng.randint(-1, 5)]) for _ in range(depth)
                )
                lo = rng.randint(-2, 5)
                constraints.append((prefix, lo, lo + rng.randint(1, 4)))
            cds = make_cds(3, constraints)
            try:
                probe = ChainProbeStrategy(cds).get_probe_point()
            except NotAChainError:
                continue  # random patterns need not form chains
            if probe is not None:
                assert not cds.covers_row(probe)

    def test_memoization_inserts_inferred_gaps(self):
        cds = make_cds(
            2,
            [((3,), 0, 5), ((W,), 4, 9), ((), NEG_INF, 3)],
        )
        before = sum(len(node.intervals) for _, node in cds.iter_nodes())
        probe = ChainProbeStrategy(cds, memoize=True)
        probe.get_probe_point()
        after = sum(len(node.intervals) for _, node in cds.iter_nodes())
        assert after >= before

    def test_memoize_off_same_answer(self):
        constraints = [((3,), 0, 5), ((W,), 4, 9), ((), NEG_INF, 3)]
        with_memo = ChainProbeStrategy(make_cds(2, constraints), memoize=True)
        without = ChainProbeStrategy(make_cds(2, constraints), memoize=False)
        assert with_memo.get_probe_point() == without.get_probe_point()


class TestSortAsChain:
    def test_sorts_most_specialized_first(self):
        cds = ConstraintTree(3)
        a = cds.ensure_node((1, 2))
        b = cds.ensure_node((1, W))
        c = cds.ensure_node((W, W))
        chain = sort_as_chain([(c, (W, W)), (a, (1, 2)), (b, (1, W))])
        assert [pat for _, pat in chain] == [(1, 2), (1, W), (W, W)]

    def test_incomparable_raises(self):
        cds = ConstraintTree(3)
        a = cds.ensure_node((1, W))
        b = cds.ensure_node((W, 2))
        with pytest.raises(NotAChainError):
            sort_as_chain([(a, (1, W)), (b, (W, 2))])


class TestGeneralProbe:
    def test_matches_chain_on_chain_filters(self):
        # On a chain filter every shadow is its original, so Algorithm 6
        # runs Algorithm 3: the same probe points and memoized gaps over a
        # whole probe/insert sequence.  Only the interval-op tally
        # differs, by Algorithm 4's entry op per inner nextChainVal call.
        constraints = [
            ((), NEG_INF, 2),
            ((2,), NEG_INF, 7),
            ((W,), 5, 9),
            ((2, 7), 0, 4),
        ]

        class CountingChain(ChainProbeStrategy):
            inner_calls = 0

            def _next_chain_val(self, x, j, chain):
                if j < len(chain) - 1:
                    self.inner_calls += 1
                return super()._next_chain_val(x, j, chain)

        runs = []
        for cls in (CountingChain, GeneralProbeStrategy):
            counters = OpCounters()
            cds = make_cds(3, constraints, counters=counters)
            strategy = cls(cds)
            points = []
            while len(points) < 60:
                t = strategy.get_probe_point()
                if t is None:
                    break
                points.append(t)
                cds.insert(Constraint(t[:-1], t[-1] - 1, t[-1] + 1))
            tree = {
                pattern: node.intervals.intervals()
                for pattern, node in cds.iter_nodes()
            }
            runs.append((strategy, points, tree, counters.snapshot()))
        (chain, c_points, c_tree, c_ops), (_, g_points, g_tree, g_ops) = runs
        assert len(c_points) == 60
        assert c_points == g_points
        assert c_tree == g_tree
        assert chain.inner_calls > 0
        assert c_ops.pop("interval_ops") == (
            g_ops.pop("interval_ops") + chain.inner_calls
        )
        assert c_ops == g_ops

    def test_handles_incomparable_patterns(self):
        # ⟨1,*⟩ and ⟨*,2⟩ are incomparable: needs shadow chains.
        cds = make_cds(
            3,
            [
                ((1, W), NEG_INF, POS_INF),
                ((W, 2), NEG_INF, POS_INF),
                ((), NEG_INF, 1),
                ((W,), NEG_INF, 2),
            ],
        )
        probe = GeneralProbeStrategy(cds)
        point = probe.get_probe_point()
        assert point is not None
        assert not cds.covers_row(point)

    def test_active_points_random(self):
        rng = random.Random(7)
        for _ in range(60):
            constraints = []
            for _ in range(rng.randint(0, 10)):
                depth = rng.randint(0, 2)
                prefix = tuple(
                    rng.choice([W, rng.randint(-1, 5)]) for _ in range(depth)
                )
                lo = rng.randint(-2, 5)
                constraints.append((prefix, lo, lo + rng.randint(1, 4)))
            cds = make_cds(3, constraints)
            point = GeneralProbeStrategy(cds).get_probe_point()
            if point is not None:
                assert not cds.covers_row(point)

    def test_shadow_nodes_created(self):
        cds = make_cds(
            3,
            [
                ((1, W), 0, 5),
                ((W, 2), 0, 5),
            ],
        )
        probe = GeneralProbeStrategy(cds)
        # Build a prefix (1, 2) so both patterns are in the filter.
        cds.insert(Constraint((), NEG_INF, 1))
        cds.insert(Constraint((W,), NEG_INF, 2))
        probe.get_probe_point()
        assert cds.find_node((1, 2)) is not None  # the meet was materialized


class TestExample41:
    """Example 4.1: memoized chain inference turns Θ(n³) into ~O(n²)."""

    def _ops_for(self, n, memoize):
        cds = ConstraintTree(3)
        for prefix, lo, hi in example_4_1_constraints(n):
            cds.insert(Constraint(prefix, lo, hi))
        cds.counters.reset()
        probe = ChainProbeStrategy(cds, memoize=memoize)
        assert probe.get_probe_point() is None  # fully covered
        return cds.counters.interval_ops

    def test_fully_covered(self):
        self._ops_for(6, memoize=True)

    def test_memoization_beats_bruteforce_asymptotically(self):
        n_small, n_big = 6, 12
        memo_growth = self._ops_for(n_big, True) / self._ops_for(n_small, True)
        brute_growth = self._ops_for(n_big, False) / self._ops_for(n_small, False)
        # doubling n: ~4x with memoization vs ~8x without
        assert memo_growth < brute_growth * 0.8

"""The B-gap-guided dyadic walk against the pre-order walk it replaced.

``TriangleMinesweeper._descend`` only visits dyadic nodes whose block
holds ``b_next`` (module docstring, deviation (iii)).  The literal
restart-from-root pre-order walk of Algorithm 10 lives on here, as the
reference: both CDS backends must return the very same probe points,
and must do so in O(depth) node visits per probe — which the reference
itself does not.
"""

import random

import pytest

from repro.core.triangle import TriangleMinesweeper, _next_union
from repro.core.triangle_arena import ArenaTriangleMinesweeper
from repro.datasets.instances import triangle_hard, triangle_with_output
from repro.util.counters import OpCounters
from repro.util.sentinels import POS_INF

BACKENDS = (TriangleMinesweeper, ArenaTriangleMinesweeper)


class PreOrderWalk(TriangleMinesweeper):
    """Algorithm 10's walk, re-entered at the root on every probe."""

    def _descend(self, a, b_next, n_b, n_c):
        depth = self.dyadic.depth
        heap = 1
        while True:
            level = heap.bit_length() - 1
            index = heap - (1 << level)
            eq_a = self.i_eq_a.get(a)
            if level < depth or not (
                index >= n_b
                or self.i_star_b.covers(index)
                or (eq_a is not None and eq_a.covers(index))
            ):
                c = max(self._get_cache(a, level, index), 0)
                first = self.i_eq_a_star.get(a)
                second = self.dyadic._heap[heap]
                if first is None:
                    first, second = second, None
                if first is not None:
                    c = _next_union(first, second, c, self.counters)
                if c is not POS_INF and c < n_c:
                    self._set_cache(a, level, index, c)
                    if level == depth:
                        return (a, index, c)
                    heap <<= 1
                    continue
                # Dead block: record its B-gap for this a.
                self._set_cache(a, level, index, n_c)
                block = 1 << (depth - level)
                hi = (index + 1) * block
                self._eq_a_list(a).insert(hi - block - 1, hi)
                self.counters.interval_ops += 1
            # Next node in pre-order: flip the last 0 bit, drop the tail.
            while heap & 1:
                heap >>= 1
            if not heap:
                return None
            heap += 1


NAMED = {
    **{f"hard-{n}": triangle_hard(n)[:3] for n in (5, 8, 13, 32)},
    **{
        f"planted-{n}": triangle_with_output(n, k, seed=seed)
        for n, k, seed in ((12, 6, 3), (40, 10, 1), (100, 25, 5), (300, 75, 5))
    },
}


def random_instance(seed):
    """Domain 1–13, 0–40 edges per relation (some empty, some n_b = 1)."""
    rng = random.Random(seed)
    domain = rng.randint(1, 13)
    return tuple(
        sorted(
            {
                (rng.randrange(domain), rng.randrange(domain))
                for _ in range(rng.randint(0, 40))
            }
        )
        for _ in range(3)
    )


def naive_triangles(r_edges, s_edges, t_edges):
    s_by_b = {}
    for b, c in s_edges:
        s_by_b.setdefault(b, []).append(c)
    t_set = set(t_edges)
    return sorted(
        {
            (a, b, c)
            for a, b in r_edges
            for c in s_by_b.get(b, ())
            if (a, c) in t_set
        }
    )


def traced_run(cls, instance):
    """(engine, probe points in order, rows) of one counted run."""
    engine = cls(*instance, OpCounters())
    probes = []
    get_probe_point = engine.get_probe_point

    def recording():
        probe = get_probe_point()
        probes.append(probe)
        return probe

    engine.get_probe_point = recording
    return engine, probes, engine.run()


def assert_same_walk(instance, label):
    """Both backends against the reference; returns the reference engine
    followed by the two backends' (all finished, counters readable)."""
    reference, want_probes, want_rows = traced_run(PreOrderWalk, instance)
    assert want_rows == naive_triangles(*instance), label
    want = reference.counters
    engines = [reference]
    for cls in BACKENDS:
        where = f"{label} {cls.__name__}"
        engine, probes, rows = traced_run(cls, instance)
        assert probes == want_probes, where
        assert rows == want_rows, where
        got = engine.counters
        for field in ("findgap", "probes", "output_tuples"):
            assert getattr(got, field) == getattr(want, field), (where, field)
        engine.dyadic.check_invariant()
        engines.append(engine)
    return engines


def visits_and_bound(engine):
    """(node visits, 2·(depth + 1)·probes) of a finished run."""
    counters = engine.counters
    return (
        counters.cache_hits + counters.cache_misses,
        2 * (engine.dyadic.depth + 1) * counters.probes,
    )


class TestWalkEquivalence:
    @pytest.mark.parametrize("name", sorted(NAMED))
    def test_named_instances(self, name):
        """Same probes as the reference, in O(depth) node visits each —
        which the reference, re-crossing dead ground, does not manage
        once the B domain is large.  (Tiny random instances are left out
        of the bound: they can spend visits on a's that yield no probe.)"""
        reference, *engines = assert_same_walk(NAMED[name], name)
        for engine in engines:
            visits, bound = visits_and_bound(engine)
            who = type(engine).__name__
            assert visits <= bound, (name, who, visits, bound)
        if name in ("planted-40", "planted-100", "planted-300"):
            visits, bound = visits_and_bound(reference)
            assert visits > bound, (name, "bound has no teeth", visits, bound)

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_instances(self, chunk):
        for seed in range(chunk * 60, (chunk + 1) * 60):
            assert_same_walk(random_instance(seed), f"seed={seed}")

    def test_random_instances_reach_the_corners(self):
        instances = [random_instance(seed) for seed in range(240)]
        assert any(not rel for inst in instances for rel in inst)
        assert any(
            len({b for _, b in r} | {b for b, _ in s}) == 1
            for r, s, _ in instances
        )

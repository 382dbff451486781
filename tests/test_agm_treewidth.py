"""AGM bound + exact treewidth tests (paper §6 machinery)."""

import math
import random
from fractions import Fraction

import pytest

from repro.core.engine import join
from repro.core.query import Query, naive_join
from repro.hypergraph.agm import (
    agm_bound,
    edge_cover_lp,
    fractional_cover_number,
    fractional_edge_cover,
    solve_cover_lp,
)
from repro.hypergraph.elimination import elimination_width, min_fill_order
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.treewidth_exact import (
    best_elimination_order_bruteforce,
    exact_treewidth,
)
from repro.storage.relation import Relation

TRIANGLE = Hypergraph({"R": ["A", "B"], "S": ["B", "C"], "T": ["A", "C"]})
PATH = Hypergraph({"R": ["A", "B"], "S": ["B", "C"], "T": ["C", "D"]})
FOUR_CYCLE = Hypergraph(
    {"R": ["A", "B"], "S": ["B", "C"], "T": ["C", "D"], "U": ["D", "A"]}
)


class TestFractionalCover:
    def test_triangle_rho_three_halves(self):
        assert abs(fractional_cover_number(TRIANGLE) - 1.5) < 1e-6

    def test_four_cycle_rho_two(self):
        assert abs(fractional_cover_number(FOUR_CYCLE) - 2.0) < 1e-6

    def test_path_rho_two(self):
        # edges RB and CD cover everything: integral cover of size 2
        assert abs(fractional_cover_number(PATH) - 2.0) < 1e-6

    def test_single_edge(self):
        h = Hypergraph({"R": ["A", "B", "C"]})
        assert abs(fractional_cover_number(h) - 1.0) < 1e-6

    def test_cover_is_feasible(self):
        cover = fractional_edge_cover(TRIANGLE)
        for v in TRIANGLE.vertices:
            total = sum(
                x for name, x in cover.items() if v in TRIANGLE.edge(name)
            )
            assert total >= 1 - 1e-9

    def test_weighted_cover_prefers_small_edges(self):
        h = Hypergraph({"BIG": ["A", "B"], "S1": ["A"], "S2": ["B"]})
        cover = fractional_edge_cover(
            h, weights={"BIG": 100.0, "S1": 1.0, "S2": 1.0}
        )
        assert cover["BIG"] < 1e-6
        assert cover["S1"] > 0.99 and cover["S2"] > 0.99


def _loomis_whitney(n):
    vertices = [f"v{i}" for i in range(n)]
    return Hypergraph(
        {f"e{i}": vertices[:i] + vertices[i + 1:] for i in range(n)}
    )


def _random_weighted_hypergraph(rng):
    """A hypergraph with up to 8 edges over up to 7 vertices and costs
    drawn to hit the kernel's corner cases: zero costs (|R| = 1), many
    ties (small integers as floats) and generic log-sizes."""
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    edges = {
        f"e{i}": rng.sample(vertices, rng.randint(1, min(4, len(vertices))))
        for i in range(rng.randint(1, 8))
    }
    # Every vertex must sit in some edge, as in a query hypergraph.
    for v in vertices:
        if not any(v in vs for vs in edges.values()):
            edges[rng.choice(sorted(edges))].append(v)
    draw = rng.choice(
        [
            lambda: math.log(rng.randint(1, 50)),
            lambda: float(rng.randint(0, 2)),
            lambda: rng.uniform(0.0, 10.0),
        ]
    )
    return Hypergraph(edges), {name: draw() for name in edges}


def _assert_certificate(hypergraph, weights, solution, tol):
    """Primal feasibility, dual feasibility and a closed duality gap,
    checked here independently of the kernel's own check."""
    cover, packing, value = solution
    assert all(x >= -tol for x in cover.values())
    assert all(y >= -tol for y in packing.values())
    for v in hypergraph.vertices:
        assert sum(cover[e] for e in hypergraph.edges_containing(v)) >= 1 - tol
    for name in hypergraph.edge_names():
        assert sum(packing[v] for v in hypergraph.edge(name)) <= (
            weights[name] + tol
        )
    assert abs(sum(weights[e] * x for e, x in cover.items()) - value) <= tol
    assert abs(sum(packing.values()) - value) <= tol


class TestCoverLpKernel:
    @pytest.mark.parametrize(
        "hypergraph, expected",
        [
            (TRIANGLE, Fraction(3, 2)),
            (FOUR_CYCLE, Fraction(2)),
            (PATH, Fraction(2)),
            (Hypergraph({"R": ["A", "B", "C"]}), Fraction(1)),
            (Hypergraph({f"R{i}": ["hub", f"leaf{i}"] for i in range(5)}),
             Fraction(5)),
        ]
        + [(_loomis_whitney(n), Fraction(n, n - 1)) for n in range(3, 7)],
    )
    def test_exact_rho_star(self, hypergraph, expected):
        solution = edge_cover_lp(hypergraph)
        assert solution.value == expected
        assert isinstance(solution.value, Fraction)
        unit = dict.fromkeys(hypergraph.edge_names(), 1)
        _assert_certificate(hypergraph, unit, solution, tol=0)

    def test_zero_cost_edges_terminate(self):
        # |R| = 1 gives log 1 = 0: every packing row of such an edge is
        # degenerate from the first pivot on.
        weights = {"R": 0.0, "S": 0.0, "T": math.log(7), "U": 0.0}
        solution = edge_cover_lp(FOUR_CYCLE, weights)
        assert solution.value == 0.0
        _assert_certificate(FOUR_CYCLE, weights, solution, tol=1e-9)

    def test_fully_degenerate_ties_terminate(self):
        # All costs zero, all rows tied at ratio 0 in every pivot.
        for h in (TRIANGLE, FOUR_CYCLE, _loomis_whitney(6)):
            for zero in (0, 0.0):
                weights = dict.fromkeys(h.edge_names(), zero)
                solution = edge_cover_lp(h, weights)
                assert solution.value == 0
                _assert_certificate(h, weights, solution, tol=0)

    def test_uncovered_vertex_is_named(self):
        with pytest.raises(RuntimeError, match="'orphan'"):
            solve_cover_lp(
                {"R": 1, "S": 1},
                {"A": ["R"], "orphan": [], "B": ["R", "S"]},
            )

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="'R'"):
            edge_cover_lp(TRIANGLE, {"R": -1.0, "S": 1.0, "T": 1.0})

    def test_random_optima_carry_their_certificate(self):
        rng = random.Random(20260928)
        for _ in range(300):
            hypergraph, weights = _random_weighted_hypergraph(rng)
            solution = edge_cover_lp(hypergraph, weights)
            _assert_certificate(hypergraph, weights, solution, tol=1e-9)

    def test_objective_matches_scipy_linprog(self):
        # scipy is a test oracle only; the runtime never imports it.
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(7)
        for _ in range(200):
            hypergraph, weights = _random_weighted_hypergraph(rng)
            names = hypergraph.edge_names()
            reference = linprog(
                c=[weights[name] for name in names],
                A_ub=[
                    [-1.0 if v in hypergraph.edge(name) else 0.0
                     for name in names]
                    for v in sorted(hypergraph.vertices)
                ],
                b_ub=[-1.0] * len(hypergraph.vertices),
                bounds=[(0, None)] * len(names),
                method="highs",
            )
            assert reference.success
            ours = edge_cover_lp(hypergraph, weights).value
            assert abs(ours - reference.fun) <= 1e-9 * max(1.0, reference.fun)


class TestAgmBound:
    def _triangle_query(self, r, s, t):
        return Query(
            [
                Relation("R", ["A", "B"], r),
                Relation("S", ["B", "C"], s),
                Relation("T", ["A", "C"], t),
            ]
        )

    def test_triangle_bound_value(self):
        n = 16
        rows = [(i, j) for i in range(4) for j in range(4)]
        q = self._triangle_query(rows, rows, rows)
        assert abs(agm_bound(q) - n**1.5) / n**1.5 < 1e-6

    def test_output_never_exceeds_bound_random(self):
        rng = random.Random(0)
        for _ in range(30):
            def edges():
                return list(
                    {
                        (rng.randint(0, 5), rng.randint(0, 5))
                        for _ in range(rng.randint(1, 12))
                    }
                )

            q = self._triangle_query(edges(), edges(), edges())
            z = len(naive_join(q, ["A", "B", "C"]))
            assert z <= agm_bound(q) + 1e-6

    def test_minesweeper_output_respects_bound(self):
        rng = random.Random(1)
        rows_r = {(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(25)}
        rows_s = {(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(25)}
        q = Query(
            [
                Relation("R", ["A", "B"], rows_r),
                Relation("S", ["B", "C"], rows_s),
            ]
        )
        res = join(q, gao=["A", "B", "C"])
        assert len(res) <= agm_bound(q) + 1e-6

    def test_empty_relation_bound_zero(self):
        q = Query(
            [
                Relation("R", ["A"], [(1,)]),
                Relation("S", ["A", "B"], []),
            ]
        )
        assert agm_bound(q) == 0.0


class TestExactTreewidth:
    def test_known_values(self):
        assert exact_treewidth(PATH) == 1
        assert exact_treewidth(TRIANGLE) == 2
        assert exact_treewidth(FOUR_CYCLE) == 2

    def test_clique(self):
        for k in (3, 4, 5):
            clique = Hypergraph(
                {
                    f"R{i}{j}": [f"v{i}", f"v{j}"]
                    for i in range(k)
                    for j in range(i + 1, k)
                }
            )
            assert exact_treewidth(clique) == k - 1

    def test_tree_width_one(self):
        star = Hypergraph({f"R{i}": ["center", f"leaf{i}"] for i in range(5)})
        assert exact_treewidth(star) == 1

    def test_size_limit(self):
        big = Hypergraph({f"R{i}": [f"v{i}", f"v{i + 1}"] for i in range(20)})
        with pytest.raises(ValueError):
            exact_treewidth(big, max_vertices=16)

    def test_agrees_with_bruteforce_random(self):
        rng = random.Random(4)
        for _ in range(15):
            n_vertices = rng.randint(2, 6)
            vertices = [f"v{i}" for i in range(n_vertices)]
            edges = {}
            for i in range(rng.randint(1, 6)):
                size = rng.randint(1, min(3, n_vertices))
                edges[f"e{i}"] = rng.sample(vertices, size)
            h = Hypergraph(edges)
            _, brute = best_elimination_order_bruteforce(h)
            assert exact_treewidth(h) == brute

    def test_min_fill_heuristic_quality(self):
        """min-fill matches the exact treewidth on these families."""
        for h in (PATH, TRIANGLE, FOUR_CYCLE):
            heuristic = elimination_width(h, min_fill_order(h))
            assert heuristic == exact_treewidth(h)

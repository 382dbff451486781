"""Fractional edge covers and the AGM output-size bound (paper §6).

The worst-case-optimal baselines (NPRR / LFTJ) are optimal with respect
to the Atserias–Grohe–Marx bound: |Q(I)| <= Π_R |R|^{x_R} for any
fractional edge cover x of the query hypergraph.  The paper's §6 and §7
("Fractional Covers") discuss how these covers relate to certificate
bounds — e.g. the triangle result Õ(|C|^{3/2}) mirrors the triangle's
fractional cover number 3/2.

This module computes

* :func:`solve_cover_lp` — the covering LP and its packing dual, by an
  in-tree simplex kernel (standard library only: every process that
  plans a query runs this, so it must cost no third-party import),
* :func:`fractional_edge_cover` — the optimal cover of a hypergraph,
* :func:`fractional_cover_number` — ρ*(H), its value with unit weights,
* :func:`agm_bound` — the AGM output-size bound for an instance,

and is used by tests to check every engine's output against the bound
and to recover the classic ρ* values (triangle 3/2, 4-cycle 2, ...).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Collection, Dict, List, Mapping, NamedTuple, Optional, Union

from repro.hypergraph.hypergraph import Hypergraph

Number = Union[int, float, Fraction]

#: Float pivots treat magnitudes below this as zero; exact (int /
#: Fraction) solves use 0.  Query LPs have 0/1 matrices and costs of at
#: most log|R|, so entries stay within a few orders of magnitude of 1.
_FLOAT_EPS = 1e-12

#: Slack allowed when a float optimum is checked against its
#: certificate (feasibility of both sides and the duality gap).
_FLOAT_TOL = 1e-9

#: Bland's rule cannot cycle in exact arithmetic; rounding voids the
#: proof, so a float solve that is still pivoting after this many steps
#: fails loudly instead of holding its caller's lock forever.  Query
#: LPs finish in at most a few dozen pivots.
_MAX_PIVOTS = 10_000


class CoverLP(NamedTuple):
    """An optimal fractional edge cover with the proof it is optimal.

    ``cover`` (x, per edge) is feasible for the covering LP,
    ``packing`` (y, per vertex) is feasible for its dual, and
    ``value`` = c·x equals 1·y: by strong duality no cover is cheaper.
    """

    cover: Dict[str, Number]
    packing: Dict[str, Number]
    value: Number


def solve_cover_lp(
    costs: Mapping[str, Number],
    members: Mapping[str, Collection[str]],
) -> CoverLP:
    """Solve min Σ_e c_e·x_e s.t. Σ_{e ∈ members[v]} x_e >= 1, x >= 0.

    ``costs`` maps each edge to its cost c_e >= 0; ``members`` maps each
    vertex to the edges containing it.  The dual — fractional vertex
    packing, max Σ_v y_v s.t. Σ_{v ∈ e} y_v <= c_e, y >= 0 — is
    feasible at the origin because c >= 0, so a dense-tableau simplex
    starts there with no phase one; Bland's rule (lowest index enters,
    lowest basic index breaks ratio ties) rules out cycling on the
    degenerate rows zero costs produce.  The final objective row holds
    the primal cover, the basis the packing.

    int / Fraction costs are solved exactly; any float cost switches
    the whole solve to floats.  Either way the optimum is checked
    against its own certificate before it is returned, so a wrong
    answer raises instead of reaching a caller.
    """
    edges = list(costs)
    vertices = list(members)
    exact = not any(isinstance(costs[e], float) for e in edges)
    eps = 0 if exact else _FLOAT_EPS
    for e in edges:
        if costs[e] < 0:
            raise ValueError(
                f"edge {e!r} has negative cost {costs[e]!r}; the cover "
                "LP needs c >= 0"
            )
    for v in vertices:
        if not members[v]:
            raise RuntimeError(
                f"edge-cover LP infeasible: vertex {v!r} is in no edge"
            )
    n_dual, n_rows = len(vertices), len(edges)
    one: Number = Fraction(1) if exact else 1.0
    zero: Number = Fraction(0) if exact else 0.0
    # Row j is the packing constraint of edge j:
    #   Σ_{v ∈ e_j} y_v + s_j = c_j      columns: y | s | rhs
    rows: List[List[Number]] = []
    for j, e in enumerate(edges):
        row = [one if e in members[v] else zero for v in vertices]
        row += [one if k == j else zero for k in range(n_rows)]
        row.append(one * costs[e])
        rows.append(row)
    objective: List[Number] = [-one] * n_dual + [zero] * (n_rows + 1)
    basis = [n_dual + j for j in range(n_rows)]
    for _ in range(_MAX_PIVOTS):
        col = next(
            (k for k in range(n_dual + n_rows) if objective[k] < -eps), None
        )
        if col is None:
            break
        candidates = [r for r in range(n_rows) if rows[r][col] > eps]
        if not candidates:
            raise RuntimeError("edge-cover LP infeasible: packing unbounded")
        pivot = min(
            candidates,
            key=lambda r: (rows[r][-1] / rows[r][col], basis[r]),
        )
        scale = rows[pivot][col]
        pivot_row = rows[pivot] = [entry / scale for entry in rows[pivot]]
        live = [(k, entry) for k, entry in enumerate(pivot_row) if entry]
        for target in rows + [objective]:
            factor = target[col]
            if factor and target is not pivot_row:
                for k, entry in live:
                    target[k] -= factor * entry
        basis[pivot] = col
    else:
        raise RuntimeError(
            f"edge-cover LP still pivoting after {_MAX_PIVOTS} steps"
        )
    packing: Dict[str, Number] = dict.fromkeys(vertices, zero)
    for r, k in enumerate(basis):
        if k < n_dual:
            packing[vertices[k]] = max(rows[r][-1], zero)
    cover: Dict[str, Number] = {
        e: max(objective[n_dual + j], zero) for j, e in enumerate(edges)
    }
    value = sum((costs[e] * x for e, x in cover.items()), zero)
    solution = CoverLP(cover, packing, value)
    _check_certificate(costs, members, solution, 0 if exact else _FLOAT_TOL)
    return solution


def _check_certificate(
    costs: Mapping[str, Number],
    members: Mapping[str, Collection[str]],
    solution: CoverLP,
    tol: Number,
) -> None:
    """Raise unless ``solution`` proves its own optimality (within
    ``tol``): x covers every vertex, y packs within every edge's cost,
    and the two objective values meet."""
    cover, packing, value = solution
    load: Dict[str, Number] = dict.fromkeys(costs, 0)
    for v, containing in members.items():
        if sum(cover[e] for e in containing) < 1 - tol:
            raise RuntimeError(f"edge-cover LP: vertex {v!r} left uncovered")
        for e in containing:
            load[e] += packing[v]
    for e, cost in costs.items():
        if load[e] > cost + tol:
            raise RuntimeError(f"edge-cover LP: packing overloads edge {e!r}")
    packed = sum(packing.values())
    if abs(value - packed) > tol * max(1, abs(value)):
        raise RuntimeError(
            f"edge-cover LP: duality gap, cover costs {value!r} but the "
            f"packing proves only {packed!r}"
        )


def edge_cover_lp(
    hypergraph: Hypergraph,
    weights: Optional[Mapping[str, Number]] = None,
) -> CoverLP:
    """The cover LP of ``hypergraph``: unit costs (exact, in
    Fractions) unless ``weights`` gives one cost per edge."""
    costs: Dict[str, Number] = {
        name: weights[name] if weights is not None else 1
        for name in hypergraph.edge_names()
    }
    members = {
        v: hypergraph.edges_containing(v)
        for v in sorted(hypergraph.vertices)
    }
    return solve_cover_lp(costs, members)


def fractional_edge_cover(
    hypergraph: Hypergraph,
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, float]:
    """Solve min Σ_R w_R·x_R s.t. Σ_{R ∋ v} x_R >= 1, x >= 0.

    ``weights`` defaults to 1 for every edge (the cover number LP); for
    the AGM bound pass log|R| weights.
    """
    cover = edge_cover_lp(hypergraph, weights).cover
    return {name: float(x) for name, x in cover.items()}


def fractional_cover_number(hypergraph: Hypergraph) -> float:
    """ρ*(H): the optimal fractional edge cover value with unit weights."""
    return float(edge_cover_lp(hypergraph).value)


def agm_bound(query) -> float:
    """The AGM bound Π_R |R|^{x_R} minimized over fractional covers.

    ``query`` is a :class:`repro.core.query.Query`; empty relations give
    bound 0.  Uses log-weights so the LP directly minimizes the bound.
    """
    sizes = {r.name: len(r) for r in query.relations}
    if any(size == 0 for size in sizes.values()):
        return 0.0
    weights = {name: math.log(size) for name, size in sizes.items()}
    return math.exp(edge_cover_lp(query.hypergraph(), weights).value)

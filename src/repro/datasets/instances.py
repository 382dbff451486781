"""The paper's instance families, with their analytic certificate sizes.

Every example and lower-bound construction in the paper that we benchmark
is generated here, parameterized by scale, together with what the paper
says about it (optimal certificate size, expected output) so tests and
benchmarks can assert the *shape* of each claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.query import Query
from repro.storage.relation import Relation

Row = Tuple[int, ...]


@dataclass
class PaperInstance:
    """A generated instance plus the paper's analytic facts about it."""

    name: str
    query: Query
    gao: List[str]
    #: Asymptotic optimal-certificate size for this GAO (paper-stated).
    certificate_size: int
    #: Expected number of output tuples (None = unspecified).
    output_size: Optional[int] = None
    notes: str = ""
    metadata: Dict[str, int] = field(default_factory=dict)


# ----------------------------------------------------------------------
# Section 2 / Appendix B examples
# ----------------------------------------------------------------------


def example_2_1(n: int) -> PaperInstance:
    """Example 2.1: R(A) ⋈ T(A, B) with two certified groups of outputs."""
    r_rows = [(i,) for i in range(1, n + 1)]
    t_rows = [(1, 2 * i) for i in range(1, n + 1)] + [
        (2, 3 * i) for i in range(1, n + 1)
    ]
    query = Query(
        [
            Relation("R", ["A"], r_rows),
            Relation("T", ["A", "B"], t_rows),
        ]
    )
    return PaperInstance(
        name="example_2_1",
        query=query,
        gao=["A", "B"],
        certificate_size=2,
        output_size=2 * n,
        notes="{R[1]=T[1], R[2]=T[2]} certifies 2n outputs",
    )


def constant_certificate_empty(n: int) -> PaperInstance:
    """Example B.1: disjoint ranges; O(1) certificate, empty output."""
    query = Query(
        [
            Relation("R", ["A"], [(i,) for i in range(1, n + 1)]),
            Relation(
                "S", ["A", "B"], [(n + 1, i + n) for i in range(1, n + 1)]
            ),
        ]
    )
    return PaperInstance(
        name="B1_constant_empty",
        query=query,
        gao=["A", "B"],
        certificate_size=1,
        output_size=0,
        notes="{R[N] < S[1]} certifies emptiness",
    )


def constant_certificate_large_output(n: int) -> PaperInstance:
    """Example B.2: |C| = 1 while Z = n (certificate ≪ output)."""
    query = Query(
        [
            Relation("R", ["A"], [(i,) for i in range(1, n + 1)]),
            Relation("S", ["A", "B"], [(n, 10 * i) for i in range(1, n + 1)]),
        ]
    )
    return PaperInstance(
        name="B2_constant_large_output",
        query=query,
        gao=["A", "B"],
        certificate_size=1,
        output_size=n,
        notes="{R[N] = S[1]} certifies n outputs",
    )


def interleaved_parity(n: int, gao: Sequence[str] = ("A", "B", "C")) -> PaperInstance:
    """Examples B.3 / B.4: R(A,C) ⋈ S(B,C) with even/odd C columns.

    Under GAO (A, B, C) the optimal certificate is Θ(N²) = Θ(n²) (needs
    same-relation equalities); under (C, A, B) — a nested elimination
    order — it is Θ(n).
    """
    r_rows = [(a, 2 * k) for a in range(1, n + 1) for k in range(1, n + 1)]
    s_rows = [
        (b, 2 * k - 1) for b in range(1, n + 1) for k in range(1, n + 1)
    ]
    query = Query(
        [
            Relation("R", ["A", "C"], r_rows),
            Relation("S", ["B", "C"], s_rows),
        ]
    )
    gao = list(gao)
    cert = 2 * n * (n - 1) + 2 * n if gao[0] != "C" else 2 * n
    return PaperInstance(
        name="B3_B4_interleaved_parity",
        query=query,
        gao=gao,
        certificate_size=cert,
        output_size=0,
        notes="GAO flip changes |C| from Θ(n²) to Θ(n)",
        metadata={"n": n},
    )


def private_attribute_flip(n: int, gao: Sequence[str] = ("A", "B")) -> PaperInstance:
    """Example B.6: R(A,B) ⋈ S(A,B); |C| is O(1) for (A,B), Ω(n) for (B,A)."""
    query = Query(
        [
            Relation("R", ["A", "B"], [(i, i) for i in range(1, n + 1)]),
            Relation("S", ["A", "B"], [(n + i, i) for i in range(1, n + 1)]),
        ]
    )
    gao = list(gao)
    cert = 1 if gao == ["A", "B"] else n
    return PaperInstance(
        name="B6_gao_data_dependence",
        query=query,
        gao=gao,
        certificate_size=cert,
        output_size=0,
        notes="R[N] < S[1] under (A,B); needs n comparisons under (B,A)",
    )


def neo_with_large_certificate(n: int, gao: Sequence[str] = ("A", "B", "C")) -> PaperInstance:
    """Example B.7: a nested elimination order can have the *larger* |C|.

    Q = R(A,B,C) ⋈ S(A,C) ⋈ T(B,C) is beta-acyclic with NEO (C,A,B); but
    on this data the non-NEO order (A,B,C) admits a one-comparison
    emptiness certificate (R's A-values all precede S's), while (C,A,B)
    needs Ω(n) comparisons.  The GAO choice is data-dependent — exactly
    why :func:`repro.core.gao_search.search_gao` measures instead of
    relying on structure alone.
    """
    query = Query(
        [
            Relation("R", ["A", "B", "C"], [(i, i, i) for i in range(1, n + 1)]),
            Relation("S", ["A", "C"], [(n + i, i) for i in range(1, n + 1)]),
            Relation("T", ["B", "C"], [(i, i) for i in range(1, n + 1)]),
        ]
    )
    gao = list(gao)
    cert = 1 if gao[0] == "A" else n
    return PaperInstance(
        name="B7_neo_large_certificate",
        query=query,
        gao=gao,
        certificate_size=cert,
        output_size=0,
        notes="|C(A,B,C)| = 1 while |C(C,A,B)| = Ω(n) despite the NEO",
    )


# ----------------------------------------------------------------------
# Appendix J: the worst-case-optimal counterexample family
# ----------------------------------------------------------------------


def appendix_j_path(m: int, block: int) -> PaperInstance:
    """The chunked path query Q = ⋈_{i=1..m} R_i(A_i, A_{i+1}).

    Each relation has m blocks of size ``block``²; relation i keeps only a
    single tuple in its own block i and drops block i-1 entirely, hiding
    an O(m·block) emptiness certificate that Yannakakis / LFTJ / NPRR all
    miss (they do Ω(m·block²) work).  Output is empty.
    """
    if m < 3:
        raise ValueError("the family needs m >= 3 relations")
    relations: List[Relation] = []
    for i in range(1, m + 1):
        rows: List[Row] = []
        for j in range(1, m + 1):
            base = (j - 1) * block
            if j == i:
                rows.append((base + 1, base + 1))
            elif j == (i - 1) or (i == 1 and j == m):
                continue  # the empty chunk
            else:
                rows.extend(
                    (base + x, base + y)
                    for x in range(2, block + 1)
                    for y in range(2, block + 1)
                )
        relations.append(
            Relation(f"R{i}", [f"A{i}", f"A{i + 1}"], rows)
        )
    query = Query(relations)
    gao = [f"A{i}" for i in range(1, m + 2)]
    return PaperInstance(
        name="appendixJ_path",
        query=query,
        gao=gao,
        certificate_size=m * block,
        output_size=0,
        notes="Minesweeper Õ(m·M); Yannakakis/LFTJ/NPRR Ω(m·M²)",
        metadata={"m": m, "block": block},
    )


# ----------------------------------------------------------------------
# Proposition 5.3: the treewidth-w lower-bound family
# ----------------------------------------------------------------------


def prop_5_3(w: int, m: int) -> PaperInstance:
    """Q_w = (⋈_{i<j} R_ij(v_i, v_j)) ⋈ U(v_1..v_{w+1}) hard instance.

    |C| = O(w·m) yet Minesweeper explores Ω(m^w) prefixes under any GAO.
    The U relation is the full grid [m]^{w+1}; R_{i,w+1} pins the last
    attribute to 1 for i < w and to 2 for i = w, so the output is empty.
    """
    k = w + 1
    attrs = [f"v{i}" for i in range(1, k + 1)]
    relations: List[Relation] = []
    grid2 = [(x, y) for x in range(1, m + 1) for y in range(1, m + 1)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            name = f"R{i}_{j}"
            if j < k:
                rows = grid2
            elif i < w:
                rows = [(x, 1) for x in range(1, m + 1)]
            else:
                rows = [(x, 2) for x in range(1, m + 1)]
            relations.append(Relation(name, [f"v{i}", f"v{j}"], rows))

    u_rows = _grid(m, k)
    relations.append(Relation("U", attrs, u_rows))
    query = Query(relations)
    return PaperInstance(
        name="prop_5_3",
        query=query,
        gao=attrs,
        certificate_size=w * m,
        output_size=0,
        notes="Minesweeper Ω(m^w) on a treewidth-w alpha-acyclic query",
        metadata={"w": w, "m": m},
    )


def _grid(m: int, k: int) -> List[Row]:
    rows: List[Row] = [()]
    for _ in range(k):
        rows = [r + (x,) for r in rows for x in range(1, m + 1)]
    return rows


# ----------------------------------------------------------------------
# Proposition 2.8 / Appendix F.3: beta-cyclic hardness (4-cycle query)
# ----------------------------------------------------------------------


def beta_cyclic_cycle(c: int, n: int) -> PaperInstance:
    """The c-cycle query ⋈ R_i(A_i, A_{i+1 mod c}) with parity interleaving.

    Simulates the role of the 3SUM-hard instances of Prop 2.8 / App. F.3:
    the first c-2 hops are complete bipartite (every prefix is alive), the
    last forward hop admits only even A_{c-1} values, and the closing
    relation only odd ones — so the join is empty, but certifying each
    "live" (a_0, a_{c-2}) pair requires walking an interleave of Θ(n)
    gaps that is specific to that pair.  |C| = Θ(N) (the identical rows
    are tied with same-relation equalities, Example B.3 style), while
    Minesweeper's probe search pays ω(|C|) — the measured counterpart of
    "no O(|C|^{4/3-ε} + Z) algorithm exists for beta-cyclic queries".

    Note: our shadow-chain backtracker dismisses a (a_0, a_{c-2}) pair for
    *all* middle values at once (a meet-pattern constraint), so product-
    structured families collapse to Õ(|C|); the pairwise interleave here
    is what resists that collapse.
    """
    if c < 3:
        raise ValueError("cycle length must be >= 3")
    grid = [(x, y) for x in range(n) for y in range(n)]
    relations: List[Relation] = []
    for i in range(c - 2):
        relations.append(
            Relation(f"R{i}", [f"A{i}", f"A{i + 1}"], grid)
        )
    evens = [(x, 2 * j) for x in range(n) for j in range(1, n + 1)]
    relations.append(
        Relation(f"R{c - 2}", [f"A{c - 2}", f"A{c - 1}"], evens)
    )
    odds = [(x, 2 * j + 1) for x in range(n) for j in range(1, n + 1)]
    # The closing relation R_{c-1}(A_{c-1}, A_0) is indexed GAO-consistently
    # as (A_0, A_{c-1}): odd A_{c-1} values under every A_0.
    relations.append(Relation(f"R{c - 1}", [f"A0", f"A{c - 1}"], odds))
    query = Query(relations)
    return PaperInstance(
        name="beta_cyclic_cycle",
        query=query,
        gao=[f"A{i}" for i in range(c)],
        certificate_size=query.total_tuples(),
        output_size=0,
        notes="beta-cyclic; no O(|C|^{4/3-eps}+Z) algorithm (Prop 2.8)",
        metadata={"c": c, "n": n},
    )


# ----------------------------------------------------------------------
# Triangle hard family (Appendix L motivation)
# ----------------------------------------------------------------------


def triangle_hard(n: int) -> Tuple[List[Row], List[Row], List[Row], int]:
    """R complete, S hits even C values, T hits odd C values.

    Output empty; |C| = Θ(n²) (same-relation equalities tie the identical
    rows, one interleave chain finishes).  The plain per-(a,b) CDS grinds
    through Θ(n²) pairs with Θ(n) interleave work each; the dyadic CDS
    shares C-coverage across b-blocks.  Returns (R, S, T, |C|).
    """
    r_edges = [(a, b) for a in range(n) for b in range(n)]
    s_edges = [(b, 2 * k) for b in range(n) for k in range(1, n + 1)]
    t_edges = [(a, 2 * k + 1) for a in range(n) for k in range(1, n + 1)]
    certificate = 2 * n * n + 2 * n
    return r_edges, s_edges, t_edges, certificate


def triangle_with_output(n: int, n_triangles: int, seed: int = 0) -> Tuple[
    List[Row], List[Row], List[Row]
]:
    """A random sparse instance with ~n_triangles planted triangles."""
    import random as _random

    rng = _random.Random(seed)
    r_edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
    s_edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
    t_edges = {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
    for _ in range(n_triangles):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        r_edges.add((a, b))
        s_edges.add((b, c))
        t_edges.add((a, c))
    return sorted(r_edges), sorted(s_edges), sorted(t_edges)


def disjoint_ranges_triangle(n: int, planted: int = 0) -> Tuple[
    List[Row], List[Row], List[Row]
]:
    """Example B.1 lifted to R(A,B) ⋈ S(B,C) ⋈ T(A,C).

    R's A values are ``0..n-1`` and T's are ``n..2n-1``, so apart from
    the ``planted`` triangles ``(2n+i, i, 3i mod n)`` the output is
    empty with an O(1) certificate: the dyadic triangle engine
    (Theorem 5.4) probes a few gaps, while generic join enumerates
    about ``n + planted`` A values before it learns that.
    """
    r = [(a, (3 * a) % n) for a in range(n)]
    s = [(b, (3 * b) % n) for b in range(n)]
    t = [(n + a, (5 * a) % n) for a in range(n)]
    for i in range(planted):
        r.append((2 * n + i, i))
        t.append((2 * n + i, (3 * i) % n))
    return sorted(r), sorted(s), sorted(t)


def disjoint_ranges_cycle4(n: int, planted: int = 0) -> Tuple[
    List[Row], List[Row], List[Row], List[Row]
]:
    """Example B.1 lifted to R(A,B) ⋈ S(B,C) ⋈ T(C,D) ⋈ U(D,A).

    R's A values are ``0..n-1`` and U's are ``n..2n-1``; the output is
    the ``planted`` 4-cycles ``(2n+i, i, 3i mod n, 15i mod n)``.  Under
    an A-first GAO Minesweeper certifies the disjoint ranges with a
    few gaps; generic join enumerates about ``n + planted`` A values.
    """
    r = [(a, (7 * a) % n) for a in range(n)]
    s = [(b, (3 * b) % n) for b in range(n)]
    t = [(c, (5 * c) % n) for c in range(n)]
    u = [((11 * a) % n, n + a) for a in range(n)]
    for i in range(planted):
        r.append((2 * n + i, i))
        u.append(((15 * i) % n, 2 * n + i))
    return sorted(r), sorted(s), sorted(t), sorted(set(u))


# ----------------------------------------------------------------------
# Set-intersection families (Appendix H / DLM)
# ----------------------------------------------------------------------


def intersection_blocks(m: int, block: int) -> List[List[int]]:
    """m sets in pairwise-disjoint value blocks: O(m) certificate."""
    return [
        list(range(i * (block + 10), i * (block + 10) + block))
        for i in range(m)
    ]


def intersection_interleaved(n: int) -> List[List[int]]:
    """Two perfectly interleaved sets (evens/odds): Θ(n) certificate."""
    return [
        [2 * i for i in range(n)],
        [2 * i + 1 for i in range(n)],
    ]


def intersection_with_overlap(n: int, overlap: int, seed: int = 0) -> List[List[int]]:
    """Two mostly separated sets sharing ``overlap`` planted values."""
    import random as _random

    rng = _random.Random(seed)
    shared = sorted(rng.sample(range(10 * n, 11 * n), min(overlap, n)))
    first = sorted(set(range(0, 2 * n, 2)) | set(shared))
    second = sorted(set(range(4 * n, 6 * n, 2)) | set(shared))
    return [first, second]


# ----------------------------------------------------------------------
# Example 4.1: the lazy-inference constraint workload (CDS-level)
# ----------------------------------------------------------------------


def example_4_1_constraints(n: int) -> List[Tuple[Tuple, int, object]]:
    """The Example 4.1 constraint set, as (prefix, low, high)-style triples.

    Returns constraints for a 3-attribute CDS: without memoized chain
    inference, finding that no active tuple exists takes Θ(n³) work; with
    it, O(n²).  (prefix components: ints or the WILDCARD sentinel.)
    """
    from repro.core.constraints import WILDCARD
    from repro.util.sentinels import NEG_INF, POS_INF

    constraints: List[Tuple[Tuple, int, object]] = []
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            constraints.append(((a, b), NEG_INF, 1))
    for b in range(1, n + 1):
        for i in range(1, n + 1):
            constraints.append(((WILDCARD, b), 2 * i - 2, 2 * i))
    for i in range(1, n + 1):
        constraints.append(((WILDCARD, WILDCARD), 2 * i - 1, 2 * i + 1))
    constraints.append(((WILDCARD, WILDCARD), 2 * n, POS_INF))
    # Boundary gaps on A and B so that full coverage is actually provable
    # (Example 4.1 quantifies over a, b in [n] only).
    constraints.append(((), NEG_INF, 1))
    constraints.append(((), n, POS_INF))
    constraints.append(((WILDCARD,), NEG_INF, 1))
    constraints.append(((WILDCARD,), n, POS_INF))
    return constraints

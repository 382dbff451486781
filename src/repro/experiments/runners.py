"""The paper's experiments, each defined once.

Every family the paper's evaluation rests on is one :class:`Experiment`
in :data:`EXPERIMENTS`: a ``run`` that regenerates the artifact as a
table of *operation counts* (§5.2's currency — deterministic, so two
runs are byte-identical) and a ``check`` that asserts the claim the
table is evidence for.  ``python -m repro experiments`` is
:func:`report`; its full output is committed as
``benchmarks/baselines/experiments.md`` and compared byte-for-byte by
the tier-1 tests, so a moved paper-level count is a reviewed diff.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from repro.baselines.leapfrog import leapfrog_triejoin
from repro.baselines.yannakakis import yannakakis_join
from repro.certificates.builder import (
    build_certificate,
    certificate_upper_bound,
)
from repro.core.bowtie import bowtie_join
from repro.core.cds import ConstraintTree
from repro.core.constraints import Constraint
from repro.core.engine import join
from repro.core.generic_join import generic_join
from repro.core.minesweeper import Minesweeper
from repro.core.intersection import (
    intersect_sorted,
    intersection_certificate_size,
    merge_intersection,
)
from repro.core.probe_acyclic import ChainProbeStrategy
from repro.core.query import Query
from repro.core.triangle import triangle_join
from repro.core.triangle_arena import ArenaTriangleMinesweeper
from repro.datasets.graphs import power_law_graph, uniform_graph
from repro.datasets.instances import (
    appendix_j_path,
    beta_cyclic_cycle,
    constant_certificate_empty,
    example_2_1,
    example_4_1_constraints,
    interleaved_parity,
    intersection_blocks,
    intersection_interleaved,
    intersection_with_overlap,
    prop_5_3,
    triangle_hard,
    triangle_with_output,
)
from repro.datasets.workloads import (
    input_size,
    star_query,
    three_path_query,
    tree_query,
)
from repro.dynamic.streams import build_catalog, triangle_stream
from repro.storage.interval_list import IntervalList, NaiveIntervalList
from repro.storage.relation import Relation
from repro.util.counters import OpCounters


@dataclass
class ExperimentResult:
    """A titled table: the column order, and one dict per row."""

    name: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add(self, *cells: object) -> None:
        """Append one row, its cells given in column order."""
        assert len(cells) == len(self.columns), cells
        self.rows.append(dict(zip(self.columns, cells)))

    def column(self, key: str) -> List[object]:
        return [row[key] for row in self.rows]

    def where(self, **match: object) -> List[Dict[str, object]]:
        """The rows whose cells equal every ``column=value`` given."""
        return [
            row
            for row in self.rows
            if all(row[key] == value for key, value in match.items())
        ]


def _prose(func: Callable) -> str:
    """The first paragraph of a docstring, on one line."""
    return " ".join(func.__doc__.split("\n\n")[0].split())


@dataclass(frozen=True)
class Experiment:
    """One paper family: what it reproduces, how to run it, what must
    hold.  The two docstrings are part of the definition: ``run``'s
    says what is measured, ``check``'s states the claim."""

    name: str
    #: The paper hook — the figure, theorem or example reproduced.
    paper: str
    run: Callable[[], ExperimentResult]
    #: Raises ``AssertionError`` when the table no longer shows the claim.
    check: Callable[[ExperimentResult], None]

    @property
    def description(self) -> str:
        return _prose(self.run)

    @property
    def claim(self) -> str:
        return _prose(self.check)


def format_table(result: ExperimentResult) -> str:
    """Render an ExperimentResult as a GitHub-markdown table."""
    lines = [
        f"**{result.name}**",
        "",
        "| " + " | ".join(result.columns) + " |",
        "|" + "---|" * len(result.columns),
    ]
    for row in result.rows:
        lines.append(
            "| " + " | ".join(str(row[col]) for col in result.columns) + " |"
        )
    return "\n".join(lines)


def fit_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mean_x = sum(lx) / len(lx)
    mean_y = sum(ly) / len(ly)
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den


def _work(engine: Callable, *args: object) -> int:
    """``total_work()`` of one counted run of ``engine`` on an instance
    whose output is empty (every family that compares engines is)."""
    counters = OpCounters()
    assert engine(*args, counters) == []
    return counters.total_work()


# ----------------------------------------------------------------------
# E1 — Figure 2
# ----------------------------------------------------------------------


def run_figure2(
    scale: float = 1.0, probability: float = 0.002, seed: int = 99
) -> ExperimentResult:
    """Input size N against certificate size |C| (FindGap count) for the
    §5.2 star / 3-path / tree queries on three synthetic graphs standing
    in for the SNAP datasets."""
    graphs = {
        "epinions-like": power_law_graph(
            int(2_000 * scale), int(10_000 * scale), seed=11
        ),
        "livejournal-like": power_law_graph(
            int(6_000 * scale), int(40_000 * scale), seed=12
        ),
        "orkut-like": uniform_graph(
            int(6_000 * scale), int(60_000 * scale), seed=13
        ),
    }
    queries = {
        "star": star_query,
        "3-path": three_path_query,
        "tree": tree_query,
    }
    result = ExperimentResult(
        "Figure 2 — input size N vs certificate size |C| (FindGap count)",
        ["query", "dataset", "N", "C", "N_over_C", "Z"],
    )
    for query_name, build in queries.items():
        for graph_name, edges in graphs.items():
            query = build(edges, probability=probability, seed=seed)
            res = join(query)
            n = input_size(query)
            cert = res.certificate_estimate
            result.add(
                query_name, graph_name, n, cert,
                round(n / max(cert, 1), 1), len(res),
            )
    return result


def check_figure2(result: ExperimentResult) -> None:
    """The Figure-2 shape: |C| < N/3 on every query × dataset cell."""
    for row in result.rows:
        assert row["C"] < row["N"] / 3, row


# ----------------------------------------------------------------------
# E2 — Theorem 2.7: beta-acyclic linearity
# ----------------------------------------------------------------------


def run_beta_acyclic() -> ExperimentResult:
    """Probes against the analytic |C| + Z under a nested-elimination
    GAO on two beta-acyclic families: Example 2.1 (output-heavy) and the
    Appendix J 5-path (certificate-heavy, empty output)."""
    result = ExperimentResult(
        "Theorem 2.7 — probes track |C| + Z on beta-acyclic queries",
        ["family", "scale", "C", "Z", "probes", "work", "probes_per_C_plus_Z"],
    )
    instances = [
        ("example-2.1", n, example_2_1(n)) for n in (50, 200, 800)
    ] + [
        ("appendix-j", block, appendix_j_path(5, block))
        for block in (8, 16, 32)
    ]
    for family, scale, inst in instances:
        res = join(inst.query, gao=inst.gao)
        cert, z, probes = inst.certificate_size, len(res), res.counters.probes
        result.add(
            family, scale, cert, z, probes, res.counters.total_work(),
            round(probes / (cert + z), 3),
        )
    return result


def check_beta_acyclic(result: ExperimentResult) -> None:
    """Probes stay within Theorem 3.2's constants of |C| + Z
    (≤ 4(|C| + Z) + 16 on Example 2.1, ≤ 40|C| on Appendix J), and work
    grows linearly in |C| where the certificate dominates (exponent
    < 1.05 — the contrast to the beta-cyclic family)."""
    for row in result.where(family="example-2.1"):
        assert row["probes"] <= 4 * (row["C"] + row["Z"]) + 16, row
    path = result.where(family="appendix-j")
    for row in path:
        assert row["Z"] == 0, row
        assert row["probes"] <= 40 * row["C"], row
    exponent = fit_exponent(
        [row["C"] for row in path], [row["work"] for row in path]
    )
    assert exponent < 1.05, exponent


# ----------------------------------------------------------------------
# E3 — Appendix J baseline comparison
# ----------------------------------------------------------------------


def run_appendix_j(
    blocks: Sequence[int] = (8, 16, 32), m: int = 5
) -> ExperimentResult:
    """Minesweeper against LFTJ, NPRR and Yannakakis on the chunked
    5-path family, whose O(m·M) certificate hides in Θ(m·M²) input."""
    result = ExperimentResult(
        "Appendix J — work on the chunked path family (empty output)",
        ["M", "N", "minesweeper", "leapfrog", "nprr", "yannakakis"],
    )
    for block in blocks:
        inst = appendix_j_path(m, block)
        ms = join(inst.query, gao=inst.gao)
        assert ms.rows == []
        prepared = inst.query.with_gao(inst.gao)
        result.add(
            block,
            inst.query.total_tuples(),
            ms.counters.total_work(),
            _work(leapfrog_triejoin, prepared),
            _work(generic_join, prepared),
            _work(yannakakis_join, inst.query, inst.gao),
        )
    return result


def check_appendix_j(result: ExperimentResult) -> None:
    """The LFTJ / Minesweeper work ratio more than triples from the
    smallest M to the largest, and from M = 16 even the cheapest of the
    three worst-case-optimal baselines (§4.4's run-them-all-in-parallel
    oracle) does > 1.2x Minesweeper's work."""
    first, last = result.rows[0], result.rows[-1]
    assert (
        last["leapfrog"] / last["minesweeper"]
        > 3 * first["leapfrog"] / first["minesweeper"]
    )
    for row in result.rows:
        if row["M"] >= 16:
            best = min(row["leapfrog"], row["nprr"], row["yannakakis"])
            assert best > 1.2 * row["minesweeper"], row


# ----------------------------------------------------------------------
# E4 — constant certificates
# ----------------------------------------------------------------------


def run_constant_certificate(
    sizes: Sequence[int] = (100, 1_000, 10_000)
) -> ExperimentResult:
    """Example B.1's O(1) certificate on inputs growing 100x:
    Minesweeper's probes against Yannakakis' comparisons."""
    result = ExperimentResult(
        "Example B.1 — O(1) certificate on growing inputs",
        ["n", "ms_probes", "ms_findgap", "yannakakis_comparisons"],
    )
    for n in sizes:
        inst = constant_certificate_empty(n)
        res = join(inst.query, gao=inst.gao)
        ya = OpCounters()
        assert res.rows == yannakakis_join(inst.query, inst.gao, ya) == []
        result.add(n, res.counters.probes, res.counters.findgap, ya.comparisons)
    return result


def check_constant_certificate(result: ExperimentResult) -> None:
    """Minesweeper's probe count is the same (≤ 5) at every n;
    Yannakakis scans all of N (≥ 2n comparisons)."""
    assert len(set(result.column("ms_probes"))) == 1
    for row in result.rows:
        assert row["ms_probes"] <= 5, row
        assert row["yannakakis_comparisons"] >= 2 * row["n"], row


# ----------------------------------------------------------------------
# E5 — GAO dependence
# ----------------------------------------------------------------------


def run_gao_dependence(sizes: Sequence[int] = (4, 8, 16)) -> ExperimentResult:
    """Examples B.3/B.4: the same data under the orders (A, B, C) and
    (C, A, B) — the certificate, and the measured work, flip from
    quadratic to linear."""
    result = ExperimentResult(
        "Examples B.3/B.4 — GAO flips the certificate size",
        ["n", "gao", "analytic_C", "probes", "work"],
    )
    for n in sizes:
        for name, gao in (("ABC", ["A", "B", "C"]), ("CAB", ["C", "A", "B"])):
            inst = interleaved_parity(n, gao)
            res = join(inst.query, gao=inst.gao)
            result.add(
                n, name, inst.certificate_size,
                res.counters.probes, res.counters.total_work(),
            )
    return result


def check_gao_dependence(result: ExperimentResult) -> None:
    """The nested-elimination order (C, A, B) does less than a quarter
    of (A, B, C)'s work at every n."""
    for n in sorted(set(result.column("n"))):
        (bad,) = result.where(n=n, gao="ABC")
        (good,) = result.where(n=n, gao="CAB")
        assert good["work"] * 4 < bad["work"], (good, bad)


# ----------------------------------------------------------------------
# E6 — treewidth lower bound
# ----------------------------------------------------------------------


def run_treewidth(ms: Sequence[int] = (4, 8, 16), w: int = 2) -> ExperimentResult:
    """Proposition 5.3's Q_w lower-bound family at w = 2: |C| = O(w·m),
    but the CDS dismisses length-w prefixes one backtrack at a time."""
    result = ExperimentResult(
        f"Proposition 5.3 — Q_w lower-bound family (w={w})",
        ["m", "analytic_C", "probes", "backtracks", "work"],
    )
    for m in ms:
        inst = prop_5_3(w, m)
        res = join(inst.query, gao=inst.gao)
        assert res.rows == []
        result.add(
            m, inst.certificate_size, res.counters.probes,
            res.counters.backtracks, res.counters.total_work(),
        )
    return result


def check_treewidth(result: ExperimentResult) -> None:
    """For w = 2 the backtracks are exactly m² + m — one per length-2
    prefix — a log-log slope against m within 0.3 of w."""
    for row in result.rows:
        assert row["backtracks"] == row["m"] ** 2 + row["m"], row
    slope = fit_exponent(result.column("m"), result.column("backtracks"))
    assert 1.7 < slope < 2.3, slope


# ----------------------------------------------------------------------
# E7 — triangle engines
# ----------------------------------------------------------------------


def _triangle_query(r: Sequence, s: Sequence, t: Sequence) -> Query:
    return Query(
        [
            Relation("R", ["A", "B"], r),
            Relation("S", ["B", "C"], s),
            Relation("T", ["A", "C"], t),
        ]
    )


def run_triangle(sizes: Sequence[int] = (8, 16, 32)) -> ExperimentResult:
    """Theorem 5.4: the dyadic-tree CDS against the generic shadow-chain
    CDS (and LFTJ) on the adversarial parity triangles, |C| = Θ(n²)."""
    result = ExperimentResult(
        "Theorem 5.4 — triangle query: generic vs dyadic CDS",
        ["n", "C", "generic", "dyadic", "leapfrog"],
    )
    for n in sizes:
        r, s, t, cert = triangle_hard(n)
        query = _triangle_query(r, s, t)
        generic = join(query, gao=["A", "B", "C"], strategy="general")
        assert generic.rows == []
        result.add(
            n,
            cert,
            generic.counters.total_work(),
            _work(triangle_join, r, s, t),
            _work(leapfrog_triejoin, query.with_gao(["A", "B", "C"])),
        )
    return result


def check_triangle(result: ExperimentResult) -> None:
    """The dyadic CDS does less work than the generic one at every n,
    and its work exponent against |C| is lower by more than 0.1."""
    for row in result.rows:
        assert row["dyadic"] < row["generic"], row
    cert = result.column("C")
    assert (
        fit_exponent(cert, result.column("dyadic"))
        < fit_exponent(cert, result.column("generic")) - 0.1
    )


def run_triangle_planted(
    sizes: Sequence[int] = (40, 80, 160, 320),
) -> ExperimentResult:
    """Appendix L: what one probe search costs in the dyadic-tree CDS as
    the B domain grows — dyadic nodes visited (cache lookups) and
    interval operations, on sparse instances over n values with n/4
    planted triangles."""
    result = ExperimentResult(
        "Appendix L — the dyadic walk per probe, planted triangles",
        ["n", "depth", "probes", "interval_ops", "visits", "visits_per_probe"],
    )
    for n in sizes:
        r, s, t = triangle_with_output(n, n // 4, seed=5)
        counters = OpCounters()
        engine = ArenaTriangleMinesweeper(r, s, t, counters)
        assert engine.run() == leapfrog_triejoin(
            _triangle_query(r, s, t).with_gao(["A", "B", "C"]), OpCounters()
        )
        visits = counters.cache_hits + counters.cache_misses
        result.add(
            n, engine.dyadic.depth, counters.probes, counters.interval_ops,
            visits, round(visits / counters.probes, 2),
        )
    return result


def check_triangle_planted(result: ExperimentResult) -> None:
    """A probe visits at most 2·(depth + 1) dyadic nodes at every n, and
    interval operations per probe grow with a log-log slope below 0.3
    against n — the O(log n) the dyadic tree promises; a walk that
    re-crosses dead blocks from the root on every probe reads 0.81."""
    for row in result.rows:
        assert row["visits"] <= 2 * (row["depth"] + 1) * row["probes"], row
    per_probe = [row["interval_ops"] / row["probes"] for row in result.rows]
    slope = fit_exponent(result.column("n"), per_probe)
    assert slope < 0.3, slope


# ----------------------------------------------------------------------
# E8 — Appendix H: adaptive set intersection
# ----------------------------------------------------------------------


def run_intersection() -> ExperimentResult:
    """Adaptive set intersection against the merge baseline in three
    regimes: disjoint blocks (|C| = O(1)), a perfect interleave
    (|C| = Θ(N)) and a sparse planted overlap (work ∝ Z)."""
    result = ExperimentResult(
        "Theorem H.4 — adaptive set intersection vs merge",
        ["regime", "scale", "N", "Z", "C", "probes", "merge_comparisons"],
    )
    cases = (
        [("blocks", n, intersection_blocks(2, n)) for n in (1_000, 100_000)]
        + [
            ("interleaved", n, intersection_interleaved(n))
            for n in (2_000, 20_000)
        ]
        + [
            ("overlap", k, intersection_with_overlap(50_000, k, seed=4))
            for k in (10, 100)
        ]
    )
    for regime, scale, sets in cases:
        counters = OpCounters()
        out = intersect_sorted(sets, counters)
        merge = OpCounters()
        assert merge_intersection(sets, merge) == out
        result.add(
            regime, scale, sum(len(s) for s in sets), len(out),
            intersection_certificate_size(sets),
            counters.probes, merge.comparisons,
        )
    return result


def check_intersection(result: ExperimentResult) -> None:
    """Probes follow the certificate, not N: ≤ 4 on disjoint blocks of
    any size, ≤ 6Z + 10 on the planted overlap, and ≥ n/2 only where
    |C| = Θ(N); the merge baseline pays ≥ n/2 comparisons regardless."""
    for row in result.where(regime="blocks"):
        assert row["Z"] == 0 and row["probes"] <= 4, row
        assert row["merge_comparisons"] >= row["scale"] / 2, row
    for row in result.where(regime="interleaved"):
        assert row["Z"] == 0 and row["probes"] >= row["scale"] / 2, row
    for row in result.where(regime="overlap"):
        assert row["Z"] == row["scale"], row
        assert row["probes"] <= 6 * row["scale"] + 10, row


# ----------------------------------------------------------------------
# E9 — Appendix I: the bow-tie query
# ----------------------------------------------------------------------


def _bowtie_instance(
    case: str, n: int
) -> Tuple[List[int], List[Tuple[int, int]], List[int]]:
    if case == "two-block":
        # Appendix I's adversarial instance: |C| = 2 at any |S|.
        s = [(1, n + 1 + i) for i in range(1, n + 1)]
        return [2], s + [(3, i) for i in range(1, n + 1)], [n + 1]
    rng = random.Random(0)
    r = sorted(rng.sample(range(n), n // 4))
    t = sorted(rng.sample(range(n), n // 4))
    s = sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(4 * n)})
    return r, s, t


def run_bowtie() -> ExperimentResult:
    """Algorithm 9 (the specialised bow-tie engine) on Appendix I's
    two-block hidden-certificate instance and a dense-output workload,
    rows checked against the generic chain engine on the same inputs."""
    result = ExperimentResult(
        "Appendix I — the bow-tie query R(X) ⋈ S(X,Y) ⋈ T(Y)",
        ["case", "n", "N", "Z", "probes", "work", "generic_work"],
    )
    for case, n in (
        ("two-block", 1_000), ("two-block", 100_000),
        ("dense", 200), ("dense", 2_000),
    ):
        r, s, t = _bowtie_instance(case, n)
        counters = OpCounters()
        rows = bowtie_join(r, s, t, counters)
        query = Query(
            [
                Relation("R", ["X"], [(v,) for v in r]),
                Relation("S", ["X", "Y"], s),
                Relation("T", ["Y"], [(v,) for v in t]),
            ]
        )
        generic = join(query, gao=["X", "Y"])
        assert sorted(rows) == sorted(generic.rows)
        result.add(
            case, n, len(r) + len(s) + len(t), len(rows), counters.probes,
            counters.total_work(), generic.counters.total_work(),
        )
    return result


def check_bowtie(result: ExperimentResult) -> None:
    """Anticipatory exploration keeps the two-block instance at ≤ 6
    probes while S grows 100x."""
    for row in result.where(case="two-block"):
        assert row["Z"] == 0 and row["probes"] <= 6, row


# ----------------------------------------------------------------------
# E10 — beta-cyclic hardness
# ----------------------------------------------------------------------


def run_beta_cyclic(sizes: Sequence[int] = (6, 12, 24)) -> ExperimentResult:
    """Proposition 2.8's shape on the parity-interleaved 4-cycle
    family: work per unit of certificate at growing scale."""
    result = ExperimentResult(
        "Proposition 2.8 — beta-cyclic 4-cycle family",
        ["n", "C_scale", "work", "work_per_C"],
    )
    for n in sizes:
        inst = beta_cyclic_cycle(4, n)
        res = join(inst.query, gao=inst.gao)
        assert res.rows == []
        work = res.counters.total_work()
        result.add(
            n, inst.certificate_size, work,
            round(work / inst.certificate_size, 2),
        )
    return result


def check_beta_cyclic(result: ExperimentResult) -> None:
    """Work per unit of certificate grows with scale: super-linear in
    |C| (exponent > 1.05)."""
    ratios = result.column("work_per_C")
    assert ratios == sorted(set(ratios)), ratios
    exponent = fit_exponent(result.column("C_scale"), result.column("work"))
    assert exponent > 1.05, exponent


# ----------------------------------------------------------------------
# E11 — Proposition 2.6: |C| <= r·N
# ----------------------------------------------------------------------

_BOUND_SHAPES = {
    "chain": [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["C", "D"])],
    "star": [("R", ["A", "B"]), ("S", ["A", "C"]), ("T", ["A", "D"])],
    "triangle": [("R", ["A", "B"]), ("S", ["B", "C"]), ("T", ["A", "C"])],
}


def run_certificate_bound() -> ExperimentResult:
    """Proposition 2.6's constructive certificate on random chain /
    star / triangle instances, against the r·N upper bound."""
    result = ExperimentResult(
        "Proposition 2.6 — a certificate of size ≤ r·N always exists",
        ["shape", "n", "rN_bound", "built_size", "fraction_of_bound",
         "satisfied"],
    )
    for n in (50, 200):
        for shape, atoms in _BOUND_SHAPES.items():
            rng = random.Random(n)
            query = Query(
                [
                    Relation(
                        name,
                        attrs,
                        {
                            tuple(rng.randint(0, 3 * n) for _ in attrs)
                            for _ in range(n)
                        },
                    )
                    for name, attrs in atoms
                ]
            )
            prepared = query.with_gao(query.choose_gao()[0])
            cert = build_certificate(prepared)
            bound = certificate_upper_bound(prepared)
            result.add(
                shape, n, bound, len(cert), round(len(cert) / bound, 3),
                cert.satisfied_by(prepared),
            )
    return result


def check_certificate_bound(result: ExperimentResult) -> None:
    """The built argument is a certificate of its instance and never
    exceeds r·N."""
    for row in result.rows:
        assert row["satisfied"] is True, row
        assert row["built_size"] <= row["rN_bound"], row


# ----------------------------------------------------------------------
# E12 (ablation) — Example 4.1: chain-inference memoization
# ----------------------------------------------------------------------


def _coverage_interval_ops(n: int, memoize: bool) -> int:
    """Interval ops to prove Example 4.1's constraint set covers the
    whole space (no probe point left), memoizing inferred gaps or not."""
    cds = ConstraintTree(3)
    for prefix, lo, hi in example_4_1_constraints(n):
        cds.insert(Constraint(prefix, lo, hi))
    cds.counters.reset()
    probe = ChainProbeStrategy(cds, memoize=memoize)
    assert probe.get_probe_point() is None
    return cds.counters.interval_ops


def run_memoization() -> ExperimentResult:
    """Algorithm 4's lazy chain-inference memoization on and off: the
    Example 4.1 coverage proof driven straight at the CDS, then the same
    knob end to end on the Appendix J join."""
    result = ExperimentResult(
        "Example 4.1 — lazy chain-inference memoization on vs off",
        ["workload", "n", "metric", "memoized", "unmemoized"],
    )
    for n in (8, 16, 24):
        result.add(
            "example-4.1", n, "interval_ops",
            _coverage_interval_ops(n, True), _coverage_interval_ops(n, False),
        )
    inst = appendix_j_path(5, 16)
    on, off = (
        join(inst.query, gao=inst.gao, memoize=memoize)
        for memoize in (True, False)
    )
    assert on.rows == off.rows == []
    result.add(
        "appendix-j join", 16, "work",
        on.counters.total_work(), off.counters.total_work(),
    )
    return result


def check_memoization(result: ExperimentResult) -> None:
    """Memoization takes the Example 4.1 coverage proof from ~n³ towards
    n²: the two growth exponents differ by more than 0.5.  (The join row
    is reported, not asserted: on Appendix J the memoized run does
    slightly more counted work.)"""
    proof = result.where(workload="example-4.1")
    sizes = [row["n"] for row in proof]
    assert (
        fit_exponent(sizes, [row["memoized"] for row in proof])
        < fit_exponent(sizes, [row["unmemoized"] for row in proof]) - 0.5
    )


# ----------------------------------------------------------------------
# E13 (ablation) — Proposition 3.1: interval merging
# ----------------------------------------------------------------------


def _stored_intervals(n: int, merged: bool) -> int:
    """Intervals held after n overlapping inserts."""
    intervals = IntervalList() if merged else NaiveIntervalList()
    for i in range(n):
        intervals.insert(i, i + 10)
    return len(intervals)


def _naive_interval_join(
    query: Query, gao: Sequence[str]
) -> Tuple[list, OpCounters]:
    """Minesweeper with CDS intervals stored unmerged: the plain tier's
    ``ConstraintTree(merge_intervals=False)``, since the arena tree
    stores merged intervals only.  Returns (rows, counters)."""
    prepared = query.with_gao(gao)
    cds = ConstraintTree(
        prepared.n, counters=prepared.counters, merge_intervals=False
    )
    return Minesweeper(prepared, cds=cds).run(), prepared.counters


def run_interval_merge() -> ExperimentResult:
    """Merging overlapping CDS intervals on and off (the verbatim
    ``NaiveIntervalList``): what the list stores after overlapping
    inserts, then two joins under ``merge_intervals=False``."""
    result = ExperimentResult(
        "Proposition 3.1 — interval merging on vs off",
        ["workload", "n", "metric", "merged", "naive"],
    )
    result.add(
        "overlapping inserts", 2_000, "stored_intervals",
        _stored_intervals(2_000, True), _stored_intervals(2_000, False),
    )
    for workload, n, inst in (
        ("example-2.1 join", 150, example_2_1(150)),
        ("appendix-j join (m=4)", 10, appendix_j_path(4, 10)),
    ):
        merged = join(inst.query, gao=inst.gao)
        naive_rows, naive_counters = _naive_interval_join(inst.query, inst.gao)
        assert merged.rows == naive_rows
        assert len(merged) == inst.output_size
        result.add(workload, n, "Z", len(merged), len(naive_rows))
        result.add(
            workload, n, "work",
            merged.counters.total_work(), naive_counters.total_work(),
        )
    return result


def check_interval_merge(result: ExperimentResult) -> None:
    """Merged, n overlapping inserts coalesce into one stored interval;
    verbatim, the list keeps all n (and every ``next`` walks it).  The
    joins' answers do not move — nor, in these tables, does the counted
    work, which is why the claim is about what is stored."""
    for row in result.where(metric="stored_intervals"):
        assert (row["merged"], row["naive"]) == (1, row["n"]), row
    for row in result.where(metric="Z"):
        assert row["merged"] == row["naive"], row


# ----------------------------------------------------------------------
# E14 — planner-chosen vs fixed-GAO (ISSUE 5)
# ----------------------------------------------------------------------


def run_planner(seed: int = 7, n: int = 24, m: int = 70) -> ExperimentResult:
    """Planner-chosen engine and GAO against plain Minesweeper under the
    first-appearance and the structural GAO, on five query shapes.

    For each shape the serving layer plans and executes the query
    (engine + GAO chosen by measurement); the comparison columns run
    plain Minesweeper over the same data under (a) the first-appearance
    attribute order — what a user who never thinks about GAOs gets —
    and (b) the paper's structural ``choose_gao`` rule.  ``planner_ops``
    is the executed plan's actual probe cost (FindGap count — generic
    join's probes for a generic-join plan; comparisons for a Yannakakis
    plan, marked by ``metric``).
    """
    from repro.dynamic import Catalog
    from repro.lang import lower, parse
    from repro.serve import Session

    rng = random.Random(seed)

    def edges():
        return sorted(
            {(rng.randrange(n), rng.randrange(n)) for _ in range(m)}
        )

    shapes = [
        (
            "triangle",
            {"R": ("A", "B"), "S": ("B", "C"), "T": ("A", "C")},
            "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)",
        ),
        (
            "bowtie",
            {"L": ("X",), "M": ("X", "Y"), "N": ("Y",)},
            "Q(x, y) :- L(x), M(x, y), N(y)",
        ),
        (
            "3-path",
            {"R": ("A", "B"), "S": ("B", "C"), "T": ("C", "D")},
            "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)",
        ),
        (
            "star",
            {"R": ("A", "B"), "S": ("A", "C"), "T": ("A", "D")},
            "Q(a, b, c, d) :- R(a, b), S(a, c), T(a, d)",
        ),
        (
            "4-cycle",
            {"R": ("A", "B"), "S": ("B", "C"),
             "T": ("C", "D"), "U": ("D", "A")},
            "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)",
        ),
    ]
    result = ExperimentResult(
        "E14: planner-chosen vs fixed-GAO (registry shapes)",
        columns=[
            "shape", "engine", "planner_ops", "metric",
            "fixed_gao_findgap", "paper_gao_findgap", "rows",
        ],
    )
    for shape, schemas, text in shapes:
        catalog = Catalog()
        for name, attrs in schemas.items():
            rows = (
                edges()
                if len(attrs) == 2
                else [(v,) for v in sorted(rng.sample(range(n), n // 2))]
            )
            catalog.create_relation(name, list(attrs), rows)
        session = Session(catalog)
        res = session.execute(text)
        lowered = lower(parse(text), catalog)
        snapshot = Query(
            [
                Relation(r.name, r.attributes, r.tuples())
                for r in lowered.query.relations
            ]
        )
        fixed = join(snapshot, gao=snapshot.attributes())
        paper = join(snapshot)
        metric = (
            "comparisons" if res.plan.engine == "yannakakis" else "findgap"
        )
        result.add(
            shape, res.plan.engine, res.ops[metric], metric,
            fixed.certificate_estimate, paper.certificate_estimate,
            len(res.rows),
        )
    return result


def check_planner(result: ExperimentResult) -> None:
    """Yannakakis is picked on the acyclic shapes, as Section 4.4's rule
    says; the cyclic shapes are unsampled random instances whose
    Minesweeper certificate estimate is several times N, the regime
    where Thm 5.1/5.4 lose to a worst-case-optimal join, and the
    planner's measured work picks generic join for both, with fewer
    probes than Minesweeper's FindGaps under the first-appearance
    order."""
    by_shape = {row["shape"]: row for row in result.rows}
    for shape in ("bowtie", "3-path", "star"):
        assert by_shape[shape]["engine"] == "yannakakis", by_shape[shape]
    for shape in ("triangle", "4-cycle"):
        row = by_shape[shape]
        assert row["engine"] == "generic", row
        assert row["planner_ops"] <= row["fixed_gao_findgap"], row


# ----------------------------------------------------------------------
# Live-view maintenance — the delta rule, deletes read from the view
# ----------------------------------------------------------------------


VIEW_BATCHES = 6


def run_view_maintenance(
    sizes: Sequence[int] = (50, 200, 800),
) -> ExperimentResult:
    """A live triangle view under a seeded mixed update stream (six
    batches of eight) at three sizes: what maintaining the view costs,
    split by the sign of the delta term — each batch's deletes are
    applied on their own, then its inserts — against a full
    ``recompute()`` after every batch."""
    result = ExperimentResult(
        "Delta-rule maintenance vs recompute, live triangle view",
        [
            "edges", "deleted", "delete_findgap", "delete_probes",
            "inserted", "engine_runs", "insert_findgap", "insert_probes",
            "R_insert_probes", "S_insert_probes", "T_insert_probes",
            "recompute_findgap", "recompute_probes", "rows",
        ],
    )
    for n_edges in sizes:
        schemas, initial, batches = triangle_stream(
            n_nodes=max(10, n_edges // 5), n_edges=n_edges,
            n_batches=VIEW_BATCHES, batch_size=8, insert_fraction=0.5,
            seed=21,
        )
        catalog, view = build_catalog(schemas, initial)
        cells = dict.fromkeys(result.columns[1:-1], 0)
        for batch in batches:
            for sign, term in (("-", "delete"), ("+", "insert")):
                entry = catalog.apply_batch(
                    [update for update in batch if update.op == sign]
                ).views[view.name]
                cells[f"{term}_findgap"] += entry["ops"]["findgap"]
                cells[f"{term}_probes"] += entry["ops"]["probes"]
                cells["engine_runs"] += entry["engine_runs"]
                cells["deleted"] += entry["indexed_deletes"]
            cells["inserted"] += sum(update.op == "+" for update in batch)
            rows, ops, _ = view.recompute()
            assert rows == view.rows()
            cells["recompute_findgap"] += ops["findgap"]
            cells["recompute_probes"] += ops["probes"]
        for name, term in view.stats()["terms"].items():
            cells[f"{name}_insert_probes"] = term["probes"]
        result.add(n_edges, *cells.values(), len(view))
    return result


def check_view_maintenance(result: ExperimentResult) -> None:
    """Deletes never join: the −1 terms are answered from the view's
    projection index at zero engine operations, at every size.  The +1
    terms (at most one engine run per relation per batch, each under a
    GAO its delta leads) cost fewer FindGaps and probes than
    recomputing, by a margin that widens with the input, and their
    probes do not grow with it (at most 1.5× from the smallest input to
    the largest); the per-atom columns sum to the total; the maintained
    rows equal the recompute after every batch (asserted while
    running)."""
    for row in result.rows:
        assert row["deleted"] > 0 and row["inserted"] > 0, row
        assert row["delete_findgap"] == row["delete_probes"] == 0, row
        assert row["engine_runs"] <= 3 * VIEW_BATCHES, row
        assert row["insert_findgap"] < row["recompute_findgap"], row
        assert row["insert_probes"] < row["recompute_probes"], row
        assert row["insert_probes"] == sum(
            row[f"{name}_insert_probes"] for name in "RST"
        ), row
    savings = [
        row["recompute_findgap"] / row["insert_findgap"] for row in result.rows
    ]
    assert savings == sorted(savings), savings
    first, last = result.rows[0], result.rows[-1]
    assert last["insert_probes"] <= 1.5 * first["insert_probes"], (
        first, last,
    )


# ----------------------------------------------------------------------
# The registry and its report
# ----------------------------------------------------------------------

EXPERIMENTS: Dict[str, Experiment] = {
    exp.name: exp
    for exp in (
        Experiment("figure2", "Figure 2 (§5.2)", run_figure2, check_figure2),
        Experiment(
            "beta-acyclic", "Theorem 2.7 (constants of Theorem 3.2)",
            run_beta_acyclic, check_beta_acyclic,
        ),
        Experiment(
            "appendix-j", "Appendix J (and the §4.4 parallel remark)",
            run_appendix_j, check_appendix_j,
        ),
        Experiment(
            "constant-certificate", "Example B.1",
            run_constant_certificate, check_constant_certificate,
        ),
        Experiment(
            "gao", "Examples B.3 / B.4", run_gao_dependence,
            check_gao_dependence,
        ),
        Experiment(
            "treewidth", "Proposition 5.3", run_treewidth, check_treewidth
        ),
        Experiment("triangle", "Theorem 5.4", run_triangle, check_triangle),
        Experiment(
            "triangle-planted", "Appendix L (Algorithm 10)",
            run_triangle_planted, check_triangle_planted,
        ),
        Experiment(
            "intersection", "Appendix H (Theorem H.4)",
            run_intersection, check_intersection,
        ),
        Experiment(
            "bowtie", "Appendix I (Algorithm 9)", run_bowtie, check_bowtie
        ),
        Experiment(
            "beta-cyclic", "Proposition 2.8 (Appendix F.3)",
            run_beta_cyclic, check_beta_cyclic,
        ),
        Experiment(
            "certificate-bound", "Proposition 2.6",
            run_certificate_bound, check_certificate_bound,
        ),
        Experiment(
            "memoization", "Example 4.1 (Algorithm 4) — ablation",
            run_memoization, check_memoization,
        ),
        Experiment(
            "interval-merge", "Proposition 3.1 — ablation",
            run_interval_merge, check_interval_merge,
        ),
        Experiment(
            "planner", "Example B.6 (this repo's planner, E14)",
            run_planner, check_planner,
        ),
        Experiment(
            "view-maintenance", "Theorem 3.2, applied to the delta rule",
            run_view_maintenance, check_view_maintenance,
        ),
    )
}

BASELINE = "benchmarks/baselines/experiments.md"
REGENERATE = f"PYTHONPATH=src python -m repro experiments > {BASELINE}"


def catalogue() -> str:
    """The registry as a markdown table (EXPERIMENTS.md embeds it)."""
    lines = ["| experiment | paper hook | what it measures |", "|---|---|---|"]
    for exp in EXPERIMENTS.values():
        cells = (f"`{exp.name}`", exp.paper, exp.description)
        lines.append(
            "| " + " | ".join(c.replace("|", "\\|") for c in cells) + " |"
        )
    return "\n".join(lines)


def report(names: Sequence[str] = ()) -> Tuple[str, List[str]]:
    """Run the named experiments (default: every one, under the
    catalogue) and render them; returns the markdown and the names of
    the experiments whose claim no longer holds."""
    if not __debug__:
        raise RuntimeError("the checks are assert statements: run without -O")
    parts = []
    if not names:
        parts.append(
            "# Paper experiments — operation counts\n\n"
            "Emitted by `python -m repro experiments`; every figure is a "
            "deterministic operation count.\n"
            f"Regenerate after an intended change: `{REGENERATE}`\n\n"
            + catalogue()
        )
    failed = []
    for name in names or EXPERIMENTS:
        exp = EXPERIMENTS[name]
        table, verdict = "", "ok"
        try:
            result = exp.run()
            table = format_table(result) + "\n\n"
            exp.check(result)
        except AssertionError as exc:
            failed.append(name)
            verdict = f"FAILED {exc}".rstrip()
        parts.append(
            f"## `{exp.name}` — {exp.paper}\n\n{exp.description}\n\n"
            f"{table}Claim: {exp.claim}\n\ncheck: {verdict}"
        )
    return "\n\n".join(parts) + "\n", failed

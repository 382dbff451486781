"""The cost-based planner: classify, enumerate, score, pick.

Given a lowered query (or a bare core ``Query``), the planner

1. **classifies** the hypergraph — triangle shape, alpha/beta
   acyclicity, elimination width (via :mod:`repro.hypergraph`);
2. **enumerates** candidate plans — the specialized dyadic-tree
   triangle engine when the shape fits (Theorem 5.4), Yannakakis for
   alpha-acyclic inputs, and sharded/serial Minesweeper under GAO
   candidates from :func:`repro.core.gao_search.candidate_gaos` (NEOs,
   min-fill, seeded random permutations);
3. **scores** every candidate by *measuring* it on a deterministic
   stride sample of the data — the paper's Ex. B.6 point is that no
   structural rule always finds the best GAO, so the planner runs the
   engine on a sample and reads the certificate estimate (FindGap
   count) off the counters;
4. **emits** an executable :class:`~repro.planner.plan.Plan` carrying
   the winner plus everything it scored for ``explain()``.

Engine choice is structural-first (triangle > Yannakakis >
Minesweeper) because those dominances are theorems, not data accidents;
*within* the Minesweeper regime the GAO choice is purely cost-based.
A structural pick therefore scores one candidate — the winner — and
the Minesweeper board it would have been compared against is built on
demand (:meth:`Planner.comparison_board`, called by ``EXPLAIN``).
Everything is deterministic: sampling is stride-based, random GAO
candidates come from a seeded generator, and ties break
lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.explain import explain as explain_structure
from repro.core.gao_search import candidate_gaos
from repro.core.query import Query
from repro.core.resilience import QueryBudget
from repro.lang.lower import LoweredQuery
from repro.planner.plan import (
    ENGINE_MINESWEEPER,
    ENGINE_TRIANGLE,
    ENGINE_YANNAKAKIS,
    CandidatePlan,
    Plan,
    TriangleMapping,
)
from repro.storage.relation import Relation
from repro.util.counters import OpCounters

Row = Tuple[int, ...]

#: The candidate sweep (see :func:`candidate_gaos`): below this
#: attribute count every GAO permutation is scored; at or above it, up
#: to ``NEO_LIMIT`` distinct nested-elimination orders, the min-fill
#: order and ``RANDOM_CANDIDATES`` seeded random permutations.
EXHAUSTIVE_BELOW = 5
NEO_LIMIT = 8
RANDOM_CANDIDATES = 4
#: The CDS-op multiple of ``PlannerConfig.score_budget`` allowed per
#: candidate (op tallies run far above probe counts even on good GAOs).
SCORE_OPS_FACTOR = 8


@dataclass
class PlannerConfig:
    """Deterministic knobs for planning (not for execution results)."""

    #: Per-relation row cap for the scoring sample (stride-sampled).
    sample_limit: int = 256
    #: Seed for the random GAO sample (reproducible planning).
    seed: int = 0
    #: Worker-pool size available to plans (0 = serial only).
    workers: int = 0
    #: Shard count for parallel plans (0 = same as workers).
    shards: int = 0
    #: Minimum input size (total stored tuples) before a plan goes
    #: parallel; below it, pool overhead dominates.
    shard_threshold: int = 50_000
    #: Per-candidate scoring budget: a candidate GAO whose sample run
    #: exceeds this many probes or output rows, or ``SCORE_OPS_FACTOR``
    #: times as many CDS ops (interval_ops + constraints, the dominant
    #: cost term), is abandoned — its partial estimate is kept as a
    #: lower bound and it ranks after every fully-scored candidate.
    #: Bad GAOs are exactly the ones that blow up (Ex. B.6); without a
    #: cap, *measuring* them would cost what they were meant to avoid.
    score_budget: int = 20_000
    #: Default per-statement admission budget for sessions planned
    #: under this config (None = unbounded).  The planner itself never
    #: consults it — admission is an execution-time concern — but
    #: carrying it here lets one config object configure a whole
    #: serving stack (see ``Session.__init__``).
    budget: Optional["QueryBudget"] = None


def detect_triangle(query: Query) -> Optional[TriangleMapping]:
    """The (A, B, C) role mapping if ``query`` is triangle-shaped.

    Triangle-shaped means: exactly three binary atoms over exactly
    three variables, every variable in exactly two atoms, every atom
    pair sharing exactly one variable — the Q△ of Section 5.2 up to
    attribute renaming and column order.
    """
    if len(query.relations) != 3:
        return None
    if any(r.arity != 2 for r in query.relations):
        return None
    atoms = [(r.name, tuple(r.attributes)) for r in query.relations]
    variables = query.attributes()
    if len(variables) != 3:
        return None
    sets = [set(args) for _, args in atoms]
    for i in range(3):
        if len(sets[i]) != 2:
            return None
        for j in range(i + 1, 3):
            if len(sets[i] & sets[j]) != 1:
                return None
    # Roles per triangle_join: atom0 -> (A,B), atom1 -> (B,C),
    # atom2 -> (A,C).
    a = (sets[0] & sets[2]).pop()
    b = (sets[0] & sets[1]).pop()
    c = (sets[1] & sets[2]).pop()
    if len({a, b, c}) != 3:
        return None
    expected = [(a, b), (b, c), (a, c)]
    flipped = []
    for (name, args), want in zip(atoms, expected):
        if args == want:
            flipped.append(False)
        elif args == (want[1], want[0]):
            flipped.append(True)
        else:
            return None
    return TriangleMapping(
        vars=(a, b, c),
        atoms=tuple(name for name, _ in atoms),
        flipped=tuple(flipped),
    )


def sample_query(query: Query, limit: int) -> Tuple[Query, bool]:
    """A deterministic stride sample of ``query``, plus a sampled flag.

    Every relation keeps at most ``limit`` rows, taken at a uniform
    stride over its sorted tuple order (first row always included), so
    repeated planning runs see the identical sub-instance.  Fresh
    ``Relation`` copies are always built — scoring runs must never
    rebind counters on (or permute) the caller's live indexes.
    """
    sampled = False
    relations: List[Relation] = []
    for r in query.relations:
        rows = r.tuples()
        if limit > 0 and len(rows) > limit:
            stride = -(-len(rows) // limit)  # ceil division
            rows = rows[::stride]
            sampled = True
        relations.append(Relation(r.name, r.attributes, rows))
    return Query(relations), sampled


def triangle_edges(
    query: Query, mapping: TriangleMapping
) -> Tuple[List[Row], List[Row], List[Row]]:
    """Edge lists for ``triangle_join``, oriented per the role mapping."""
    out: List[List[Row]] = []
    for name, flip in zip(mapping.atoms, mapping.flipped):
        rows = query.relation(name).tuples()
        out.append([(v, u) for u, v in rows] if flip else list(rows))
    return out[0], out[1], out[2]


class Planner:
    """Stateful planner: owns the config and the op/call counters.

    ``plans_built`` and ``estimate_runs`` exist so callers (tests, the
    session stats, the plan-cache benchmark) can assert that a cache
    hit *skipped planning entirely* rather than replanned quickly.
    """

    def __init__(self, config: Optional[PlannerConfig] = None) -> None:
        self.config = config if config is not None else PlannerConfig()
        #: Number of plans actually constructed (one per cache miss;
        #: lookups that coalesce onto another reader's build add none).
        self.plans_built = 0
        #: Number of candidate-scoring engine runs performed.
        self.estimate_runs = 0
        #: Span tracer for candidate scoring (the serving session
        #: attaches its own; default is the free null implementation).
        from repro.obs.trace import NULL_TRACER

        self.tracer = NULL_TRACER

    # ------------------------------------------------------------------

    def plan(
        self,
        target,
        signature: str = "",
        generation: int = 0,
    ) -> Plan:
        """Build a plan for a :class:`LoweredQuery` or core ``Query``.

        ``generation`` is recorded on the plan as "planned at"; it is
        not part of any key.
        """
        if isinstance(target, LoweredQuery):
            query, alias_of = target.query, target.alias_of
            signature = signature or target.statement.signature()
        else:
            query, alias_of = target, {}
        config = self.config
        mapping = detect_triangle(query)
        sample, sampled = sample_query(query, config.sample_limit)

        if mapping is not None:
            gao = mapping.vars
            engine = ENGINE_TRIANGLE
            rationale = (
                "triangle-shaped query: the specialized dyadic-tree CDS "
                "avoids the generic CDS's Θ(|C|²) revisits (Theorem 5.4)"
            )
            scoreboard = [
                CandidatePlan(
                    ENGINE_TRIANGLE, gao,
                    self._score_triangle(sample, mapping), "findgap",
                    "winner: structural rule",
                )
            ]
        elif query.is_alpha_acyclic():
            # Yannakakis' work does not depend on the GAO (it only
            # orders the output), so any candidate serves: take the
            # first, which is deterministic.
            gao = self._candidates(query)[0]
            engine = ENGINE_YANNAKAKIS
            rationale = (
                "alpha-acyclic query: Yannakakis' full reducer runs in "
                "O(N + Z) with no cyclic residue to probe around "
                "(Section 4.4)"
            )
            scoreboard = [
                CandidatePlan(
                    ENGINE_YANNAKAKIS, gao,
                    self._score_yannakakis(sample, gao), "comparisons",
                    "winner: structural rule",
                )
            ]
        else:
            engine = ENGINE_MINESWEEPER
            rationale = (
                "cyclic non-triangle query: Minesweeper under the "
                "cheapest measured GAO (certificate estimates are "
                "data-dependent — Ex. B.6 — so candidates were run, "
                "not guessed)"
            )
            scoreboard = self._score_minesweeper(sample, query)
            gao = scoreboard[0].gao

        shards, workers = self._resources(engine, query)
        plan = Plan(
            signature=signature,
            engine=engine,
            gao=tuple(gao),
            strategy="auto",
            shards=shards,
            workers=workers,
            triangle=mapping,
            rationale=rationale,
            scoreboard=scoreboard,
            explanation=explain_structure(query, gao=list(gao)),
            generation=generation,
            cardinalities={
                alias_of.get(r.name, r.name): len(r)
                for r in query.relations
            },
            sampled=sampled,
            sample_limit=config.sample_limit,
        )
        self.plans_built += 1
        return plan

    def comparison_board(self, target) -> List[CandidatePlan]:
        """The ranked Minesweeper board for ``target``, scored now.

        What ``EXPLAIN`` shows beneath a structural winner: the
        decision never read it, so :meth:`plan` does not pay for it.
        """
        query = target.query if isinstance(target, LoweredQuery) else target
        sample, _ = sample_query(query, self.config.sample_limit)
        return self._score_minesweeper(sample, query)

    # ------------------------------------------------------------------
    # Candidate scoring (always on the sample, never on live indexes)
    # ------------------------------------------------------------------

    def _candidates(self, query: Query) -> List[Tuple[str, ...]]:
        return candidate_gaos(
            query,
            exhaustive_below=EXHAUSTIVE_BELOW,
            samples=RANDOM_CANDIDATES,
            neo_limit=NEO_LIMIT,
            seed=self.config.seed,
        )

    def _score_minesweeper(
        self, sample: Query, full: Query
    ) -> List[CandidatePlan]:
        """Score GAO candidates; ranked, ties broken lexicographically.

        Each candidate runs on the sample under a probe/output budget:
        a GAO that blows it is abandoned mid-run (its partial FindGap
        tally is a lower bound) and ranked after every fully-scored
        candidate, so one pathological order cannot make planning cost
        what the pathological order itself would.
        """
        import itertools as _it

        from repro.core.minesweeper import Minesweeper, MinesweeperError

        budget = self.config.score_budget
        board: List[CandidatePlan] = []
        for gao in self._candidates(full):
            counters = OpCounters()
            engine = Minesweeper(
                sample.with_gao(list(gao), counters=counters),
                max_probes=budget,
                max_ops=budget * SCORE_OPS_FACTOR,
            )
            capped = False
            with self.tracer.span("score", gao=",".join(gao)) as span:
                try:
                    # Consume at most budget output rows: huge-output
                    # candidates (near-cross-products) are as much of a
                    # scoring trap as probe-heavy ones.
                    rows_seen = sum(
                        1 for _ in _it.islice(engine.iterate(), budget + 1)
                    )
                    capped = rows_seen > budget
                except MinesweeperError:
                    capped = True
                span.set("estimate", counters.findgap)
                if capped:
                    span.set("capped", True)
            self.estimate_runs += 1
            board.append(
                CandidatePlan(
                    ENGINE_MINESWEEPER,
                    gao,
                    counters.findgap,
                    "findgap",
                    note="aborted at scoring budget" if capped else "",
                    capped=capped,
                )
            )
        board.sort(key=lambda c: (c.capped, c.estimate, c.gao))
        return board

    def _score_triangle(self, sample: Query, mapping: TriangleMapping) -> int:
        from repro.core.triangle import triangle_join

        r, s, t = triangle_edges(sample, mapping)
        counters = OpCounters()
        with self.tracer.span("score", engine=ENGINE_TRIANGLE) as span:
            triangle_join(r, s, t, counters)
            span.set("estimate", counters.findgap)
        self.estimate_runs += 1
        return counters.findgap

    def _score_yannakakis(
        self, sample: Query, gao: Sequence[str]
    ) -> int:
        from repro.baselines.yannakakis import yannakakis_join

        counters = OpCounters()
        with self.tracer.span("score", engine=ENGINE_YANNAKAKIS) as span:
            yannakakis_join(sample, list(gao), counters)
            span.set("estimate", counters.comparisons)
        self.estimate_runs += 1
        return counters.comparisons

    # ------------------------------------------------------------------

    def _resources(self, engine: str, query: Query) -> Tuple[int, int]:
        """(shards, workers) for the plan — parallel only when it pays.

        ``workers > 0`` requests a pool; ``shards > 0`` with no workers
        requests deterministic in-process sharding.  Either way the
        fan-out only engages on Minesweeper plans over inputs large
        enough to beat the slicing/pool overhead.
        """
        config = self.config
        if (
            engine != ENGINE_MINESWEEPER
            or (config.workers <= 0 and config.shards <= 0)
            or query.total_tuples() < config.shard_threshold
            or len(query.attributes()) < 2
        ):
            return 1, 0
        shards = config.shards if config.shards > 0 else config.workers
        return shards, max(config.workers, 0)

    def stats(self) -> dict:
        return {
            "plans_built": self.plans_built,
            "estimate_runs": self.estimate_runs,
        }


def plan_query(
    target,
    signature: str = "",
    generation: int = 0,
    config: Optional[PlannerConfig] = None,
) -> Plan:
    """One-shot convenience wrapper around :class:`Planner`."""
    return Planner(config).plan(
        target, signature=signature, generation=generation
    )

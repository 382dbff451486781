"""The cost-based planner: classify, enumerate, score, pick.

Given a lowered query (or a bare core ``Query``), the planner

1. **classifies** the hypergraph — triangle shape, alpha/beta
   acyclicity, elimination width (via :mod:`repro.hypergraph`);
2. **enumerates** candidate plans — the specialized dyadic-tree
   triangle engine when the shape fits (Theorem 5.4), Yannakakis for
   alpha-acyclic inputs, NPRR generic join for cyclic ones, and
   sharded/serial Minesweeper under GAO candidates from
   :func:`repro.core.gao_search.candidate_gaos` (NEOs, min-fill,
   seeded random permutations);
3. **scores** candidates by *measuring* them on a deterministic
   stride sample of the data — the paper's Ex. B.6 point is that no
   structural rule always finds the best GAO, so the planner runs the
   engine on a sample and reads its tallies off the counters;
4. **emits** an executable :class:`~repro.planner.plan.Plan` carrying
   the winner plus everything it scored for ``explain()``.

Engine choice is by measured work where the planner sees all the data.
On a cyclic (non-alpha-acyclic) query whose relations all fit the
sample and whose plan would not be sharded, generic join is scored
once under the first candidate GAO, then the triangle engine
(triangle-shaped queries) or every Minesweeper GAO (the rest), each
capped at an ops budget worth generic join's weighted work; the least
weighted work wins, ties going to the certificate-bound engine.
Weighted work is the run's tallied ops (:func:`engine_ops`) times one
committed ns/op constant per engine (:data:`NS_PER_OP`), so no clock
is read.  The paper's cyclic bounds (Thm 5.1, Õ(|C|^{w+1} + Z); Thm
5.4, Õ(|C|^{3/2} + Z)) beat the worst-case-optimal joins only where
|C| ≪ N, and only a measurement tells which regime an instance is in.
Elsewhere the pick is structural: triangle-shaped sampled queries go
to the dyadic-tree engine, alpha-acyclic queries to Yannakakis, the
rest to the Minesweeper GAO with the fewest sampled FindGaps.  The
Yannakakis rule is not a dominance: it is Θ(N + Z), while Theorem 2.7
bounds Minesweeper by Õ(|C| + Z) on beta-acyclic queries, so where
|C| ≪ N Minesweeper can win.  A structural pick scores one candidate —
the winner — and the Minesweeper board it would have been compared
against is built on demand (:meth:`Planner.comparison_board`, called
by ``EXPLAIN``).  Scoring and serving run an engine the same way:
:func:`engine_rows` returns a serial run's rows as an iterator for
every planned engine, so the scorer drains it and the session folds it
(only a sharded Minesweeper plan goes through ``run_join``).  There is
one scorer (:meth:`Planner._score_run`) and one scoring cap, in ops: a
Minesweeper run stops past :data:`SCORE_MAX_OPS`, and on a board
priced by work every run stops past the ops generic join's weighted
work buys.  No probe or row cap stands beside it: each probe inserts a
covering gap or the output point (Thm 3.2), so the ops cap bounds
both.  Everything is deterministic: sampling is stride-based, random
GAO candidates come from a seeded generator, scoring reads no clock,
and ties break lexicographically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.baselines.yannakakis import yannakakis_join
from repro.core.engine import ExecSpec, iterate_join
from repro.core.explain import explain as explain_structure
from repro.core.gao_search import candidate_gaos
from repro.core.generic_join import iterate_generic
from repro.core.query import Query
from repro.core.resilience import AdmittedQuery, BudgetExceeded, QueryBudget
from repro.core.triangle_arena import ArenaTriangleMinesweeper
from repro.lang.lower import LoweredQuery
from repro.planner.plan import (
    ENGINE_GENERIC,
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
#: The ops cap (the :class:`QueryBudget` measure, :func:`engine_ops`)
#: of every Minesweeper scoring run: a GAO that tallies more is
#: abandoned, its partial estimate kept as a lower bound, and it ranks
#: after every fully-scored candidate.  Bad GAOs are exactly the ones
#: that blow up (Ex. B.6); without a cap, *measuring* them would cost
#: what they were meant to avoid.  No probe or row cap is needed beside
#: it: every probe inserts a covering gap or the output point (Thm
#: 3.2), so probes and output rows are at most the tallied constraints.
SCORE_MAX_OPS = 160_000

#: Weighted work: ns per tallied op (:func:`engine_ops`), one constant
#: per engine whose board compares engines.  Measured in-process, warm,
#: as wall time over tallied ops (min of 5 runs, three sweeps on a
#: shared 2-core x86 box, CPython 3.11) on the ledger's serving
#: instances — ``cycle4`` (48 random edges over 24 nodes, one relation
#: closing a 4-cycle on itself), ``tri_rows`` (3 × 200 random edges over
#: 40 nodes) and ``count_tri`` (70 random edges over 30 nodes,
#: self-joined), Minesweeper under the three GAOs with fewest ops:
#:
#: * Minesweeper: 2.0–4.3 µs per (interval_ops + constraints), median
#:   about 2.9;
#: * triangle engine: 0.75–1.4 µs per interval op, median about 1.0;
#: * generic join: 0.65–1.9 µs per (comparisons + findgap), median
#:   about 1.2 (the smallest runs carry a fixed re-indexing cost).
#:
#: On the disjoint-range instances of ``tests/test_engine_regimes.py``
#: (a few dozen ops) fixed setup dominates every engine's wall time, so
#: they were not used to fit these.
NS_PER_OP = {
    ENGINE_MINESWEEPER: 2800,
    ENGINE_TRIANGLE: 1000,
    ENGINE_GENERIC: 1000,
}


@dataclass
class PlannerConfig:
    """Deterministic knobs for planning (not for execution results).

    Scoring has no knob: every candidate run is capped in ops alone
    (:data:`SCORE_MAX_OPS`, or the ops generic join's weighted work
    buys), with no probe or row cap beside it.
    """

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


def engine_ops(engine: str, counters: OpCounters) -> int:
    """The tallied ops ``engine``'s weighted work counts.

    Generic join tallies candidate values (``comparisons``) and probes
    (``findgap``); the CDS engines' measure is
    :class:`~repro.core.resilience.QueryBudget`'s own, so an ops budget
    of ``work // NS_PER_OP[engine]`` stops them exactly past ``work``.
    """
    if engine == ENGINE_GENERIC:
        return counters.comparisons + counters.findgap
    return counters.interval_ops + counters.constraints + counters.comparisons


def engine_rows(
    engine: str,
    query: Query,
    spec: ExecSpec,
    mapping: Optional[TriangleMapping],
    counters: OpCounters,
    admission: Optional[AdmittedQuery] = None,
) -> Iterator[Row]:
    """The rows of one serial run of ``engine``, ascending in
    ``spec.gao``, as a stream: at most ``spec.limit`` of them.

    Minesweeper, generic join and the triangle walk yield each row as
    they find it, so a consumer that stops early pays only for the
    work so far; Yannakakis hands its sorted list over as an iterator.
    Each engine checks ``admission`` from inside its own loop.
    ``mapping`` is the triangle role mapping, of which the triangle
    engine reads only the atoms and flips (``spec.gao`` names the
    rows' columns, in any renaming of its ``vars``); the other engines
    ignore it.
    """
    if engine == ENGINE_MINESWEEPER:
        return iterate_join(query, spec, counters, admission)[0]
    gao = list(spec.gao)
    rows: Iterator[Row]
    if engine == ENGINE_TRIANGLE:
        assert mapping is not None
        rows = ArenaTriangleMinesweeper(
            *triangle_edges(query, mapping), counters
        ).iterate(admission)
    elif engine == ENGINE_GENERIC:
        rows = iterate_generic(
            query.with_gao(gao, counters), counters, admission
        )
    else:
        rows = iter(yannakakis_join(query, gao, counters, admission))
    return rows if spec.limit is None else islice(rows, spec.limit)


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

        if (
            not sampled
            and not query.is_alpha_acyclic()
            and self._resources(ENGINE_MINESWEEPER, query) == (1, 0)
        ):
            rival = (
                "the triangle engine" if mapping is not None
                else "Minesweeper's GAOs"
            )
            scoreboard = self._score_by_work(sample, query, mapping)
            engine, gao = scoreboard[0].engine, scoreboard[0].gao
            if engine != ENGINE_TRIANGLE:
                mapping = None
            rationale = (
                "cyclic query on unsampled data: the least weighted work "
                f"of generic join and {rival}, measured (Thm 5.1/5.4 beat "
                "a worst-case-optimal join only where |C| ≪ N)"
            )
        elif mapping is not None:
            gao = mapping.vars
            engine = ENGINE_TRIANGLE
            rationale = (
                "triangle-shaped query: the specialized dyadic-tree CDS "
                "avoids the generic CDS's Θ(|C|²) revisits (Theorem 5.4)"
            )
            scoreboard = [
                self._score_run(
                    engine, sample, gao, mapping,
                    note="winner: structural rule",
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
                self._score_run(
                    engine, sample, gao, None,
                    note="winner: structural rule",
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
            scoreboard = self._minesweeper_board(sample, query)
            gao = scoreboard[0].gao

        shards, workers = self._resources(engine, query)
        plan = Plan(
            signature=signature,
            engine=engine,
            gao=tuple(gao),
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
        return self._minesweeper_board(sample, query)

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

    def _score_by_work(
        self,
        sample: Query,
        full: Query,
        mapping: Optional[TriangleMapping],
    ) -> List[CandidatePlan]:
        """Generic join, then the triangle engine or every Minesweeper
        GAO, ranked by weighted work; ties go to the CDS engine.

        Generic join is scored once, under the first candidate GAO (the
        pick Yannakakis takes too).  Its weighted work is the budget
        every later candidate runs under, in that engine's ops, so a
        loser is abandoned as soon as it has cost more: cold planning
        costs at most about (candidates + 1) generic runs.
        """
        generic = self._score_run(
            ENGINE_GENERIC, sample, self._candidates(full)[0], None
        )
        assert generic.work is not None
        if mapping is not None:
            rivals = [
                self._score_run(
                    ENGINE_TRIANGLE, sample, mapping.vars, mapping,
                    work_cap=generic.work,
                )
            ]
        else:
            rivals = self._minesweeper_board(
                sample, full, work_cap=generic.work
            )
        return sorted(
            [generic, *rivals],
            key=lambda c: (
                c.capped, c.work, c.engine == ENGINE_GENERIC,
                c.estimate, c.gao,
            ),
        )

    def _minesweeper_board(
        self, sample: Query, full: Query, work_cap: Optional[int] = None
    ) -> List[CandidatePlan]:
        """Every candidate GAO's Minesweeper run (:meth:`_score_run`),
        ranked: complete runs first, then by estimate, ties broken
        lexicographically."""
        return sorted(
            (
                self._score_run(
                    ENGINE_MINESWEEPER, sample, gao, None, work_cap
                )
                for gao in self._candidates(full)
            ),
            key=lambda c: (c.capped, c.estimate, c.gao),
        )

    def _score_run(
        self,
        engine: str,
        sample: Query,
        gao: Sequence[str],
        mapping: Optional[TriangleMapping],
        work_cap: Optional[int] = None,
        note: str = "",
    ) -> CandidatePlan:
        """One run of ``engine`` on the sample, scored in its own unit:
        FindGap for Minesweeper, the triangle engine and generic join,
        comparisons for Yannakakis.

        Under ``work_cap`` (weighted work, ns) the run is abandoned
        once it has cost more; a Minesweeper run is abandoned past
        :data:`SCORE_MAX_OPS` in any case.  The cap is an admission
        budget with no deadline, so scoring reads no clock.
        """
        counters = OpCounters()
        caps = [] if work_cap is None else [work_cap // NS_PER_OP[engine]]
        if engine == ENGINE_MINESWEEPER:
            caps.append(SCORE_MAX_OPS)
        admission = QueryBudget(max_ops=min(caps)).admit() if caps else None
        capped = False
        with self.tracer.span(
            "score", engine=engine, gao=",".join(gao)
        ) as span:
            try:
                # Drain the stream: an unconsumed one does no work.
                for _ in engine_rows(
                    engine, sample, ExecSpec(gao=tuple(gao)), mapping,
                    counters, admission,
                ):
                    pass
            except BudgetExceeded:
                capped = True
                span.set("capped", True)
            candidate = _candidate(
                engine, gao, counters, capped, work_cap, note
            )
            span.set("estimate", candidate.estimate)
        self.estimate_runs += 1
        return candidate

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


def _candidate(
    engine: str,
    gao: Sequence[str],
    counters: OpCounters,
    capped: bool,
    work_cap: Optional[int] = None,
    note: str = "",
) -> CandidatePlan:
    """A scored run as a board entry: its estimate, raw ops and (for an
    engine with an ns/op constant) weighted work."""
    ops = engine_ops(engine, counters)
    if capped:
        note = (
            "abandoned past generic join's work"
            if work_cap is not None
            and ops * NS_PER_OP[engine] > work_cap
            else "aborted at scoring budget"
        )
    if engine == ENGINE_YANNAKAKIS:
        return CandidatePlan(
            engine, tuple(gao), counters.comparisons, "comparisons", note,
            ops=ops,
        )
    return CandidatePlan(
        engine, tuple(gao), counters.findgap, "findgap", note, capped,
        ops=ops, work=ops * NS_PER_OP[engine],
    )


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

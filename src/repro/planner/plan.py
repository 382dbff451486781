"""The executable :class:`Plan` and its explain report.

A plan is everything the serving layer needs to run a query without
re-deciding anything: the engine (specialized triangle CDS, Yannakakis
for alpha-acyclic inputs, generic join, or sharded/serial Minesweeper),
the GAO and the shard/worker split — plus the evidence the planner
gathered (classification facts and the scored candidate scoreboard,
with each candidate's raw ops and weighted work), so ``explain()`` can
show *why* this plan won.

Plans are value objects: they hold no relation data, only names and
knobs, which is what makes them cacheable across executions (keyed by
query signature + catalog generation; see :mod:`repro.planner.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, List, Optional, Tuple

from repro.core.engine import ExecSpec
from repro.core.explain import Explanation, format_explanation

#: Engine identifiers a plan can carry.
ENGINE_TRIANGLE = "triangle"
ENGINE_YANNAKAKIS = "yannakakis"
ENGINE_MINESWEEPER = "minesweeper"
ENGINE_GENERIC = "generic"

#: A cost-based plan is stale once some body relation holds this many
#: times more — or fewer — rows than when the plan was built (or went
#: to or from empty).  Below that the sampled estimates that ranked
#: the GAOs still describe the data; re-planning buys nothing.
DRIFT_FACTOR = 2


@dataclass(frozen=True)
class TriangleMapping:
    """How a triangle-shaped query maps onto ``triangle_join``'s roles.

    ``triangle_join`` evaluates R(A,B) ⋈ S(B,C) ⋈ T(A,C).  ``vars`` is
    the (A, B, C) role assignment over the query's variables; ``atoms``
    names the query atom filling each role, and ``flipped[i]`` says the
    atom's stored column order is (role2, role1) and its edges must be
    swapped when fed to the engine.
    """

    vars: Tuple[str, str, str]
    atoms: Tuple[str, str, str]
    flipped: Tuple[bool, bool, bool]


@dataclass(frozen=True)
class CandidatePlan:
    """One scored entry of the planner's scoreboard."""

    engine: str
    gao: Tuple[str, ...]
    estimate: int
    #: What ``estimate`` counts: ``findgap`` (the Figure-2 certificate
    #: proxy; generic join's probes) for Minesweeper, triangle and
    #: generic candidates, ``comparisons`` for Yannakakis (its work is
    #: input-bound, not certificate-bound).  ``estimate`` ranks
    #: Minesweeper GAOs against each other when no other engine is in
    #: the running; engines are compared by ``work``.
    metric: str = "findgap"
    note: str = ""
    #: True when the scoring run hit its budget and was abandoned —
    #: ``estimate``, ``ops`` and ``work`` are then lower bounds, and the
    #: candidate ranks after every fully-scored one.
    capped: bool = False
    #: The run's tallied ops in its engine's work unit (see
    #: :func:`repro.planner.planner.engine_ops`).
    ops: int = 0
    #: ``ops`` weighted by the engine's committed ns/op constant
    #: (:data:`repro.planner.planner.NS_PER_OP`), in ns; ``None`` for
    #: an engine without one (Yannakakis).
    work: Optional[int] = None


@dataclass
class Plan:
    """An executable engine configuration for one query signature.

    ``engine`` is the planner's pick: on an unsampled, unsharded cyclic
    query, the candidate (generic join, the triangle engine or a
    Minesweeper GAO) with the least measured weighted work on the
    data; otherwise the structural pick (triangle engine, Yannakakis)
    or the Minesweeper GAO with the fewest sampled FindGaps.
    ``scoreboard`` is what was scored, ranked, winner first.
    """

    signature: str
    engine: str
    gao: Tuple[str, ...]
    strategy: str = "auto"
    #: Not plan fields: a plan picks no index or CDS tier (every run
    #: uses the fast tier).  Kept as ``None`` constants only because the
    #: frozen perf ledger's ``benchmarks/ledger/layers.py::_engine_call``
    #: reads them; ROADMAP items 2(b) and 7(a) remove them.
    backend: ClassVar[Optional[str]] = None
    cds_backend: ClassVar[Optional[str]] = None
    shards: int = 1
    workers: int = 0
    triangle: Optional[TriangleMapping] = None
    rationale: str = ""
    scoreboard: List[CandidatePlan] = field(default_factory=list)
    explanation: Optional[Explanation] = None
    #: Catalog generation the plan was built at — reported by
    #: ``explain()``, never compared: a write does not stale a plan.
    generation: int = 0
    #: Stored relation name -> row count when the plan was built (the
    #: drift baseline; see :meth:`drifted`).
    cardinalities: Dict[str, int] = field(default_factory=dict)
    #: True when candidate estimates were measured on a down-sampled
    #: instance rather than the full data.
    sampled: bool = False
    sample_limit: int = 0

    @property
    def compared_by_work(self) -> bool:
        """True when the planner picked the engine by comparing measured
        weighted work (generic join was scored against the others)."""
        return any(c.engine == ENGINE_GENERIC for c in self.scoreboard)

    def drifted(self, sizes: Mapping[str, int]) -> bool:
        """True when the data has moved enough to re-plan.

        A plan drifts when measured cost picked it: a Minesweeper GAO,
        or any engine whose board compared engines by weighted work —
        cost follows the data.  A structural pick (Yannakakis, or the
        triangle engine on a sampled input) is a rule about the query's
        shape (Theorem 5.4, Section 4.4) that no data change overturns.
        ``sizes`` maps each body relation to its current row count.
        """
        if self.engine != ENGINE_MINESWEEPER and not self.compared_by_work:
            return False
        for name, then in self.cardinalities.items():
            small, large = sorted((then, sizes[name]))
            # large > 0 keeps empty -> empty current; to or from empty
            # (small == 0) always drifts.
            if large > 0 and large >= DRIFT_FACTOR * small:
                return True
        return False

    def spec(self, gao: Tuple[str, ...]) -> ExecSpec:
        """The plan's Minesweeper run configuration over ``gao`` — the
        plan's own order, or its localization to a statement's variable
        names (the serving layer's case)."""
        return ExecSpec(
            gao=gao,
            strategy=self.strategy,
            shards=self.shards,
            workers=self.workers,
        )

    def knobs(self, rename: Optional[dict] = None) -> str:
        gao = (
            tuple(rename.get(v, v) for v in self.gao)
            if rename
            else self.gao
        )
        parts = [f"engine={self.engine}", f"gao={','.join(gao)}"]
        if self.engine == ENGINE_MINESWEEPER:
            parts.append(f"strategy={self.strategy}")
        if self.shards > 1 or self.workers > 0:
            parts.append(f"shards={self.shards}")
            parts.append(f"workers={self.workers}")
        return " ".join(parts)

    def explain(
        self,
        rename: Optional[dict] = None,
        comparison: Sequence[CandidatePlan] = (),
        generation: Optional[int] = None,
        sizes: Optional[Mapping[str, int]] = None,
    ) -> str:
        """The full report: plan, age, rationale, structure, scoreboard.

        The structural section reuses the engine's EXPLAIN rendering
        (:func:`repro.core.explain.format_explanation`); the scoreboard
        lists every candidate the planner scored, ranked, with the
        winner marked — the Ex.-B.6 point made visible: the best GAO is
        data-dependent, so the planner *measured* instead of guessing.
        Each row shows the candidate's estimate, its raw ops and its
        weighted work (ops × the engine's ns/op constant), the figure
        engines are compared by.  When a structural rule picked the
        engine only the winner was scored; ``comparison`` is the
        Minesweeper board the caller scored on demand
        (:meth:`Planner.comparison_board`), listed beneath it.

        Everything the plan carries describes the data *as of plan
        time*, and plans outlive writes — so the report says when that
        was: the generation planned at and each relation's row count
        then, beside the catalog's current ``generation`` and ``sizes``
        when the caller has them.

        ``rename`` maps the plan's canonical variable names (``v0``,
        ``v1``, ...) back to a statement's own variables; the serving
        layer passes it so users read the report in the names they
        wrote (the substitution is single-pass, so swaps like
        v0→v1, v1→v0 are safe).
        """
        lines = self._render(comparison)
        if rename:
            import re

            lines = [
                re.sub(
                    r"\bv\d+\b",
                    lambda m: rename.get(m.group(), m.group()),
                    line,
                )
                for line in lines
            ]
        # Spliced in after renaming: relation names are not variables.
        lines[1:1] = self._age(generation, sizes)
        return "\n".join(lines)

    def _age(
        self,
        generation: Optional[int],
        sizes: Optional[Mapping[str, int]],
    ) -> List[str]:
        """When the plan was built, and how far the data has moved."""
        now = "" if generation is None else f" (now {generation})"
        lines = [f"planned at       : generation {self.generation}{now}"]
        for name, then in self.cardinalities.items():
            if sizes is None:
                lines.append(f"cardinality      : {name} {then}")
                continue
            current = sizes[name]
            ratio = f"×{current / then:.2f}" if then else "was empty"
            lines.append(
                f"cardinality      : {name} {then} → {current} ({ratio})"
            )
        return lines

    def _render(self, comparison: Sequence[CandidatePlan]) -> List[str]:
        lines = [f"plan             : {self.knobs()}"]
        lines.append(f"rationale        : {self.rationale}")
        if self.sampled:
            lines.append(
                "estimates        : measured on a deterministic sample "
                f"(<= {self.sample_limit} rows/relation)"
            )
        else:
            lines.append("estimates        : measured on the full data")
        if self.explanation is not None:
            lines.append(format_explanation(self.explanation))
        if self.scoreboard:
            lines.append("candidates       :")
            width = max(
                len(",".join(c.gao))
                for c in (*self.scoreboard, *comparison)
            )

            def row(marker: str, cand: CandidatePlan) -> str:
                note = f"  {cand.note}" if cand.note else ""
                work = (
                    "" if cand.work is None
                    else f" {cand.work / 1000:>9.1f} µs work"
                )
                return (
                    f"  {marker} {cand.engine:<12s} "
                    f"{','.join(cand.gao):<{width}s}  "
                    f"{cand.estimate:>8d} {cand.metric:<11s} "
                    f"{cand.ops:>8d} ops{work}{note}"
                )

            for i, cand in enumerate(self.scoreboard):
                lines.append(row("*" if i == 0 else " ", cand))
            if comparison:
                lines.append(
                    "  for comparison, scored on demand against the "
                    "current data:"
                )
                lines.extend(row(" ", cand) for cand in comparison)
        return lines

    def __repr__(self) -> str:
        return f"Plan({self.knobs()}, generation={self.generation})"

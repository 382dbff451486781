"""The executable :class:`Plan` and its explain report.

A plan is everything the serving layer needs to run a query without
re-deciding anything: the engine (specialized triangle CDS, Yannakakis
for alpha-acyclic inputs, or sharded/serial Minesweeper), the GAO, the
storage/CDS backends, and the shard/worker split — plus the evidence
the planner gathered (classification facts and the scored candidate
scoreboard), so ``explain()`` can show *why* this plan won.

Plans are value objects: they hold no relation data, only names and
knobs, which is what makes them cacheable across executions (keyed by
query signature + catalog generation; see :mod:`repro.planner.cache`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.engine import ExecSpec
from repro.core.explain import Explanation, format_explanation

#: Engine identifiers a plan can carry.
ENGINE_TRIANGLE = "triangle"
ENGINE_YANNAKAKIS = "yannakakis"
ENGINE_MINESWEEPER = "minesweeper"


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
    #: proxy) for Minesweeper/triangle candidates, ``comparisons`` for
    #: Yannakakis (its work is input-bound, not certificate-bound).
    metric: str = "findgap"
    note: str = ""
    #: True when the scoring run hit the probe/output budget and was
    #: abandoned — ``estimate`` is then a lower bound, and the
    #: candidate ranks after every fully-scored one.
    capped: bool = False


@dataclass
class Plan:
    """An executable engine configuration for one query signature."""

    signature: str
    engine: str
    gao: Tuple[str, ...]
    strategy: str = "auto"
    backend: Optional[str] = None
    cds_backend: Optional[str] = None
    shards: int = 1
    workers: int = 0
    triangle: Optional[TriangleMapping] = None
    rationale: str = ""
    scoreboard: List[CandidatePlan] = field(default_factory=list)
    explanation: Optional[Explanation] = None
    #: Catalog generation the plan was built against (cache key part).
    generation: int = 0
    #: True when candidate estimates were measured on a down-sampled
    #: instance rather than the full data.
    sampled: bool = False
    sample_limit: int = 0

    def spec(self, gao: Tuple[str, ...]) -> ExecSpec:
        """The plan's Minesweeper run configuration over ``gao`` — the
        plan's own order, or its localization to a statement's variable
        names (the serving layer's case)."""
        return ExecSpec(
            gao=gao,
            strategy=self.strategy,
            backend=self.backend,
            cds_backend=self.cds_backend,
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
        if self.backend:
            parts.append(f"backend={self.backend}")
        if self.cds_backend:
            parts.append(f"cds_backend={self.cds_backend}")
        return " ".join(parts)

    def explain(self, rename: Optional[dict] = None) -> str:
        """The full report: plan, rationale, structure, scoreboard.

        The structural section reuses the engine's EXPLAIN rendering
        (:func:`repro.core.explain.format_explanation`); the scoreboard
        lists every candidate the planner scored, ranked, with the
        winner marked — the Ex.-B.6 point made visible: the best GAO is
        data-dependent, so the planner *measured* instead of guessing.

        ``rename`` maps the plan's canonical variable names (``v0``,
        ``v1``, ...) back to a statement's own variables; the serving
        layer passes it so users read the report in the names they
        wrote (the substitution is single-pass, so swaps like
        v0→v1, v1→v0 are safe).
        """
        text = self._render()
        if rename:
            import re

            text = re.sub(
                r"\bv\d+\b", lambda m: rename.get(m.group(), m.group()),
                text,
            )
        return text

    def _render(self) -> str:
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
                len(",".join(c.gao)) for c in self.scoreboard
            )
            for i, cand in enumerate(self.scoreboard):
                marker = "*" if i == 0 else " "
                note = f"  {cand.note}" if cand.note else ""
                lines.append(
                    f"  {marker} {cand.engine:<12s} "
                    f"{','.join(cand.gao):<{width}s}  "
                    f"{cand.estimate:>8d} {cand.metric}{note}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Plan({self.knobs()}, generation={self.generation})"

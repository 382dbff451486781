"""Executable Proposition 2.5: a Minesweeper run *emits* a certificate.

The proposition says the set of comparisons any comparison-based join
algorithm performs is a certificate for the instance.  This module makes
that executable: it observes every ``FindGap`` the Minesweeper engine
issues (via the engine's ``gap_hook``), translates each gap into symbolic
comparisons between index variables, and returns the resulting
:class:`~repro.certificates.comparisons.Argument` — which the randomized
Definition-2.3 checker can then (fail to) refute.

Translating a gap needs *provenance*: ``FindGap(x, a)`` compares tree
positions against the probe value ``a``, and a comparison must name two
variables, not a constant.  Probe values originate from gap endpoints —
i.e. from earlier-seen variables — so the recorder keeps a registry
mapping (attribute, value) to every variable observed to hold it.  Gaps
around a value with no registered source (the synthetic -1 / t±1 probe
values) contribute the same-relation endpoint comparison only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.certificates.comparisons import Argument, Comparison, Variable
from repro.core.minesweeper import Minesweeper
from repro.core.query import PreparedQuery
from repro.storage.relation import Relation


class CertificateRecorder:
    """Run Minesweeper while extracting the comparisons it performs."""

    def __init__(self, query: PreparedQuery, strategy: str = "auto") -> None:
        self.query = query
        self.engine = Minesweeper(query, strategy=strategy)
        self.engine.gap_hook = self._on_gap
        self.argument = Argument()
        # (attribute, value) -> every variable observed holding value.
        self._sources: Dict[Tuple[str, int], List[Variable]] = {}

    # ------------------------------------------------------------------

    def run(self) -> Tuple[List[Tuple[int, ...]], Argument]:
        """Evaluate the query; return (output rows, recorded argument)."""
        rows = self.engine.run()
        for row in rows:
            self._record_output_equalities(row)
        return rows, self.argument

    # ------------------------------------------------------------------

    def _register(self, attribute: str, value: int, var: Variable) -> None:
        bucket = self._sources.setdefault((attribute, value), [])
        if var not in bucket:
            if bucket:
                # Tie equal-valued variables together as they appear; the
                # transitive closure keeps the value class connected.
                self.argument.add(Comparison(bucket[0], "=", var))
            bucket.append(var)

    def _source_of(self, attribute: str, value: int) -> Optional[Variable]:
        bucket = self._sources.get((attribute, value))
        return bucket[0] if bucket else None

    def _on_gap(
        self,
        relation: Relation,
        gao_position: int,
        chain: Tuple[int, ...],
        target: int,
        lo_idx: int,
        hi_idx: int,
    ) -> None:
        attribute = self.query.gao[gao_position]
        index = relation.index
        fan = index.fanout(chain)
        lo_var = hi_var = None
        if 1 <= lo_idx <= fan:
            lo_var = Variable(relation.name, chain + (lo_idx,))
            lo_value = index.value(chain + (lo_idx,))
            assert isinstance(lo_value, int)
            self._register(attribute, lo_value, lo_var)
        if 1 <= hi_idx <= fan and hi_idx != lo_idx:
            hi_var = Variable(relation.name, chain + (hi_idx,))
            hi_value = index.value(chain + (hi_idx,))
            assert isinstance(hi_value, int)
            self._register(attribute, hi_value, hi_var)
        source = self._source_of(attribute, target)
        if lo_idx == hi_idx:
            # target present: R[chain + (lo,)] = source-of-target.
            if source is not None and lo_var is not None:
                self.argument.add(Comparison(lo_var, "=", source))
            return
        if source is not None:
            if lo_var is not None:
                self.argument.add(Comparison(lo_var, "<", source))
            if hi_var is not None:
                self.argument.add(Comparison(source, "<", hi_var))
        elif lo_var is not None and hi_var is not None:
            # Synthetic probe value: keep the same-relation order fact.
            self.argument.add(Comparison(lo_var, "<", hi_var))

    # ------------------------------------------------------------------

    def _record_output_equalities(self, row: Tuple[int, ...]) -> None:
        """Tie each output tuple's witness variables with equalities.

        Every relation's full index tuple contributing to the output is
        reconstructed and its per-level variables are registered; the
        registry then links equal-valued variables across relations.
        """
        for relation in self.query.relations:
            projected = self.query.project(relation.name, row)
            chain: Tuple[int, ...] = ()
            for level, value in enumerate(projected):
                keys = relation.index.child_values(chain)
                position = keys.index(value) + 1
                chain = chain + (position,)
                self._register(
                    relation.attributes[level],
                    value,
                    Variable(relation.name, chain),
                )


def record_certificate(
    query: PreparedQuery, strategy: str = "auto"
) -> Tuple[List[Tuple[int, ...]], Argument]:
    """Convenience wrapper: run the recorder, return (rows, argument)."""
    return CertificateRecorder(query, strategy).run()

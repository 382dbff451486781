"""Natural-join queries and global attribute orders (paper Section 2.1).

A :class:`Query` is a multiset of atoms (relations); its output is the
natural join ⋈_{R ∈ atoms(Q)} R.  Engines require the query to be *prepared*
for a GAO: every relation's column order must be the restriction of the GAO
to its attributes (that is what "indexed consistently with the GAO" means).
``Query.with_gao`` re-indexes relations to satisfy this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hypergraph.acyclicity import (
    is_alpha_acyclic,
    is_beta_acyclic,
    nested_elimination_order,
)
from repro.hypergraph.elimination import (
    elimination_width,
    is_nested_elimination_order,
    min_fill_order,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.storage.relation import BACKENDS, DEFAULT_BACKEND, Relation
from repro.util.counters import OpCounters


class Query:
    """A natural join over named relations."""

    def __init__(self, relations: Sequence[Relation]) -> None:
        if not relations:
            raise ValueError("a query needs at least one atom")
        names = [r.name for r in relations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate relation names in {names}")
        self.relations: List[Relation] = list(relations)
        self._by_name: Dict[str, Relation] = {r.name: r for r in relations}

    def __repr__(self) -> str:
        atoms = " ⋈ ".join(
            f"{r.name}({','.join(r.attributes)})" for r in self.relations
        )
        return f"Query[{atoms}]"

    def relation(self, name: str) -> Relation:
        return self._by_name[name]

    def attributes(self) -> List[str]:
        """All attributes, in first-appearance order."""
        seen: List[str] = []
        for r in self.relations:
            for a in r.attributes:
                if a not in seen:
                    seen.append(a)
        return seen

    def hypergraph(self) -> Hypergraph:
        return Hypergraph({r.name: r.attributes for r in self.relations})

    def is_alpha_acyclic(self) -> bool:
        return is_alpha_acyclic(self.hypergraph())

    def is_beta_acyclic(self) -> bool:
        return is_beta_acyclic(self.hypergraph())

    def total_tuples(self) -> int:
        """N — the input size."""
        return sum(len(r) for r in self.relations)

    def max_arity(self) -> int:
        """r — the maximum arity over atoms."""
        return max(r.arity for r in self.relations)

    # ------------------------------------------------------------------
    # GAO handling
    # ------------------------------------------------------------------

    def is_gao_consistent(self, gao: Sequence[str]) -> bool:
        """True iff every relation's column order follows ``gao``."""
        if set(gao) != set(self.attributes()) or len(set(gao)) != len(gao):
            return False
        position = {a: i for i, a in enumerate(gao)}
        for r in self.relations:
            ranks = [position[a] for a in r.attributes]
            if ranks != sorted(ranks):
                return False
        return True

    def check_gao(self, gao: Sequence[str]) -> None:
        """Raise ``ValueError`` unless ``gao`` orders exactly the
        query's attributes."""
        if set(gao) != set(self.attributes()) or len(set(gao)) != len(gao):
            raise ValueError(
                f"GAO {list(gao)} is not a permutation of "
                f"{self.attributes()}"
            )

    def with_gao(
        self,
        gao: Sequence[str],
        counters: Optional[OpCounters] = None,
        backend: Optional[str] = None,
    ) -> "PreparedQuery":
        """Re-index every relation consistently with ``gao``.

        Column permutation rebuilds each trie; the result is a
        :class:`PreparedQuery` whose relations all share ``counters``.
        ``backend`` overrides every relation's storage backend (see
        :data:`repro.storage.relation.BACKENDS`); by default each
        relation keeps the backend it was constructed with.
        """
        gao = list(gao)
        self.check_gao(gao)
        shared = counters if counters is not None else OpCounters()
        position = {a: i for i, a in enumerate(gao)}
        prepared: List[Relation] = []

        def resolved(name: str) -> str:
            # "auto" and its resolution are the same index: don't rebuild.
            return DEFAULT_BACKEND if name == "auto" else name

        for r in self.relations:
            ordered_attrs = sorted(r.attributes, key=position.__getitem__)
            if tuple(ordered_attrs) == r.attributes and (
                backend is None or resolved(backend) == resolved(r.backend)
            ):
                r.rebind_counters(shared)
                prepared.append(r)
                continue
            column_of = {a: i for i, a in enumerate(r.attributes)}
            perm = [column_of[a] for a in ordered_attrs]
            rows = [tuple(row[i] for i in perm) for row in r.tuples()]
            if backend is not None:
                rebuilt_backend = backend
            elif r.backend in BACKENDS:
                rebuilt_backend = r.backend
            else:
                # A wrapped live index (Relation.from_index, e.g. a
                # DeltaRelation): its label is not a buildable backend,
                # so the re-indexed copy — a static snapshot of the
                # current contents — uses the default one.
                rebuilt_backend = DEFAULT_BACKEND
            prepared.append(
                Relation(
                    r.name,
                    ordered_attrs,
                    rows,
                    counters=shared,
                    backend=rebuilt_backend,
                )
            )
        return PreparedQuery(prepared, gao, shared)

    def choose_gao(self) -> Tuple[List[str], str]:
        """Pick a GAO per the paper: NEO if beta-acyclic, else min-fill."""
        h = self.hypergraph()
        neo = nested_elimination_order(h)
        if neo is not None:
            return neo, "neo"
        return min_fill_order(h), "minfill"


class PreparedQuery(Query):
    """A query whose relations are indexed consistently with a fixed GAO."""

    def __init__(
        self,
        relations: Sequence[Relation],
        gao: Sequence[str],
        counters: OpCounters,
    ) -> None:
        super().__init__(relations)
        self.gao: Tuple[str, ...] = tuple(gao)
        self.counters = counters
        if not self.is_gao_consistent(self.gao):
            raise ValueError(
                f"relations are not indexed consistently with GAO {gao}"
            )
        position = {a: i for i, a in enumerate(self.gao)}
        #: For each relation, the 0-based GAO positions of its attributes.
        self.gao_positions: Dict[str, List[int]] = {
            r.name: [position[a] for a in r.attributes]
            for r in self.relations
        }

    @property
    def n(self) -> int:
        """Number of attributes."""
        return len(self.gao)

    def is_neo_gao(self) -> bool:
        """True iff the GAO is a nested elimination order for the query."""
        return is_nested_elimination_order(self.hypergraph(), self.gao)

    def gao_elimination_width(self) -> int:
        return elimination_width(self.hypergraph(), self.gao)

    def project(self, name: str, row: Sequence[int]) -> Tuple[int, ...]:
        """Project a full GAO-ordered tuple onto relation ``name``."""
        return tuple(row[p] for p in self.gao_positions[name])


def naive_join(query: Query, gao: Optional[Sequence[str]] = None) -> List[Tuple[int, ...]]:
    """Ground-truth natural join by iterative hash expansion.

    Output tuples are ordered by ``gao`` (default: first-appearance order).
    Intended for correctness checking; complexity is not a goal.
    """
    order = list(gao) if gao is not None else query.attributes()
    position = {a: i for i, a in enumerate(order)}
    partial: List[Dict[str, int]] = [{}]
    for r in query.relations:
        new_partial: List[Dict[str, int]] = []
        rows = r.tuples()
        for binding in partial:
            for row in rows:
                merged = dict(binding)
                ok = True
                for attr, val in zip(r.attributes, row):
                    if attr in merged and merged[attr] != val:
                        ok = False
                        break
                    merged[attr] = val
                if ok:
                    new_partial.append(merged)
        partial = new_partial
    out = {
        tuple(binding[a] for a in order)
        for binding in partial
        if len(binding) == len(order)
    }
    return sorted(out)

"""Relation: a named, schema'd, indexed input to a join query.

A :class:`Relation` couples

* a name (``"R"``),
* a schema — the tuple of attribute names in index order (which must be a
  subsequence of the global attribute order when used in a query), and
* an index over its tuples.

Per the paper's model, the index order *is* the storage order: engines
reach the relation only through its index — the handle API
(``root_handle`` / ``gap_at`` / ``value_at`` / ``child_at``) for
level-by-level descent, or the paper's index-tuple API (``find_gap`` /
``value`` / ``child_values``,
:class:`repro.storage.index_tuple.IndexTupleAPI`) derived from it —
plus full-tuple iteration for the baselines, which model scans.

Backends (the ``backend`` flag; ``"auto"`` is the default):

* ``"flat"`` — :class:`repro.storage.flat_trie.FlatTrieRelation`, the
  CSR array-backed index of the fast tier (what ``"auto"`` resolves to);
* ``"trie"`` — the pointer-node :class:`repro.storage.trie.TrieRelation`,
  the plain tier's index (the reference the flat trie is
  property-checked against);
* ``"btree"`` — routes the tuples through a
  :class:`repro.storage.btree.BTree` before building the pointer trie,
  exercising the paper's claim that a B-tree keyed consistently with the
  GAO realizes the same index model.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.storage.btree import BTree
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.trie import TrieRelation
from repro.util.counters import OpCounters

#: Accepted values for ``Relation(..., backend=...)``.
BACKENDS = ("auto", "flat", "trie", "btree")

#: What ``"auto"`` resolves to — the array-backed engine.
DEFAULT_BACKEND = "flat"


def _validate_schema(name: str, attributes: Sequence[str]) -> Tuple[str, ...]:
    """Shared name/schema checks; returns the attribute tuple."""
    if not name:
        raise ValueError("relation name must be non-empty")
    attrs = tuple(attributes)
    if len(set(attrs)) != len(attrs):
        raise ValueError(f"duplicate attribute in schema {attrs}")
    if not attrs:
        raise ValueError("relation must have at least one attribute")
    return attrs


class Relation:
    """An indexed relation instance."""

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        tuples: Iterable[Sequence[int]],
        counters: Optional[OpCounters] = None,
        backend: str = "auto",
    ) -> None:
        attrs = _validate_schema(name, attributes)
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; pick from {BACKENDS}")
        rows = [tuple(t) for t in tuples]
        for row in rows:
            if len(row) != len(attrs):
                raise ValueError(
                    f"tuple {row} does not match schema {attrs} of {name}"
                )
        self.name = name
        self.attributes: Tuple[str, ...] = attrs
        self.backend = backend
        self.counters = counters if counters is not None else OpCounters()
        resolved = DEFAULT_BACKEND if backend == "auto" else backend
        if resolved == "btree":
            tree = BTree(rows)
            rows = list(tree)
            self.index = TrieRelation(
                rows, arity=len(attrs), counters=self.counters
            )
        elif resolved == "trie":
            self.index = TrieRelation(
                rows, arity=len(attrs), counters=self.counters
            )
        else:
            self.index = FlatTrieRelation(
                rows, arity=len(attrs), counters=self.counters
            )

    @classmethod
    def from_index(
        cls,
        name: str,
        attributes: Sequence[str],
        # Any index exposing the trie interface (typically a live
        # DeltaRelation; importing it here would cycle the layer).
        index: Any,
        counters: Optional[OpCounters] = None,
        backend: str = "delta",
    ) -> "Relation":
        """Wrap an existing (possibly live) index without copying it.

        Used by the dynamic subsystem to expose a writable
        :class:`repro.storage.delta.DeltaRelation` to the engines: the
        wrapper shares the index object, so updates applied to the index
        are visible through the relation immediately.  ``backend`` is a
        label only; the index is taken as-is.  Note that if
        ``Query.with_gao`` must re-index such a relation (column
        reorder or explicit backend override), the rebuilt copy is a
        *static snapshot* of the live contents at that moment.
        """
        attrs = _validate_schema(name, attributes)
        if len(attrs) != index.arity:
            raise ValueError(
                f"schema {attrs} does not match index arity {index.arity}"
            )
        self = cls.__new__(cls)
        self.name = name
        self.attributes = attrs
        self.backend = backend
        if counters is None:
            counters = (
                index.counters if index.counters is not None else OpCounters()
            )
        self.counters = counters
        index.counters = counters
        self.index = index
        return self

    @property
    def arity(self) -> int:
        return self.index.arity

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, row: Sequence[int]) -> bool:
        return tuple(row) in self.index

    def __repr__(self) -> str:
        cols = ", ".join(self.attributes)
        return f"Relation({self.name}({cols}), {len(self)} tuples)"

    def tuples(self) -> List[Tuple[int, ...]]:
        """All tuples in GAO-lexicographic order."""
        return self.index.tuples()

    def projection(self, row: Sequence[int], gao: Sequence[str]) -> Tuple[int, ...]:
        """Project a full GAO-ordered output tuple onto this relation.

        ``row`` lists one value per GAO attribute; the result follows this
        relation's own attribute order.
        """
        position = {attr: i for i, attr in enumerate(gao)}
        return tuple(row[position[attr]] for attr in self.attributes)

    def rebind_counters(self, counters: OpCounters) -> None:
        """Point the index's instrumentation at a shared counter object."""
        self.counters = counters
        self.index.counters = counters

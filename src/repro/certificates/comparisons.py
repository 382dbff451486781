"""Arguments and certificates (paper Section 2.2).

A *variable* is an indexed position ``R[x1..xj]`` in a relation's search
tree; a *comparison* relates two variables on the same attribute with one
of <, =, >.  An :class:`Argument` is a set of comparisons; it is a
*certificate* (Definition 2.3) when every pair of instances defining the
same variables and satisfying the argument has the same witnesses.

Variables are value-oblivious: they name tree positions, not values.  An
instance assigns values; :func:`variable_value` reads the assignment off a
relation's trie.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Set, Tuple

from repro.core.query import PreparedQuery
from repro.storage.trie import TrieRelation
from repro.util.sentinels import ExtendedValue

IndexTuple = Tuple[int, ...]


@dataclass(frozen=True)
class Variable:
    """R[x1..xj] — position ``index`` in relation ``relation``'s trie."""

    relation: str
    index: IndexTuple

    @property
    def depth(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        body = ",".join(map(str, self.index))
        return f"{self.relation}[{body}]"


@dataclass(frozen=True)
class Comparison:
    """``left op right`` with op in {'<', '=', '>'}."""

    left: Variable
    op: str
    right: Variable

    def __post_init__(self) -> None:
        if self.op not in ("<", "=", ">"):
            raise ValueError(f"bad comparison operator {self.op!r}")

    def normalized(self) -> "Comparison":
        """Canonical orientation: '>' rewritten as '<' with sides swapped."""
        if self.op == ">":
            return Comparison(self.right, "<", self.left)
        return self

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


class Argument:
    """A set of comparisons over a query's index variables."""

    def __init__(self, comparisons: Iterable[Comparison] = ()) -> None:
        self._comparisons: Set[Comparison] = {
            c.normalized() for c in comparisons
        }

    def add(self, comparison: Comparison) -> None:
        self._comparisons.add(comparison.normalized())

    def __len__(self) -> int:
        return len(self._comparisons)

    def __iter__(self) -> Iterator[Comparison]:
        return iter(self._comparisons)

    def variables(self) -> Set[Variable]:
        out: Set[Variable] = set()
        for c in self._comparisons:
            out.add(c.left)
            out.add(c.right)
        return out

    def satisfied_by(self, query: PreparedQuery) -> bool:
        """Check every comparison against the instance's variable values."""
        for c in self._comparisons:
            left = variable_value(query, c.left)
            right = variable_value(query, c.right)
            ok = (
                left < right
                if c.op == "<"
                else left == right
                if c.op == "="
                else left > right
            )
            if not ok:
                return False
        return True


def variable_value(query: PreparedQuery, var: Variable) -> ExtendedValue:
    """The instance's value for R[x] (coordinates must be in range)."""
    return query.relation(var.relation).index.value(var.index)


def enumerate_variables(index: TrieRelation) -> List[IndexTuple]:
    """All valid index tuples of a relation's trie, shallowest first.

    Uses the backend-neutral handle API, so it works for both the
    pointer trie and the flat (CSR) trie.
    """
    out: List[IndexTuple] = []
    stack: List[Tuple[IndexTuple, object]] = [((), index.root_handle())]
    while stack:
        prefix, node = stack.pop()
        for i in range(1, len(index.node_keys(node)) + 1):
            tuple_here = prefix + (i,)
            out.append(tuple_here)
            child = index.child_at(node, i)
            if child is not None:
                stack.append((tuple_here, child))
    out.sort(key=len)
    return out


Witness = FrozenSet[Tuple[str, IndexTuple]]


def witnesses(query: PreparedQuery) -> Set[Witness]:
    """All witnesses of Q(I): one full index tuple per relation per output.

    Because relations have set semantics, each output tuple has exactly one
    contributing full index tuple per relation; a witness is the frozen set
    of (relation name, full index tuple) pairs.
    """
    from repro.core.query import naive_join

    rows = naive_join(query, query.gao)
    out: Set[Witness] = set()
    for row in rows:
        members: List[Tuple[str, IndexTuple]] = []
        for rel in query.relations:
            projected = query.project(rel.name, row)
            members.append((rel.name, _index_of(rel.index, projected)))
        out.add(frozenset(members))
    return out


def _index_of(index: TrieRelation, row: Tuple[int, ...]) -> IndexTuple:
    """The unique full index tuple addressing ``row`` (must be present)."""
    coords: List[int] = []
    prefix: IndexTuple = ()
    for value in row:
        keys = index.child_values(prefix)
        position = keys.index(value) + 1
        coords.append(position)
        prefix = prefix + (position,)
    return tuple(coords)

"""The constraint data structure (CDS): a ConstraintTree (paper §3.3, App. E).

The CDS stores constraints in a tree with one level per GAO attribute
(paper Figure 1).  Each node corresponds to a pattern (the labels on its
root path) and owns

* ``equalities`` — a sorted map from integer labels to child nodes, plus at
  most one ``*`` child, and
* ``intervals`` — an :class:`IntervalList` of gaps on the node's attribute.

Invariant: no equality label at a node is covered by one of the node's
intervals (covered labels' subtrees are subsumed and deleted on insert).

``InsConstraint`` is Algorithm 5.  The probe-point search lives in
:mod:`repro.core.probe_acyclic` / :mod:`repro.core.probe_general`, which
walk this tree.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.constraints import (
    Constraint,
    Pattern,
    WILDCARD,
)
from repro.storage.interval_list import (
    INSERT_DISJOINT,
    IntervalList,
    NaiveIntervalList,
)
from repro.storage.sorted_list import SortedList
from repro.util.counters import OpCounters
from repro.util.sentinels import ExtendedValue


class CDSNode:
    """One ConstraintTree node (identified by its root-path pattern)."""

    __slots__ = ("eq_keys", "eq_children", "star", "intervals", "depth")

    def __init__(self, depth: int, interval_factory) -> None:
        self.depth = depth
        self.eq_keys = SortedList()
        self.eq_children: dict = {}
        self.star: Optional["CDSNode"] = None
        self.intervals = interval_factory()

    def child_for(self, component) -> Optional["CDSNode"]:
        """The child along an equality label or the wildcard."""
        if component is WILDCARD:
            return self.star
        return self.eq_children.get(component)


class ConstraintTree:
    """The CDS: InsConstraint plus the node/traversal API probes need."""

    def __init__(
        self,
        n_attributes: int,
        counters: Optional[OpCounters] = None,
        merge_intervals: bool = True,
    ) -> None:
        if n_attributes < 1:
            raise ValueError("need at least one attribute")
        self.n = n_attributes
        self.counters = counters if counters is not None else OpCounters()
        self._interval_factory = (
            IntervalList if merge_intervals else NaiveIntervalList
        )
        self.root = CDSNode(0, self._interval_factory)
        #: bumped whenever a node is created, so probe strategies can
        #: invalidate cached frontiers.
        self.version = 0
        self.constraints_inserted = 0

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------

    def _make_child(self, node: CDSNode, component) -> CDSNode:
        child = CDSNode(node.depth + 1, self._interval_factory)
        if component is WILDCARD:
            node.star = child
        else:
            node.eq_keys.insert(component)
            node.eq_children[component] = child
        self.version += 1
        return child

    def ensure_node(self, pattern: Pattern) -> CDSNode:
        """Get-or-create the node for ``pattern`` (shadow-node creation).

        Replaces the paper's ⟨pattern, (-inf, 0)⟩ placeholder-insert trick
        (Algorithm 6 line 13) with a pure structural operation, so the
        value domain needn't dodge the placeholder interval.
        """
        node = self.root
        for component in pattern:
            child = node.child_for(component)
            if child is None:
                child = self._make_child(node, component)
            node = child
        return node

    def find_node(self, pattern: Pattern) -> Optional[CDSNode]:
        node: Optional[CDSNode] = self.root
        for component in pattern:
            if node is None:
                return None
            node = node.child_for(component)
        return node

    # ------------------------------------------------------------------
    # InsConstraint (Algorithm 5)
    # ------------------------------------------------------------------

    def insert(self, constraint: Constraint) -> bool:
        """Insert a constraint; returns False when subsumed or empty.

        Walks the prefix creating nodes as needed; an equality component
        already covered by an ancestor's interval means the new constraint
        is subsumed.  At the interval level, covered equality children are
        deleted (their subtrees are subsumed by the new interval).
        """
        self.counters.constraints += 1
        self.constraints_inserted += 1
        if constraint.is_empty():
            return False
        if constraint.interval_position >= self.n:
            raise ValueError(
                f"constraint dimension {constraint.interval_position} "
                f"exceeds attribute count {self.n}"
            )
        node = self.root
        for component in constraint.prefix:
            child = node.child_for(component)
            if child is None:
                # The covers probe is needed only on the creation path:
                # an *existing* equality child is never covered by its
                # parent's intervals (covered labels' subtrees are pruned
                # whenever an interval lands, and nodes are only created
                # for uncovered labels — the module invariant), so the
                # historical unconditional re-check was redundant there.
                if component is not WILDCARD and node.intervals.covers(
                    component
                ):
                    return False  # subsumed by an existing, more general gap
                child = self._make_child(node, component)
            node = child
        self.insert_interval_at(node, constraint.low, constraint.high)
        return True

    def insert_many(self, constraints) -> None:
        """InsConstraint for a batch (one engine probe's discoveries).

        Semantically ``for c in constraints: self.insert(c)``, which is
        all this tier does.  The arena tree runs its single InsConstraint
        walk here, with the hot-path locals bound once per batch, and
        its ``insert`` is the one-constraint case of that walk.
        """
        for constraint in constraints:
            self.insert(constraint)

    def insert_interval_at(
        self, node: CDSNode, low: ExtendedValue, high: ExtendedValue
    ) -> None:
        """Insert (low, high) into a node, pruning covered equality children.

        Used directly by the probe strategies to memoize inferred gaps at a
        node they already hold (Algorithm 4 line 13) without re-walking the
        prefix.
        """
        self.counters.interval_ops += 1
        intervals = node.intervals
        code = intervals.insert(low, high)
        if not code:
            return
        if code == INSERT_DISJOINT and len(intervals) == 1:
            # A disjoint add that left exactly one interval means the list
            # was empty before: the node just entered every principal
            # filter containing its pattern, so cached probe frontiers
            # must be invalidated.  (The insert code replaces the old
            # pre-insert emptiness read.)
            self.version += 1
        if not node.eq_keys:  # no equality children to prune (common case)
            return
        removed = node.eq_keys.delete_interval(low, high)
        for label in removed:
            del node.eq_children[label]
        if removed:
            self.version += 1

    # ------------------------------------------------------------------
    # Traversal used by probe strategies
    # ------------------------------------------------------------------

    def frontier(self, prefix: Tuple[int, ...]) -> List[Tuple[CDSNode, Pattern]]:
        """All nodes whose pattern generalizes the all-equality ``prefix``.

        Walks from the root taking, at level j, both the equality child
        labelled prefix[j] and the ``*`` child.  Size is at most 2^|prefix|
        (the paper's 2^n factor) but small in practice.
        """
        frontier: List[Tuple[CDSNode, Pattern]] = [(self.root, ())]
        for value in prefix:
            extended: List[Tuple[CDSNode, Pattern]] = []
            for node, pattern in frontier:
                eq_child = node.eq_children.get(value)
                if eq_child is not None:
                    extended.append((eq_child, pattern + (value,)))
                if node.star is not None:
                    extended.append((node.star, pattern + (WILDCARD,)))
            frontier = extended
        return frontier

    def filter_nodes(
        self, prefix: Tuple[int, ...]
    ) -> List[Tuple[CDSNode, Pattern]]:
        """The principal filter G(prefix): frontier nodes with intervals."""
        return [
            (node, pattern)
            for node, pattern in self.frontier(prefix)
            if node.intervals
        ]

    # ------------------------------------------------------------------
    # Introspection (tests, debugging)
    # ------------------------------------------------------------------

    def iter_nodes(self) -> Iterator[Tuple[Pattern, CDSNode]]:
        stack: List[Tuple[Pattern, CDSNode]] = [((), self.root)]
        while stack:
            pattern, node = stack.pop()
            yield pattern, node
            for label in node.eq_keys:
                stack.append((pattern + (label,), node.eq_children[label]))
            if node.star is not None:
                stack.append((pattern + (WILDCARD,), node.star))

    def node_covers(self, node: CDSNode, value: int) -> bool:
        """True iff ``node``'s intervals strictly contain ``value``.

        Backend-agnostic introspection: the arena tree exposes the same
        method over its integer node handles.
        """
        return node.intervals.covers(value)

    def covers_row(self, row: Tuple[int, ...]) -> bool:
        """True iff some stored gap covers the output-space point ``row``.

        Reference semantics for tests: a row is covered when, walking any
        generalizing path, some node's interval contains the next value.
        """
        frontier: List[CDSNode] = [self.root]
        for value in row:
            next_frontier: List[CDSNode] = []
            for node in frontier:
                if node.intervals.covers(value):
                    return True
                child = node.eq_children.get(value)
                if child is not None:
                    next_frontier.append(child)
                if node.star is not None:
                    next_frontier.append(node.star)
            frontier = next_frontier
        return False

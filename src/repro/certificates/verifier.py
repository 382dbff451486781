"""Randomized verification of the certificate property (Definition 2.3).

Checking "every pair of instances satisfying A has the same witnesses" is
not directly enumerable, but it is falsifiable: sample alternative
instances J that (a) define the same variables — i.e. keep every trie's
shape — and (b) satisfy the argument, then compare witness sets.  Instance
construction topologically orders the variables under the constraints

* argument equalities (merged via union-find),
* argument ``<`` comparisons, and
* within-node sibling order (values under one trie node stay strictly
  increasing — required for J to be a valid instance),

and assigns fresh values with randomized gaps.  A certificate never fails
this test; a non-certificate usually fails within a few samples (the test
suite exercises both directions).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.certificates.comparisons import (
    Argument,
    Variable,
    enumerate_variables,
    witnesses,
)
from repro.core.query import PreparedQuery, Query
from repro.storage.relation import Relation


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[Variable, Variable] = {}

    def find(self, item: Variable) -> Variable:
        parent = self.parent.setdefault(item, item)
        if parent is item:
            return item
        root = self.find(parent)
        self.parent[item] = root
        return root

    def union(self, a: Variable, b: Variable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self.parent[ra] = rb


def sample_satisfying_instance(
    query: PreparedQuery,
    argument: Argument,
    rng: random.Random,
) -> Optional[PreparedQuery]:
    """Build a random instance with the same tries satisfying ``argument``.

    Returns None if the constraint graph is cyclic (the argument is
    inconsistent with the tries' shape — cannot happen for arguments the
    original instance satisfies).
    """
    uf = _UnionFind()
    all_vars: List[Tuple[str, Tuple[int, ...]]] = []
    for rel in query.relations:
        for coords in enumerate_variables(rel.index):
            all_vars.append((rel.name, coords))
            uf.find(Variable(rel.name, coords))
    for comparison in argument:
        if comparison.op == "=":
            uf.union(comparison.left, comparison.right)
    # Edges between equality-class roots: argument '<' plus sibling order.
    edges: Dict[Variable, set] = {}
    indegree: Dict[Variable, int] = {}

    def add_edge(a: Variable, b: Variable) -> None:
        ra, rb = uf.find(a), uf.find(b)
        if ra == rb:
            return
        bucket = edges.setdefault(ra, set())
        if rb not in bucket:
            bucket.add(rb)
            indegree[rb] = indegree.get(rb, 0) + 1
        indegree.setdefault(ra, indegree.get(ra, 0))

    for comparison in argument:
        if comparison.op == "<":
            add_edge(comparison.left, comparison.right)
    for rel in query.relations:
        for coords in enumerate_variables(rel.index):
            if coords[-1] > 1:
                sibling = coords[:-1] + (coords[-1] - 1,)
                add_edge(
                    Variable(rel.name, sibling), Variable(rel.name, coords)
                )
    for name, coords in all_vars:
        root = uf.find(Variable(name, coords))
        indegree.setdefault(root, 0)
    # Randomized Kahn topological order.
    ready = [v for v, d in indegree.items() if d == 0]
    assigned: Dict[Variable, int] = {}
    cursor = 0
    while ready:
        pick = rng.randrange(len(ready))
        ready[pick], ready[-1] = ready[-1], ready[pick]
        node = ready.pop()
        cursor += rng.randint(1, 3)
        assigned[node] = cursor
        for succ in edges.get(node, ()):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
    if len(assigned) != len(indegree):
        return None  # cycle
    relations: List[Relation] = []
    for rel in query.relations:
        rows: List[Tuple[int, ...]] = []
        for coords in enumerate_variables(rel.index):
            if len(coords) != rel.arity:
                continue
            values: List[int] = []
            for j in range(1, rel.arity + 1):
                var = Variable(rel.name, coords[:j])
                values.append(assigned[uf.find(var)])
            rows.append(tuple(values))
        relations.append(Relation(rel.name, rel.attributes, rows))
    candidate = Query(relations).with_gao(query.gao)
    # Same-shape sanity: value collisions could merge trie nodes.
    for old, new in zip(query.relations, candidate.relations):
        if len(old) != len(new):
            return None
    return candidate


def check_certificate(
    query: PreparedQuery,
    argument: Argument,
    samples: int = 20,
    seed: int = 0,
) -> Optional[PreparedQuery]:
    """Try to refute that ``argument`` certifies ``query``'s output.

    Returns a counterexample instance (same variables, satisfies the
    argument, different witnesses) or None if all samples agree.
    ``samples < 1`` raises ``ValueError``: zero attempts refute nothing,
    so they must not pass as a check.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if not argument.satisfied_by(query):
        raise ValueError("the instance does not satisfy the argument")
    baseline = witnesses(query)
    rng = random.Random(seed)
    for _ in range(samples):
        candidate = sample_satisfying_instance(query, argument, rng)
        if candidate is None:
            continue
        if not argument.satisfied_by(candidate):
            raise AssertionError("sampler produced a non-satisfying instance")
        if witnesses(candidate) != baseline:
            return candidate
    return None

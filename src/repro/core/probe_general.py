"""getProbePoint for general queries (paper Algorithms 6 and 7).

For a GAO that is not a nested elimination order, the principal filter G
at some depth is not a chain.  The paper's fix: linearize G (most
specialized first), build the *shadow chain* of suffix meets

    P̄(u_j) = ∧_{i >= j} P(u_i),

materialize the shadow patterns as CDS nodes, and run the chain algorithm
over the shadows — consulting, at each step, both the shadow node and the
original node it shadows (a two-element chain {ū ⪯ u}, Algorithm 7).

Inferred gaps are memoized at the *shadow* node.  (Algorithm 7 line 11
writes P(u); inserting at P̄(u) ⪯ P(u) is the sound reading — every
interval consulted lives at a pattern generalizing P̄(u), and the
credit-based analysis in Appendix G.2 charges shadow intervals — so that
is what we implement.)

When G happens to be a chain the shadows coincide with the originals and
this strategy walks exactly as Algorithm 3 does: the same probe points
and memoized gaps over a whole probe/insert sequence (tested against
it).  Only the tally differs: Algorithm 4 charges one extra interval op
per inner nextChainVal call, which this walk does not.

This is the plain tier: the recursion is Algorithm 7 as written and
every Next goes through ``intervals.next``, whatever the list type.
The arena strategy in :mod:`repro.core.cds_arena` is the fast twin and
must tally exactly what this one tallies.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.cds import CDSNode, ConstraintTree
from repro.core.constraints import (
    Constraint,
    Pattern,
    equality_count,
    last_equality_position,
    meet,
)
from repro.util.sentinels import POS_INF, ExtendedValue

ShadowEntry = Tuple[CDSNode, Pattern, CDSNode, Pattern]
# (shadow node, shadow pattern, original node, original pattern)


class GeneralProbeStrategy:
    """Algorithm 6: probe search via shadow chains."""

    name = "general"

    def __init__(self, cds: ConstraintTree, memoize: bool = True) -> None:
        self.cds = cds
        self.memoize = memoize
        # Hoisted once: every interval-op tally goes through this object.
        self.counters = cds.counters
        # prefix -> (cds.version, shadow chain or None when the filter is
        # empty).  cds.version bumps on node creation, eq-child deletion,
        # and a node's intervals turning non-empty, so a version match
        # guarantees the cached chain is still the principal filter.
        self._chains: dict = {}

    def _chain_for(self, prefix: Tuple[int, ...]) -> Optional[List[ShadowEntry]]:
        cds = self.cds
        cached = self._chains.get(prefix)
        if cached is not None and cached[0] == cds.version:
            return cached[1]
        filter_nodes = cds.filter_nodes(prefix)
        # Building shadow nodes may itself bump cds.version; record the
        # post-build version so the fresh chain is immediately reusable.
        entries = self._build_shadow_chain(filter_nodes) if filter_nodes else None
        self._chains[prefix] = (cds.version, entries)
        return entries

    def get_probe_point(self) -> Optional[Tuple[int, ...]]:
        cds = self.cds
        t: List[int] = []
        while len(t) < cds.n:
            entries = self._chain_for(tuple(t))
            if entries is None:
                t.append(-1)
                continue
            value = self._next_shadow_chain_val(-1, 0, entries)
            if value is not POS_INF:
                t.append(value)  # type: ignore[arg-type]
                continue
            bottom_pattern = entries[0][1]  # meet of every filter pattern
            i0 = last_equality_position(bottom_pattern)
            if i0 == 0:
                return None
            cds.counters.backtracks += 1
            pinned = bottom_pattern[i0 - 1]
            assert isinstance(pinned, int)
            cds.insert(
                Constraint(bottom_pattern[: i0 - 1], pinned - 1, pinned + 1)
            )
            del t[i0 - 1 :]
        return tuple(t)

    def _build_shadow_chain(
        self, filter_nodes: List[Tuple[CDSNode, Pattern]]
    ) -> List[ShadowEntry]:
        """Linearize G and attach suffix-meet shadow nodes (Alg 6 lines 8-14).

        Sorting by descending equality count is a valid linearization: a
        strict specialization always has strictly more equalities.  Suffix
        meets exist because every pattern in G generalizes the same
        all-equality prefix.
        """
        ordered = sorted(filter_nodes, key=lambda e: -equality_count(e[1]))
        suffix_meet: Optional[Pattern] = None
        meets: List[Pattern] = []
        for _, pattern in reversed(ordered):
            if suffix_meet is None:
                suffix_meet = pattern
            else:
                merged = meet(suffix_meet, pattern)
                if merged is None:
                    raise AssertionError(
                        "filter patterns conflict; they cannot share a prefix"
                    )
                suffix_meet = merged
            meets.append(suffix_meet)
        meets.reverse()
        entries: List[ShadowEntry] = []
        for (node, pattern), shadow_pattern in zip(ordered, meets):
            if shadow_pattern == pattern:
                shadow_node = node
            else:
                shadow_node = self.cds.ensure_node(shadow_pattern)
            entries.append((shadow_node, shadow_pattern, node, pattern))
        return entries

    def _next_shadow_chain_val(
        self, x: int, j: int, entries: List[ShadowEntry]
    ) -> ExtendedValue:
        """Algorithm 7 over the shadow chain (bottom at index 0)."""
        shadow_node, _, orig_node, _ = entries[j]
        if j == len(entries) - 1:
            return self._next_two(x, shadow_node, orig_node)
        y: ExtendedValue = x
        while True:
            z = self._next_shadow_chain_val(y, j + 1, entries)  # type: ignore[arg-type]
            if z is POS_INF:
                y = POS_INF
                break
            y = self._next_two(z, shadow_node, orig_node)  # type: ignore[arg-type]
            if y == z or y is POS_INF:
                break
        if self.memoize:
            self.cds.insert_interval_at(shadow_node, x - 1, y)
        return y

    def _next_two(
        self, x: int, shadow_node: CDSNode, orig_node: CDSNode
    ) -> ExtendedValue:
        """nextChainVal over the two-node chain {ū ⪯ u} (Alg 7 lines 3, 9)."""
        counters = self.counters
        if shadow_node is orig_node:
            counters.interval_ops += 1
            return orig_node.intervals.next(x)
        y: ExtendedValue = x
        while True:
            counters.interval_ops += 2
            z = orig_node.intervals.next(y)  # type: ignore[arg-type]
            if z is POS_INF:
                return POS_INF
            y = shadow_node.intervals.next(z)
            if y == z or y is POS_INF:
                return y

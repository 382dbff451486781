"""The bowtie query — Minesweeper end-to-end (paper Appendix I, Algorithm 9).

Q⋈⋈ = R(X) ⋈ S(X, Y) ⋈ T(Y) under GAO (X, Y).  Every GAO for this query is
a nested elimination order, and the CDS is a two-level ConstraintTree
(paper Figure 6): interval list on X at the root, plus per-``=x`` branches
and one ``*`` branch of Y-intervals.

Faithful to Algorithm 9, each iteration issues *five* FindGap calls —
gaps around x in R and S, around y in T, and around y under **both** the
lower and higher X-neighbours in S (the "anticipatory" exploration whose
purpose the appendix illustrates with the two-block instance: the naive
lexicographic gap can miss every certificate comparison).

This module exists for fidelity and tests; the generic engine handles the
bowtie too (they are compared in the test suite).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.storage.interval_list import IntervalList
from repro.storage.trie import TrieRelation
from repro.util.counters import OpCounters
from repro.util.sentinels import POS_INF, ExtendedValue


class BowtieMinesweeper:
    """Evaluate R(X) ⋈ S(X, Y) ⋈ T(Y) (Algorithm 9)."""

    def __init__(
        self,
        r_values: Sequence[int],
        s_pairs: Sequence[Tuple[int, int]],
        t_values: Sequence[int],
        counters: Optional[OpCounters] = None,
    ) -> None:
        self.counters = counters if counters is not None else OpCounters()
        self.r_index = TrieRelation(
            [(v,) for v in r_values], arity=1, counters=self.counters
        )
        self.s_index = TrieRelation(s_pairs, arity=2, counters=self.counters)
        self.t_index = TrieRelation(
            [(v,) for v in t_values], arity=1, counters=self.counters
        )
        self.i_x = IntervalList()  # ⟨(x1,x2), *⟩
        self.i_star_y = IntervalList()  # ⟨*, (y1,y2)⟩
        self.i_eq_x: Dict[int, IntervalList] = {}  # ⟨x, (y1,y2)⟩

    def _eq_x(self, x: int) -> IntervalList:
        lst = self.i_eq_x.get(x)
        if lst is None:
            lst = IntervalList()
            self.i_eq_x[x] = lst
        return lst

    # ------------------------------------------------------------------

    def get_probe_point(self) -> Optional[Tuple[int, int]]:
        """The two-level probe search with the =x / * ping-pong."""
        counters = self.counters
        while True:
            counters.interval_ops += 1
            x = self.i_x.next(-1)
            if x is POS_INF:
                return None
            branch = self.i_eq_x.get(x)
            y: ExtendedValue = -1
            while True:
                counters.interval_ops += 1
                if branch is not None:
                    y = branch.next(y)  # type: ignore[arg-type]
                if y is POS_INF:
                    break
                counters.interval_ops += 1
                y2 = self.i_star_y.next(y)  # type: ignore[arg-type]
                if y2 == y:
                    break
                # Memoize the *-branch knowledge on the =x branch so the
                # ping-pong is paid for once (the credit scheme of App. I).
                if branch is None:
                    branch = self._eq_x(x)  # type: ignore[arg-type]
                branch.insert(y - 1, y2)  # type: ignore[operator]
                y = y2
            if y is POS_INF:
                # The =x branch covers all of Y: fold into an X-interval.
                self.i_x.insert(x - 1, x + 1)  # type: ignore[operator]
                continue
            return (x, y)  # type: ignore[return-value]

    # ------------------------------------------------------------------

    def run(self) -> List[Tuple[int, int]]:
        counters = self.counters
        output: List[Tuple[int, int]] = []
        n = len(self.r_index) + len(self.s_index) + len(self.t_index)
        budget = 1000 + 100 * (n + 1)
        while True:
            probe = self.get_probe_point()
            if probe is None:
                break
            counters.probes += 1
            if counters.probes - counters.output_tuples > budget:
                raise RuntimeError(f"bowtie probe budget exhausted at {probe}")
            x, y = probe
            if self._explore(x, y):
                output.append((x, y))
                counters.output_tuples += 1
                self._eq_x(x).insert(y - 1, y + 1)
                counters.interval_ops += 1
        return output

    # ------------------------------------------------------------------

    def _explore(self, x: int, y: int) -> bool:
        """Algorithm 9's five FindGap calls around (x, y); insert all gaps."""
        counters = self.counters
        member = True
        # R around x.
        r_lo, r_hi = self.r_index.find_gap((), x)
        if r_lo != r_hi:
            self.i_x.insert(
                self.r_index.value((r_lo,)), self.r_index.value((r_hi,))
            )
            counters.interval_ops += 1
            member = False
        # T around y.
        t_lo, t_hi = self.t_index.find_gap((), y)
        if t_lo != t_hi:
            self.i_star_y.insert(
                self.t_index.value((t_lo,)), self.t_index.value((t_hi,))
            )
            counters.interval_ops += 1
            member = False
        # S around x, then around y under both X-neighbours.
        s_lo, s_hi = self.s_index.find_gap((), x)
        if s_lo != s_hi:
            self.i_x.insert(
                self.s_index.value((s_lo,)), self.s_index.value((s_hi,))
            )
            counters.interval_ops += 1
            member = False
        fan = self.s_index.fanout(())
        for idx in {s_lo, s_hi}:
            if not 1 <= idx <= fan:
                continue
            y_lo, y_hi = self.s_index.find_gap((idx,), y)
            if y_lo == y_hi:
                continue
            x_value = self.s_index.value((idx,))
            assert isinstance(x_value, int)
            low = self.s_index.value((idx, y_lo))
            high = self.s_index.value((idx, y_hi))
            self._eq_x(x_value).insert(low, high)
            counters.interval_ops += 1
            if x_value == x:
                member = False
        return member


def bowtie_join(
    r_values: Sequence[int],
    s_pairs: Sequence[Tuple[int, int]],
    t_values: Sequence[int],
    counters: Optional[OpCounters] = None,
) -> List[Tuple[int, int]]:
    """Evaluate the bowtie query R(X) ⋈ S(X,Y) ⋈ T(Y)."""
    return BowtieMinesweeper(r_values, s_pairs, t_values, counters).run()

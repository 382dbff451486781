"""The paper's index-tuple API (Section 2.1), written once.

Every index addresses its search tree in two ways: by *handle* — an
opaque reference to one node, which engines carry as they descend — and
by *index tuple* — the paper's 1-based coordinates ``R[x1, ..., xj]``
from the root.  :class:`IndexTupleAPI` derives the second from the
first, so each index implements only

* the handle API: ``fanout_at`` / ``value_at`` / ``gap_at`` /
  ``node_keys`` (plus ``root_handle`` / ``child_at`` for engines), and
* ``_node_at(index_tuple)``: the handle of the node ``R[index_tuple, *]``,
  raising ``IndexError`` on an out-of-range coordinate or a tuple that
  descends past the arity.

Conventions (1)-(2) — coordinate 0 is -inf, fanout+1 is +inf — live in
``value_at``; the FindGap tally lives in ``gap_at``.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.util.sentinels import ExtendedValue

IndexTuple = Tuple[int, ...]


class IndexTupleAPI:
    """Mixin: ``fanout`` / ``value`` / ``child_values`` / ``find_gap`` /
    ``gap_values`` over the host's handle API and ``_node_at``."""

    __slots__ = ()

    arity: int

    # What the host index provides (handles are opaque, hence ``Any``).

    def _node_at(self, index_tuple: IndexTuple) -> Any:
        raise NotImplementedError

    def fanout_at(self, node: Any) -> int:
        raise NotImplementedError

    def value_at(self, node: Any, position: int) -> ExtendedValue:
        raise NotImplementedError

    def gap_at(self, node: Any, a: int) -> Tuple[int, int]:
        raise NotImplementedError

    def node_keys(self, node: Any) -> List[int]:
        raise NotImplementedError

    # The index-tuple API, derived.

    def fanout(self, index_tuple: IndexTuple = ()) -> int:
        """|R[index_tuple, *]| — number of distinct next-level values."""
        return self.fanout_at(self._node_at(index_tuple))

    def value(self, index_tuple: IndexTuple) -> ExtendedValue:
        """R[index_tuple]: the value addressed by a (1-based) index tuple.

        The *last* coordinate may be out of range (0 -> -inf,
        fanout+1 -> +inf), per conventions (1)-(2); earlier coordinates
        must be in range.
        """
        if not index_tuple:
            raise ValueError("value() needs a non-empty index tuple")
        return self.value_at(self._node_at(index_tuple[:-1]), index_tuple[-1])

    def child_values(self, index_tuple: IndexTuple) -> List[int]:
        """The sorted set R[index_tuple, *] (a fresh list)."""
        return list(self.node_keys(self._node_at(index_tuple)))

    def find_gap(self, index_tuple: IndexTuple, a: int) -> Tuple[int, int]:
        """R.FindGap(x, a) per Section 2.1.

        Returns (x_minus, x_plus), 1-based coordinates into
        R[index_tuple, *] with the conventions that 0 means the value -inf
        and fanout+1 means +inf, such that
        R[(x, x_minus)] <= a <= R[(x, x_plus)] with x_minus maximal and
        x_plus minimal.  x_minus == x_plus iff a is present.
        """
        if len(index_tuple) >= self.arity:
            raise ValueError(
                "find_gap index tuple must be shorter than the arity"
            )
        return self.gap_at(self._node_at(index_tuple), a)

    def gap_values(
        self, index_tuple: IndexTuple, a: int
    ) -> Tuple[ExtendedValue, ExtendedValue]:
        """Like :meth:`find_gap` but returning the flanking *values*."""
        lo, hi = self.find_gap(index_tuple, a)
        node = self._node_at(index_tuple)
        return (self.value_at(node, lo), self.value_at(node, hi))

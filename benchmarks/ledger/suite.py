"""The ``engine_paper`` suite: direct library calls, indexes pre-built.

Eight calls per pass, all through public entry points with their
default (op-counting) configuration, the one the serving layer also
runs:

========== ============================================================
bowtie     ``join`` (Minesweeper, chain strategy) on β-acyclic
           ``R(X) ⋈ S(X,Y) ⋈ T(Y)``
path5      ``join`` on a 5-hop path (β-acyclic, nested elimination GAO)
star5      ``join`` on a 5-arm star (β-acyclic)
tri_general``join(strategy="general")`` on β-cyclic ``triangle_hard``
dyadic_hard``triangle_join`` (dyadic CDS) on ``triangle_hard``
dyadic_planted ``triangle_join`` on a sparse instance with output
intersect  ``intersect_sorted`` on interleaved sets
sharded    ``join(shards=4, workers=0)`` on a planted triangle instance
========== ============================================================
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

from repro import OpCounters, Query, Relation, join
from repro.core.intersection import intersect_sorted
from repro.core.triangle import triangle_join

import gen
import oracle

Row = Tuple[int, ...]

CLASSES = (
    "bowtie", "path5", "star5", "tri_general",
    "dyadic_hard", "dyadic_planted", "intersect", "sharded",
)


class Data(NamedTuple):
    """The suite's raw inputs (rows only — no index built yet)."""

    relations: Dict[str, List[Tuple[str, Tuple[str, ...], List[Row]]]]
    triangles: Dict[str, Tuple[List[Row], List[Row], List[Row]]]
    sets: List[List[int]]
    hard_certificate: int


def _triangle_atoms(r, s, t):
    return [("R", ("A", "B"), r), ("S", ("B", "C"), s), ("T", ("A", "C"), t)]


def make_data(sizes: Dict[str, object], seed: int) -> Data:
    f = gen.relabeler(seed)
    re = lambda rows: gen.relabel_rows(rows, f)  # noqa: E731
    bow = gen.bowtie(sizes["bowtie"])
    path = gen.binary_relations(5, sizes["path5"], "path5")
    star = gen.binary_relations(5, sizes["star5"], "star5")
    general = gen.triangle_hard(sizes["tri_general"])
    hard = gen.triangle_hard(sizes["dyadic_hard"])
    planted = gen.triangle_planted(*sizes["dyadic_planted"])
    sharded = gen.triangle_planted(*sizes["sharded"])
    relations = {
        "bowtie": [
            ("R", ("X",), re(bow["R"])),
            ("S", ("X", "Y"), re(bow["S"])),
            ("T", ("Y",), re(bow["T"])),
        ],
        "path5": [
            (f"P{i}", (f"A{i}", f"A{i + 1}"), re(rows))
            for i, rows in enumerate(path)
        ],
        "star5": [
            (f"P{i}", ("H", f"A{i}"), re(rows)) for i, rows in enumerate(star)
        ],
        "tri_general": _triangle_atoms(*(re(x) for x in general[:3])),
        "sharded": _triangle_atoms(*(re(x) for x in sharded)),
    }
    triangles = {
        "dyadic_hard": tuple(re(x) for x in hard[:3]),
        "dyadic_planted": tuple(re(x) for x in planted),
    }
    sets = [[f(v) for v in s] for s in gen.interleaved_sets(sizes["intersect"])]
    return Data(relations, triangles, sets, hard[3])


class Suite:
    """Built indexes plus one zero-argument callable per class."""

    def __init__(self, data: Data) -> None:
        self.data = data
        self.queries: Dict[str, Query] = {
            name: Query([Relation(n, list(a), rows) for n, a, rows in atoms])
            for name, atoms in data.relations.items()
        }
        #: PreparedQuery per Minesweeper class (GAO-consistent indexes
        #: built once, so a measured call does no index work).
        self.prepared = {}
        for name in ("bowtie", "path5", "star5", "tri_general"):
            gao, _ = self.queries[name].choose_gao()
            self.prepared[name] = self.queries[name].with_gao(gao)
        self.calls: Dict[str, Callable[[], Sequence]] = self._calls(None)

    def _calls(self, counters) -> Dict[str, Callable[[], Sequence]]:
        """The eight calls; with ``counters`` every one tallies into it."""
        prepared, data = self.prepared, self.data
        if counters is not None:
            prepared = {
                name: self.queries[name].with_gao(p.gao, counters=counters)
                for name, p in self.prepared.items()
            }
        hard, planted = data.triangles["dyadic_hard"], data.triangles["dyadic_planted"]
        sharded = self.queries["sharded"]
        return {
            "bowtie": lambda: join(prepared["bowtie"], gao=prepared["bowtie"].gao, strategy="chain").rows,
            "path5": lambda: join(prepared["path5"], gao=prepared["path5"].gao).rows,
            "star5": lambda: join(prepared["star5"], gao=prepared["star5"].gao).rows,
            "tri_general": lambda: join(
                prepared["tri_general"], gao=prepared["tri_general"].gao, strategy="general"
            ).rows,
            "dyadic_hard": lambda: triangle_join(*hard, counters=counters),
            "dyadic_planted": lambda: triangle_join(*planted, counters=counters),
            "intersect": lambda: [(v,) for v in intersect_sorted(data.sets, counters)],
            "sharded": lambda: join(sharded, shards=4, workers=0, counters=counters).rows,
        }

    def counted_calls(self, counters: OpCounters) -> Dict[str, Callable[[], Sequence]]:
        return self._calls(counters)

    def unsharded(self) -> Sequence:
        """The ``sharded`` instance through the plain (1-shard) path."""
        return join(self.queries["sharded"]).rows


def expected_digests(data: Data) -> Dict[str, str]:
    """Every class's answer from the hash-join baseline / set algebra."""
    out: Dict[str, str] = {}
    for name, atoms in data.relations.items():
        query = Query([Relation(n, list(a), rows) for n, a, rows in atoms])
        gao, _ = query.choose_gao()
        out[name] = gen.rows_digest(oracle.join_rows(query, gao))
    for name, (r, s, t) in data.triangles.items():
        query = Query([Relation(n, list(a), rows) for n, a, rows in _triangle_atoms(r, s, t)])
        out[name] = gen.rows_digest(oracle.join_rows(query, ("A", "B", "C")))
    common = set(data.sets[0]).intersection(*data.sets[1:])
    out["intersect"] = gen.rows_digest((v,) for v in common)
    return out

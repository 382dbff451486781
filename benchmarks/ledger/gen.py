"""Seeded inputs for the ledger: instances, query texts, op sequences.

Everything here is a pure function of its arguments.  The generators
the suite needs are written out here (seed as an argument) rather than
imported from ``benchmarks/_workloads.py`` or ``repro.datasets``, so the
benchmark's inputs do not change when those modules change or go away.

What ``--seed`` changes and what it does not
--------------------------------------------
The paper's cost is a function of the instance *shape* (the certificate
size |C| and the output size Z), and a benchmark whose work moves with
the seed cannot resolve a 10 % regression.  So every instance shape is
pinned (drawn from the fixed ``SHAPE_SEED``) and the run seed changes
only what must not matter to the cost:

* the value labels, through an order-preserving affine map
  ``v -> a*v + b`` (:func:`relabeler`) — sort orders, gaps, row counts
  and hence every engine op count are invariant under it;
* the variable names of every query text (:func:`renamings`);
* the order in which op classes arrive (:func:`mixed_sequence`);
* which rows the update streams insert and delete.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Row = Tuple[int, ...]
Edge = Tuple[int, int]

#: The seed every instance *shape* is drawn from (never the run seed).
SHAPE_SEED = 20140622  # PODS'14


def stream_rng(seed: int, stream: str) -> random.Random:
    """An independent generator per (seed, named stream)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# ----------------------------------------------------------------------
# Labels
# ----------------------------------------------------------------------


def relabeler(seed: int) -> Callable[[int], int]:
    """The run seed's order-preserving value map ``v -> a*v + b``."""
    rng = stream_rng(seed, "labels")
    a = rng.randrange(1, 4)
    b = rng.randrange(0, 90)
    return lambda v: a * v + b


def relabel_rows(rows: Iterable[Sequence[int]], f: Callable[[int], int]) -> List[Row]:
    return [tuple(f(v) for v in row) for row in rows]


# ----------------------------------------------------------------------
# Instance shapes (fixed; relabelled per run seed by the callers)
# ----------------------------------------------------------------------


def random_edges(n_nodes: int, n_edges: int, stream: str, loops: bool = True) -> List[Edge]:
    """``n_edges`` distinct directed edges over ``n_nodes`` nodes."""
    rng = stream_rng(SHAPE_SEED, stream)
    edges = set()
    while len(edges) < n_edges:
        a, b = rng.randrange(n_nodes), rng.randrange(n_nodes)
        if loops or a != b:
            edges.add((a, b))
    return sorted(edges)


def ring_with_chords(n: int) -> List[Edge]:
    """The ``bench_serving`` graph: a ring plus one chord per node."""
    out = set()
    for i in range(n):
        out.add((i, (i + 1) % n))
        out.add((i, (i * 7 + 3) % n))
    return sorted(out)


def bowtie(n: int) -> Dict[str, List[Row]]:
    """``R(X) ⋈ S(X,Y) ⋈ T(Y)``: sparse unary filters around ``S``."""
    rng = stream_rng(SHAPE_SEED, f"bowtie/{n}")
    domain = 4 * n
    return {
        "R": [(x,) for x in sorted(rng.sample(range(domain), n))],
        "S": sorted({(rng.randrange(domain), rng.randrange(domain)) for _ in range(n)}),
        "T": [(y,) for y in sorted(rng.sample(range(domain), n))],
    }


def binary_relations(k: int, n: int, stream: str) -> List[List[Row]]:
    """``k`` random binary relations of ~``2n`` rows over ``n`` values."""
    rng = stream_rng(SHAPE_SEED, f"{stream}/{k}/{n}")
    return [
        sorted({(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)})
        for _ in range(k)
    ]


def triangle_hard(n: int) -> Tuple[List[Row], List[Row], List[Row], int]:
    """Appendix L: R complete, S hits even C, T hits odd C; empty
    output, known certificate size ``2n² + 2n`` (returned last)."""
    r = [(a, b) for a in range(n) for b in range(n)]
    s = [(b, 2 * k) for b in range(n) for k in range(1, n + 1)]
    t = [(a, 2 * k + 1) for a in range(n) for k in range(1, n + 1)]
    return r, s, t, 2 * n * n + 2 * n


def triangle_planted(n: int, n_triangles: int) -> Tuple[List[Row], List[Row], List[Row]]:
    """A sparse random triangle instance with planted output."""
    rng = stream_rng(SHAPE_SEED, f"planted/{n}/{n_triangles}")
    r, s, t = (
        {(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)}
        for _ in range(3)
    )
    for _ in range(n_triangles):
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        r.add((a, b))
        s.add((b, c))
        t.add((a, c))
    return sorted(r), sorted(s), sorted(t)


def interleaved_sets(n: int) -> List[List[int]]:
    """Evens against odds: a Θ(n) certificate, empty intersection."""
    return [[2 * i for i in range(n)], [2 * i + 1 for i in range(n)]]


# ----------------------------------------------------------------------
# Query texts
# ----------------------------------------------------------------------

#: class -> (template, variables in the template).  Every text of a
#: class shares one canonical signature, hence one cached plan.
QUERY_CLASSES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "path2": ("Q({x}, {z}) :- E({x}, {y}), E({y}, {z})", ("x", "y", "z")),
    "path3_proj": (
        "Q({a}, {d}) :- E({a}, {b}), E({b}, {c}), E({c}, {d})",
        ("a", "b", "c", "d"),
    ),
    "count_tri": (
        "Q(COUNT) :- G({x}, {y}), G({y}, {z}), G({x}, {z})",
        ("x", "y", "z"),
    ),
    "cycle4": (
        "Q({a}, {b}, {c}, {d}) :- H({a}, {b}), H({b}, {c}), H({c}, {d}), H({d}, {a})",
        ("a", "b", "c", "d"),
    ),
    "tri_rows": (
        "Q({x}, {y}, {z}) :- R({x}, {y}), S({y}, {z}), T({x}, {z})",
        ("x", "y", "z"),
    ),
    "scan_l": ("Q({x}, {y}) :- L({x}, {y})", ("x", "y")),
}

N_RENAMINGS = 8
_NAME_CHARS = "abcdefghijklmnopqrstuvwxyz"


def renamings(query_class: str, seed: int, count: int = N_RENAMINGS) -> List[str]:
    """``count`` distinct variable renamings of one query class.

    The first keeps the template's own names; the rest draw fresh
    identifiers from the run seed.
    """
    template, variables = QUERY_CLASSES[query_class]
    rng = stream_rng(seed, f"rename/{query_class}")
    texts = [template.format(**{v: v for v in variables})]
    while len(texts) < count:
        names: List[str] = []
        while len(names) < len(variables):
            name = "".join(rng.choice(_NAME_CHARS) for _ in range(rng.randrange(1, 5)))
            if rng.random() < 0.3:
                name += str(rng.randrange(10))
            if name not in names:
                names.append(name)
        text = template.format(**dict(zip(variables, names)))
        if text not in texts:
            texts.append(text)
    return texts


# ----------------------------------------------------------------------
# Op sequences
# ----------------------------------------------------------------------


def mixed_sequence(
    seed: int,
    stream: str,
    shares: Sequence[Tuple[str, int]],
    count: int,
    lead: Sequence[str] = (),
) -> List[str]:
    """``count`` op kinds in which every aligned block of
    ``sum(weights)`` ops holds each kind exactly ``weight`` times, in a
    seed-shuffled order.  Any two prefixes of equal length therefore
    carry the same mix to within one block.  ``lead`` names kinds that
    open every block in that order (one op each); the rest of the
    block is shuffled behind them."""
    rng = stream_rng(seed, f"mix/{stream}")
    tail = [kind for kind, weight in shares for _ in range(weight)]
    for kind in lead:
        tail.remove(kind)
    out: List[str] = []
    while len(out) < count:
        rng.shuffle(tail)
        out.extend(lead)
        out.extend(tail)
    return out[:count]


def update_line(relation: str, row: Sequence[int], insert: bool = True) -> str:
    return f"{'+' if insert else '-'}{relation} {','.join(map(str, row))}"


class EdgeChurn:
    """A seeded insert/delete stream over named binary relations.

    Tracks the live rows it has produced so deletes always hit a live
    row and inserts a missing one: every update it emits changes the
    stored state, so the model the harness keeps and the server agree
    on the effect of each batch.
    """

    def __init__(
        self,
        seed: int,
        stream: str,
        live: Dict[str, Iterable[Row]],
        values: Sequence[int],
        insert_fraction: float,
    ) -> None:
        self._rng = stream_rng(seed, f"churn/{stream}")
        self._values = list(values)
        self._insert_fraction = insert_fraction
        self._names = sorted(live)
        # Sorted lists keep ``choice`` deterministic across processes.
        self._live = {name: sorted(map(tuple, rows)) for name, rows in live.items()}
        self._members = {name: set(rows) for name, rows in self._live.items()}

    def batch(self, size: int, relation: str = "") -> List[Tuple[str, Row, bool]]:
        """``size`` effective updates as ``(relation, row, is_insert)``.

        No row appears twice in one batch, so the batch's net effect
        does not depend on the order the server folds it in.
        """
        rng = self._rng
        out: List[Tuple[str, Row, bool]] = []
        touched = set()
        while len(out) < size:
            name = relation or self._names[rng.randrange(len(self._names))]
            live, members = self._live[name], self._members[name]
            if rng.random() < self._insert_fraction or not live:
                row = (rng.choice(self._values), rng.choice(self._values))
                if row in members or (name, row) in touched:
                    continue
                live.append(row)
                members.add(row)
                insert = True
            else:
                index = rng.randrange(len(live))
                row = live[index]
                if (name, row) in touched:
                    continue
                live[index] = live[-1]
                live.pop()
                members.discard(row)
                insert = False
            touched.add((name, row))
            out.append((name, row, insert))
        return out


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


def rows_digest(rows: Iterable[Sequence[int]]) -> str:
    """SHA-256 over the sorted rows — the answer-equality currency."""
    h = hashlib.sha256()
    for row in sorted(tuple(int(v) for v in r) for r in rows):
        h.update(",".join(map(str, row)).encode())
        h.update(b"\n")
    return h.hexdigest()


def sequence_digest(ops: Iterable[object]) -> str:
    """SHA-256 over a JSON rendering of an op sequence."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps(op, sort_keys=True, default=list).encode())
        h.update(b"\n")
    return h.hexdigest()

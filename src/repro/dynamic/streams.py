"""Deterministic synthetic update streams for the dynamic subsystem.

Two scenario families, mirroring the repo's static benchmark queries:

* :func:`triangle_stream` — a live triangle view R(A,B) ⋈ S(B,C) ⋈
  T(A,C) over random edge relations, streamed with insert-heavy / mixed
  / delete-heavy batches;
* :func:`intersection_stream` — a live k-way set intersection (k unary
  relations over one shared attribute).

Each returns ``(schemas, initial, batches)``: attribute tuples per
relation, initial rows per relation, and a list of
:class:`~repro.dynamic.catalog.Update` batches.  Everything is driven by
``random.Random(seed)`` so benchmarks and tests replay identical
streams.  :func:`build_catalog` turns one into a served catalog + view.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import ExecSpec
from repro.core.incremental import LiveJoin
from repro.dynamic.catalog import Catalog, DELETE, INSERT, Update

Row = Tuple[int, ...]
Stream = Tuple[
    Dict[str, Tuple[str, ...]], Dict[str, List[Row]], List[List[Update]]
]


def _stream_batches(
    rng: random.Random,
    live: Dict[str, set],
    fresh_row,
    n_batches: int,
    batch_size: int,
    insert_fraction: float,
) -> List[List[Update]]:
    """Mix inserts of fresh rows with deletes of live ones, per batch."""
    names = sorted(live)
    batches: List[List[Update]] = []
    for _ in range(n_batches):
        batch: List[Update] = []
        for _ in range(batch_size):
            name = names[rng.randrange(len(names))]
            do_insert = rng.random() < insert_fraction or not live[name]
            if do_insert:
                row = fresh_row(rng, name)
                if row is None:
                    continue
                live[name].add(row)
                batch.append(Update(name, INSERT, row))
            else:
                row = rng.choice(sorted(live[name]))
                live[name].discard(row)
                batch.append(Update(name, DELETE, row))
        batches.append(batch)
    return batches


def _sample_edges(rng: random.Random, n_nodes: int, n_edges: int) -> set:
    if n_edges > n_nodes * n_nodes:
        raise ValueError(
            f"cannot sample {n_edges} distinct edges over {n_nodes} nodes "
            f"(max {n_nodes * n_nodes})"
        )
    edges: set = set()
    while len(edges) < n_edges:
        edges.add((rng.randrange(n_nodes), rng.randrange(n_nodes)))
    return edges


def triangle_stream(
    n_nodes: int = 30,
    n_edges: int = 90,
    n_batches: int = 10,
    batch_size: int = 8,
    insert_fraction: float = 0.5,
    seed: int = 0,
) -> Stream:
    """A streamed triangle instance (edge churn on R, S, T).

    ``insert_fraction`` sets the workload shape: 0.9 ≈ insert-heavy,
    0.5 ≈ mixed, 0.1 ≈ delete-heavy (deletes always target live rows).
    """
    rng = random.Random(seed)
    schemas = {"R": ("A", "B"), "S": ("B", "C"), "T": ("A", "C")}
    live = {name: _sample_edges(rng, n_nodes, n_edges) for name in schemas}
    initial = {name: sorted(rows) for name, rows in live.items()}

    def fresh_row(rng: random.Random, name: str) -> Optional[Row]:
        for _ in range(8 * n_nodes):
            row = (rng.randrange(n_nodes), rng.randrange(n_nodes))
            if row not in live[name]:
                return row
        return None  # relation is (nearly) complete; skip this step

    batches = _stream_batches(
        rng, live, fresh_row, n_batches, batch_size, insert_fraction
    )
    return schemas, initial, batches


def intersection_stream(
    k: int = 3,
    domain: int = 4000,
    n_values: int = 400,
    n_batches: int = 10,
    batch_size: int = 8,
    insert_fraction: float = 0.5,
    seed: int = 0,
) -> Stream:
    """A streamed k-way set intersection (k unary relations over X)."""
    rng = random.Random(seed)
    names = [f"U{i}" for i in range(k)]
    schemas = {name: ("X",) for name in names}
    live: Dict[str, set] = {}
    for name in names:
        values = rng.sample(range(domain), n_values)
        live[name] = {(v,) for v in values}
    initial = {name: sorted(rows) for name, rows in live.items()}

    def fresh_row(rng: random.Random, name: str) -> Optional[Row]:
        for _ in range(8 * domain):
            row = (rng.randrange(domain),)
            if row not in live[name]:
                return row
        return None

    batches = _stream_batches(
        rng, live, fresh_row, n_batches, batch_size, insert_fraction
    )
    return schemas, initial, batches


def replay_with_recompute(
    schemas: Dict[str, Sequence[str]],
    initial: Dict[str, List[Row]],
    batches: List[List[Update]],
    view: str = "Q",
    keys: Sequence[str] = ("findgap", "probes"),
    **build_kwargs,
):
    """Replay a stream incrementally with a per-batch recompute comparator.

    The canonical measurement loop (the smoke-workload registry uses
    it): apply every batch through the catalog, recompute
    the view from scratch after each one (raising if the maintained rows
    diverge), and accumulate both sides' op counts.  Returns
    ``(catalog, live_view, inc_ops, rec_ops)`` where the op dicts map
    each of ``keys`` to its cumulative total.
    """
    catalog, live = build_catalog(schemas, initial, view=view, **build_kwargs)
    inc = {key: 0 for key in keys}
    rec = {key: 0 for key in keys}
    for batch in batches:
        report = catalog.apply_batch(batch)
        rows, ops, _ = live.recompute()
        if rows != live.rows():
            raise RuntimeError(
                f"view {view}: maintained rows diverged from recompute"
            )
        for key in keys:
            inc[key] += report.view_ops(view, key)
            rec[key] += ops.get(key, 0)
    return catalog, live, inc, rec


def build_catalog(
    schemas: Dict[str, Sequence[str]],
    initial: Dict[str, List[Row]],
    view: str = "Q",
    spec: ExecSpec = ExecSpec(),
) -> Tuple[Catalog, LiveJoin]:
    """Materialize a stream's initial state into a served catalog whose
    one view runs under ``spec``."""
    catalog = Catalog()
    for name, attributes in schemas.items():
        catalog.create_relation(name, attributes, initial.get(name, ()))
    live = catalog.register_view(view, list(schemas), spec)
    return catalog, live

"""Expected answers, computed by engines the workloads do not run.

Reads are planned onto Yannakakis, the triangle engine or Minesweeper;
the expectation for every read class comes from the left-deep
``hash_join_plan`` baseline, which none of them is.  The direct library
calls of ``engine_paper`` are checked the same way, and once per
Minesweeper instance the Prop. 2.5 certificate is recorded and
re-checked by ``repro.certificates`` (so a wrong answer is caught even
where two engines agree).  Everything here is set-up work, charged to
``bench.oracle_s`` and never to a latency.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Sequence, Tuple

from repro import Query, Relation
from repro.baselines import hash_join_plan
from repro.certificates import check_certificate, record_certificate
from repro.lang import lower, parse

import gen

Row = Tuple[int, ...]
#: relation name -> (attributes, rows)
Tables = Dict[str, Tuple[Sequence[str], Iterable[Row]]]


def join_rows(query: Query, order: Sequence[str]) -> List[Row]:
    """The natural join projected to ``order``, by hash join."""
    return hash_join_plan(query, list(order))


def expected_rows(text: str, tables: Tables) -> List[Row]:
    """The rows a query text must return over ``tables``."""
    source = {
        name: Relation(name, list(attrs), sorted(rows))
        for name, (attrs, rows) in tables.items()
    }
    statement = parse(text)
    lowered = lower(statement, source)
    rows = join_rows(lowered.query, lowered.output_variables)
    if statement.aggregate is not None:
        if statement.aggregate.func != "COUNT":
            raise ValueError(f"oracle handles COUNT only, got {text!r}")
        return [(len(rows),)]
    return rows


def expected_digest(text: str, tables: Tables) -> str:
    return gen.rows_digest(expected_rows(text, tables))


def certify(prepared, samples: int = 3) -> int:
    """Record the run's certificate and try to refute it.

    Returns the argument's size; raises if the recorded argument fails
    to certify the instance's output.
    """
    _, argument = record_certificate(prepared)
    counterexample = check_certificate(prepared, argument, samples=samples)
    if counterexample is not None:
        raise AssertionError(
            f"recorded certificate for {prepared!r} admits an instance "
            "with different witnesses"
        )
    return len(argument)


class Model:
    """The harness's own copy of a tenant's relations.

    Updated with every batch the generator emits, *before* it is sent:
    :meth:`version` answers "what would a read see after the first
    ``k`` writes", which is what lets a read that overlaps a write be
    checked against both sides of it.
    """

    def __init__(self, tables: Tables) -> None:
        self._attrs = {name: list(attrs) for name, (attrs, _) in tables.items()}
        self._rows = {name: set(map(tuple, rows)) for name, (_, rows) in tables.items()}
        self._digests: List[Dict[str, str]] = []
        #: Seconds spent computing expectations (``bench.oracle_s``).
        self.oracle_seconds = 0.0

    def apply(self, batch: Iterable[Tuple[str, Row, bool]]) -> None:
        for name, row, insert in batch:
            if insert:
                self._rows[name].add(tuple(row))
            else:
                self._rows[name].discard(tuple(row))

    def tables(self) -> Tables:
        return {name: (self._attrs[name], set(rows)) for name, rows in self._rows.items()}

    def live_tuples(self) -> int:
        return sum(len(rows) for rows in self._rows.values())

    def checkpoint(self, texts: Dict[str, str]) -> None:
        """Record the expected digest of every class at this version."""
        t0 = time.perf_counter()
        tables = self.tables()
        self._digests.append(
            {cls: expected_digest(text, tables) for cls, text in texts.items()}
        )
        self.oracle_seconds += time.perf_counter() - t0

    def version(self, k: int) -> Dict[str, str]:
        """Expected digests after the first ``k`` mutations (-1: last)."""
        return self._digests[k]

"""Fail CI when a planner board changes against a committed baseline.

Plans one instance per board shape through a serving ``Session`` and
compares each ``EXPLAIN`` report (the plan, its scoreboard and, under
a structural or triangle pick, the Minesweeper board scored on demand)
with ``benchmarks/baselines/plan_boards.txt``, byte for byte.  The
planner reads no clock, so every estimate, op tally, weighted work and
note on these boards is deterministic:

* ``cycle4-self`` — the ledger's self-joined 4-cycle over
  ``uniform_graph(24, 48, 1)``: unsampled, generic join wins and the
  Minesweeper GAOs are abandoned past its work;
* ``cycle4-disjoint`` / ``triangle-disjoint`` — Example B.1 lifted to
  the 4-cycle and Q△ (``disjoint_ranges_*(128)``): the certificate
  engines win;
* ``cycle5-sampled`` — a self-joined 5-cycle over
  ``uniform_graph(200, 1200, 1)``: sampled, so every Minesweeper GAO
  runs under the scoring budget alone, and each is aborted there;
* ``path3`` — an alpha-acyclic path: Yannakakis by structure, with its
  comparison board.

Refresh intentionally after a planner change (prints a unified diff of
what the rewrite changes — review it, and paste it into the PR)::

    PYTHONPATH=src python benchmarks/check_plan_boards.py --update
"""

from __future__ import annotations

import argparse
import difflib
import os
import sys

BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "baselines", "plan_boards.txt"
)


def _cases():
    """name -> (statement, {relation: rows}); every relation is binary."""
    from repro.datasets.graphs import uniform_graph
    from repro.datasets.instances import (
        disjoint_ranges_cycle4,
        disjoint_ranges_triangle,
    )

    return {
        "cycle4-self": (
            "Q(a, b, c, d) :- H(a, b), H(b, c), H(c, d), H(d, a)",
            {"H": uniform_graph(24, 48, 1)},
        ),
        "cycle4-disjoint": (
            "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)",
            dict(zip("RSTU", disjoint_ranges_cycle4(128))),
        ),
        "triangle-disjoint": (
            "Q(x, y, z) :- R(x, y), S(y, z), T(x, z)",
            dict(zip("RST", disjoint_ranges_triangle(128))),
        ),
        "cycle5-sampled": (
            "Q(a, b, c, d, e) :- "
            "E(a, b), E(b, c), E(c, d), E(d, e), E(e, a)",
            {"E": uniform_graph(200, 1200, 1)},
        ),
        "path3": (
            "Q(a, d) :- P(a, b), P(b, c), P(c, d)",
            {"P": uniform_graph(24, 48, 1)},
        ),
    }


def collect() -> str:
    """Every case's ``EXPLAIN`` report under a ``## name`` heading."""
    from repro.dynamic import Catalog
    from repro.serve import Session

    sections = []
    for name, (text, relations) in _cases().items():
        catalog = Catalog()
        for relation, rows in relations.items():
            catalog.create_relation(relation, ["A", "B"], rows)
        sections.append(f"## {name}\n{Session(catalog).explain(text)}\n")
    return "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the committed baseline from this run",
    )
    args = parser.parse_args(argv)
    current = collect()
    try:
        with open(BASELINE, encoding="utf-8") as handle:
            baseline = handle.read()
    except OSError as exc:
        if not args.update:
            print(f"cannot read baseline {BASELINE}: {exc}", file=sys.stderr)
            return 2
        baseline = ""
    diff = list(difflib.unified_diff(
        baseline.splitlines(keepends=True),
        current.splitlines(keepends=True),
        "baseline", "current",
    ))
    if args.update:
        with open(BASELINE, "w", encoding="utf-8") as handle:
            handle.write(current)
        sys.stdout.writelines(diff)
        print(f"wrote {BASELINE} ({len(_cases())} boards)")
        return 0
    if diff:
        print(
            f"planner board drift vs {os.path.basename(BASELINE)}:",
            file=sys.stderr,
        )
        sys.stderr.writelines(diff)
        print("intended? refresh with --update", file=sys.stderr)
        return 1
    print(f"planner boards match baseline for {len(_cases())} instances")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Quickstart: join three relations with Minesweeper and read the stats.

Run:  python examples/quickstart.py
"""

from repro import Query, Relation, join, naive_join

def main() -> None:
    # A tiny social schema: users, follows edges, and verified accounts.
    users = Relation("Users", ["U"], [(u,) for u in (1, 2, 3, 4, 5)])
    follows = Relation(
        "Follows",
        ["U", "V"],
        [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 1)],
    )
    verified = Relation("Verified", ["V"], [(3,), (5,)])

    # Q(U, V) = Users(U) ⋈ Follows(U, V) ⋈ Verified(V):
    # "who follows a verified account?"
    query = Query([users, follows, verified])

    # join() picks the GAO per the paper: this query is beta-acyclic, so a
    # nested elimination order is used and the chain probe strategy runs.
    result = join(query)
    print(f"query      : {query}")
    print(f"GAO        : {list(result.gao)}  (strategy: {result.strategy})")
    print(f"output     : {result.rows}")

    # Sanity: agree with a naive evaluation.
    assert sorted(result.rows) == naive_join(query, result.gao)

    # The instrumentation is the paper's experimental currency: FindGap
    # probes approximate the certificate size (Figure 2's |C| column).
    stats = result.stats()
    print(f"N (input)  : {query.total_tuples()} tuples")
    print(f"|C| estimate (FindGap calls): {result.certificate_estimate}")
    print(f"probe points explored       : {stats['probes']}")
    print(f"constraints inserted        : {stats['constraints']}")

    # --- Storage backends -------------------------------------------------
    # Relations are indexed by the flat (CSR array-backed) trie by default
    # (backend="auto").  backend="trie" selects the pointer-node reference
    # implementation and backend="btree" routes tuples through a B-tree
    # first; all backends answer every index probe identically — only the
    # constant factors differ.  A per-join override is also available:
    #     join(query, backend="trie")
    from repro import FlatTrieRelation

    flat_backed = Relation("F", ["U", "V"], follows.tuples(), backend="flat")
    assert isinstance(flat_backed.index, FlatTrieRelation)

    # --- Counting-free evaluation ----------------------------------------
    # OpCounters / NullCounters form a two-implementation protocol: pass
    # NullCounters() when you want answers as fast as possible and nobody
    # will read the Section-5.2 operation counts.
    from repro import NullCounters

    fast = join(query, counters=NullCounters(), backend="flat")
    assert sorted(fast.rows) == sorted(result.rows)
    print(f"fast path  : {len(fast.rows)} rows (no counting overhead)")

    # Evidence: `python -m repro experiments` reruns the paper's
    # operation-count tables (and checks their claims); wall-clock is
    # the perf ledger's business (`make ledger-smoke`, EXPERIMENTS.md).


if __name__ == "__main__":
    main()

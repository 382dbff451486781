"""One stats tree for the whole runtime, rendered three ways.

Before ISSUE 7, seven components each grew an ad-hoc ``stats()`` dict
(Session, PlanCache, Planner, Catalog, DeltaRelation, LiveJoin,
WriteAheadLog) with drifting key conventions — the session spelled the
catalog's generation ``catalog_generation`` at top level while the
catalog itself didn't export it at all.  This module pins the single
nested schema everything renders from::

    session.queries_executed / statements_prepared
    planner.plans_built / estimate_runs
    plan_cache.entries / in_flight / hits / misses / coalesced /
               invalidated / drift_replans / evicted
    ops.<counter>                       (cumulative engine OpCounters)
    catalog.generation / batches_applied
    catalog.relations.<name>.<key>      (DeltaRelation.stats)
    catalog.views.<name>.rows / ...     (LiveJoin.stats: per-atom
                                         terms.<atom>.gao / probes,
                                         secondary_orders.count /
                                         splices / rebuilds)
    catalog.wal.<key>                   (durable catalogs only)
    execution.resilience.<counter>      (supervisor retry/fault tallies)
    execution.breaker.<key>             (pool circuit-breaker state)

``repro serve``'s ``STATS`` statement prints the flattened tree, and
:func:`stats_to_prometheus` exports the *same* flattened paths as one
``repro_stat{path="..."}`` gauge family next to the native registry
metrics — so the script transcript and the exposition can be diffed
key for key.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Tuple

#: A stats (sub)tree: str keys, leaves are scalars / lists / subtrees.
StatsTree = Dict[str, Any]


def unified_stats(session: Any) -> StatsTree:
    """The one stats tree (see module docstring) for a serving session."""
    catalog = session.catalog
    tree: StatsTree = {
        "session": {
            "queries_executed": session.queries_executed,
            "statements_prepared": session.statements_prepared,
        },
        "planner": session.planner.stats(),
        "plan_cache": session.cache.stats(),
        "ops": session.counters.snapshot(),
        "catalog": catalog_stats(catalog),
    }
    resilience = getattr(session, "resilience", None)
    breaker = getattr(session, "breaker", None)
    if resilience is not None and breaker is not None:
        tree["execution"] = {
            "resilience": resilience.snapshot(),
            "breaker": breaker.stats(),
        }
    slow = getattr(session.obs, "slow_queries", None)
    if slow is not None and session.obs.enabled:
        tree["session"]["slow_queries"] = len(slow)
    return tree


def catalog_stats(catalog: Any) -> StatsTree:
    """The catalog subtree: generation + the per-component stats()."""
    tree: StatsTree = dict(catalog.stats())
    tree["generation"] = catalog.generation
    return tree


def flatten_stats(tree: StatsTree, prefix: str = "") -> Dict[str, object]:
    """Depth-first ``dotted.path -> leaf`` flattening of a stats tree.

    Lists flatten to their length (e.g. ``catalog.wal.repairs`` counts
    repairs); scalars pass through, including non-numeric ones (the
    WAL's ``fsync_policy``) — the Prometheus renderer drops those, the
    text renderers keep them.
    """
    out: Dict[str, object] = {}
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(flatten_stats(value, path))
        elif isinstance(value, (list, tuple)):
            out[path] = len(value)
        else:
            out[path] = value
    return out


def render_stats_tree(tree: StatsTree, prefix: str = "") -> List[str]:
    """``path = value`` lines, sorted — the ``STATS`` statement body."""
    flat = flatten_stats(tree)
    width = max((len(p) for p in flat), default=0)
    return [
        f"{prefix}{path.ljust(width)} = {flat[path]}"
        for path in sorted(flat)
    ]


def _numeric_leaves(tree: StatsTree) -> Iterator[Tuple[str, float]]:
    for path, value in sorted(flatten_stats(tree).items()):
        if isinstance(value, bool):
            yield path, int(value)
        elif isinstance(value, (int, float)):
            yield path, value


def stats_to_prometheus(tree: StatsTree, metric: str = "repro_stat") -> str:
    """The flattened tree as one labeled gauge family.

    Every numeric leaf becomes ``repro_stat{path="a.b.c"} value`` —
    the same paths ``STATS`` prints, so transcript and exposition agree
    by construction.  Non-numeric leaves (policy strings) are skipped.
    """
    lines = [
        f"# HELP {metric} Unified runtime stats tree "
        "(see repro.obs.stats).",
        f"# TYPE {metric} gauge",
    ]
    for path, value in _numeric_leaves(tree):
        rendered = (
            str(int(value)) if float(value).is_integer() else repr(value)
        )
        lines.append(f'{metric}{{path="{path}"}} {rendered}')
    return "".join(line + "\n" for line in lines)

"""Unified observability: span tracing + metrics + the slow-query log.

The repo already counts its *work* precisely (``OpCounters`` — the
paper's certificate currency); this package makes the runtime's *time*
visible with the same two-implementation discipline.  An
:class:`Observability` object bundles

* a :class:`~repro.obs.trace.Tracer` — strictly nested spans over the
  query lifecycle (plan → cache → engine → per-shard → WAL), with op
  tallies bridged into span attributes;
* a :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  and fixed-bucket histograms with Prometheus text exposition; and
* the slow-query log — executions slower than ``slow_query_ms`` are
  recorded with their text, plan, timing, and op snapshot.

:data:`NULL_OBS` is the disabled counterpart every component defaults
to: its tracer and registry are the shared Null implementations, so an
un-instrumented run pays a handful of no-op method calls and nothing
else — op-count parity with the pre-observability code is CI-gated by
``make check-ops``, and the ledger reports what tracing costs
(``obs.trace_overhead_pct``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.metrics import (
    DEFAULT_OP_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    NULL_METRICS,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)
from repro.obs.stats import (
    flatten_stats,
    render_stats_tree,
    stats_to_prometheus,
    unified_stats,
)
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    TraceError,
    Tracer,
    load_jsonl,
    render_tree,
)

__all__ = [
    "Observability",
    "NullObservability",
    "NULL_OBS",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceError",
    "NULL_SPAN",
    "render_tree",
    "load_jsonl",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Histogram",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_OP_BUCKETS",
    "unified_stats",
    "flatten_stats",
    "render_stats_tree",
    "stats_to_prometheus",
]


class Observability:
    """Tracer + metrics + slow-query log, attached as one unit.

    ``trace`` controls only the *initial* tracer state; the script
    layer's ``TRACE ON`` / ``TRACE OFF`` toggles it at runtime.
    Metrics are always live on a real ``Observability`` — they are
    cheap aggregates; the expensive part (span objects) is what the
    trace flag gates.
    """

    enabled = True

    def __init__(
        self,
        trace: bool = False,
        slow_query_ms: Optional[float] = None,
        namespace: str = "repro",
    ) -> None:
        self.tracer = Tracer(enabled=trace)
        self.metrics = MetricsRegistry(namespace=namespace)
        self.slow_query_ms = slow_query_ms
        #: Recorded slow executions, oldest first (bounded by caller).
        self.slow_queries: List[Dict[str, object]] = []

    def record_query(
        self, text: str, seconds: float, **details: object
    ) -> None:
        """Feed one execution to the slow-query log (no-op if under
        threshold or the log is disabled)."""
        if self.slow_query_ms is None:
            return
        if seconds * 1e3 < self.slow_query_ms:
            return
        entry: Dict[str, object] = {"text": text, "seconds": round(seconds, 6)}
        entry.update(details)
        self.slow_queries.append(entry)

    def __repr__(self) -> str:
        return (
            f"Observability(trace={'on' if self.tracer.enabled else 'off'}, "
            f"{len(self.metrics)} instruments, "
            f"{len(self.slow_queries)} slow queries)"
        )


class NullObservability:
    """The disabled bundle: null tracer, null metrics, no slow log."""

    enabled = False
    tracer = NULL_TRACER
    metrics = NULL_METRICS
    slow_query_ms = None
    slow_queries: List[Dict[str, object]] = []

    def record_query(
        self, text: str, seconds: float, **details: object
    ) -> None:
        pass

    def __repr__(self) -> str:
        return "NullObservability()"


#: The shared disabled bundle every component defaults to.
NULL_OBS = NullObservability()

"""The metrics registry: counters, gauges, fixed-bucket histograms.

One registry holds every named instrument a process exports.  The
design follows the Prometheus client model stripped to what this repo
needs — no global default registry, no background threads, fixed
bucket bounds chosen at registration:

* :class:`Counter` — monotone totals (queries served, WAL fsyncs);
* :class:`Gauge` — last-write-wins levels (catalog generation);
* :class:`Histogram` — fixed upper-bound buckets with ``+Inf``
  implicit, cumulative on export, plus min/max/sum/count so a single
  run's summary is useful without a scrape pipeline.

Instruments may carry labels (``registry.counter(name, labels={...})``
registers one child per distinct label set); exposition groups children
under one ``# HELP`` / ``# TYPE`` header per family, and
:meth:`MetricsRegistry.render_prometheus` emits the text exposition
format version 0.0.4 that Prometheus and its ecosystem scrape.

Mirroring ``OpCounters`` / ``NullCounters``, :class:`NullMetrics`
shares the interface but hands every caller one stateless no-op
instrument, so un-instrumented runs pay a method call and nothing else.

Thread safety: the serving layer (``repro.net``) shares one registry
across every HTTP handler thread, so registration (get-or-create in
``_family``) takes a registry-level lock and each instrument guards
its mutable state with its own lock.  Unguarded ``+=`` would tear
under concurrency — a histogram whose ``count`` disagrees with its
``+Inf`` bucket fails the exposition checker
(``benchmarks/check_obs.py``), which treats that equality as a
correctness invariant, not a formality.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): 100µs .. 10s, roughly 1-2-5.
DEFAULT_TIME_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default op-count buckets: powers of 4 up to ~16M.
DEFAULT_OP_BUCKETS = (
    1, 4, 16, 64, 256, 1024, 4096, 16384, 65536,
    262144, 1048576, 4194304, 16777216,
)

LabelSet = Tuple[Tuple[str, str], ...]


def _label_set(labels: Optional[Dict[str, object]]) -> LabelSet:
    if not labels:
        return ()
    out: List[Tuple[str, str]] = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        out.append((key, str(labels[key])))
    return tuple(out)


def _render_labels(labels: LabelSet, extra: Optional[List[Tuple[str, str]]] = None) -> str:
    pairs = list(labels) + (extra or [])
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(k, v.replace("\\", r"\\").replace('"', r"\""))
        for k, v in pairs
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class Counter:
    """A monotone total."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        return self.value

    def expose(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(self.labels)} "
            f"{_format_value(self.value)}"
        ]


class Gauge:
    """A last-write-wins level."""

    __slots__ = ("name", "labels", "value", "_lock")

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> float:
        return self.value

    def expose(self) -> List[str]:
        return [
            f"{self.name}{_render_labels(self.labels)} "
            f"{_format_value(self.value)}"
        ]


class Histogram:
    """Fixed-bucket histogram (cumulative buckets on export)."""

    __slots__ = (
        "name", "labels", "buckets", "counts", "count", "sum",
        "min", "max", "_lock",
    )

    kind = "histogram"

    def __init__(
        self,
        name: str,
        buckets: Sequence[float],
        labels: LabelSet = (),
    ) -> None:
        bounds = tuple(sorted(set(float(b) for b in buckets)))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if math.inf in bounds:
            bounds = bounds[:-1]
        self.name = name
        self.labels = labels
        self.buckets = bounds
        #: Per-bucket (non-cumulative) observation counts; the +Inf
        #: bucket is the final slot.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        lo, hi = 0, len(self.buckets)
        while lo < hi:  # bisect over upper bounds
            mid = (lo + hi) // 2
            if value <= self.buckets[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self.counts[lo] += 1
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def summary(self) -> Dict[str, object]:
        """Compact dict for reports (metrics.json)."""
        with self._lock:
            return {
                "count": self.count,
                "sum": round(self.sum, 9),
                "min": self.min,
                "max": self.max,
                "mean": (
                    round(self.sum / self.count, 9) if self.count else None
                ),
                "buckets": {
                    _format_value(bound): cum
                    for bound, cum in zip(
                        list(self.buckets) + [math.inf],
                        self._cumulative(),
                    )
                },
            }

    def snapshot(self) -> Dict[str, object]:
        return self.summary()

    def _cumulative(self) -> List[int]:
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out

    def expose(self) -> List[str]:
        lines: List[str] = []
        bounds = list(self.buckets) + [math.inf]
        with self._lock:
            cumulative = self._cumulative()
            total, seen = self.count, self.sum
        for bound, cum in zip(bounds, cumulative):
            le = [("le", _format_value(bound))]
            lines.append(
                f"{self.name}_bucket"
                f"{_render_labels(self.labels, le)} {cum}"
            )
        base = _render_labels(self.labels)
        lines.append(f"{self.name}_sum{base} {_format_value(seen)}")
        lines.append(f"{self.name}_count{base} {total}")
        return lines


class _NullInstrument:
    """One shared no-op standing in for every instrument kind."""

    __slots__ = ()

    name = ""
    value = 0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def summary(self) -> Dict[str, object]:
        return {}


NULL_INSTRUMENT = _NullInstrument()

#: What the registry surface returns: the real instrument, or the
#: shared null when metrics are off (NullMetrics).
CounterLike = Union[Counter, _NullInstrument]
GaugeLike = Union[Gauge, _NullInstrument]
HistogramLike = Union[Histogram, _NullInstrument]


class MetricsRegistry:
    """Named instruments + the exposition / snapshot surface.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the
    first call registers (name, help, kind, buckets), later calls with
    the same name and labels return the same instrument — so call
    sites don't need to coordinate registration order.  Re-registering
    a name as a different kind is an error.
    """

    enabled = True

    def __init__(self, namespace: str = "") -> None:
        if namespace and not _NAME_RE.match(namespace):
            raise ValueError(f"invalid metric namespace {namespace!r}")
        self.namespace = namespace
        #: family name -> (kind, help, {label_set: instrument})
        self._families: "Dict[str, Tuple[str, str, Dict[LabelSet, object]]]" = {}
        self._lock = threading.RLock()

    # -- registration -----------------------------------------------------

    def _family(
        self, name: str, kind: str, help: str
    ) -> "Tuple[str, Dict[LabelSet, object]]":
        if self.namespace:
            name = f"{self.namespace}_{name}"
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, help, {})
                self._families[name] = family
            elif family[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {family[0]}, "
                    f"not {kind}"
                )
        return name, family[2]

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, object]] = None,
    ) -> CounterLike:
        full, children = self._family(name, "counter", help)
        key = _label_set(labels)
        with self._lock:
            if key not in children:
                children[key] = Counter(full, key)
            return children[key]

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, object]] = None,
    ) -> GaugeLike:
        full, children = self._family(name, "gauge", help)
        key = _label_set(labels)
        with self._lock:
            if key not in children:
                children[key] = Gauge(full, key)
            return children[key]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Optional[Dict[str, object]] = None,
    ) -> HistogramLike:
        full, children = self._family(name, "histogram", help)
        key = _label_set(labels)
        with self._lock:
            if key not in children:
                children[key] = Histogram(full, buckets, key)
            return children[key]

    # -- export -----------------------------------------------------------

    def render_prometheus(self) -> str:
        """The text exposition (version 0.0.4), families sorted by name."""
        lines: List[str] = []
        with self._lock:
            families = {
                name: (kind, help, dict(children))
                for name, (kind, help, children) in self._families.items()
            }
        for name in sorted(families):
            kind, help, children = families[name]
            if help:
                lines.append(f"# HELP {name} {help}")
            lines.append(f"# TYPE {name} {kind}")
            for key in sorted(children):
                lines.extend(children[key].expose())
        return "".join(line + "\n" for line in lines)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-able view: family -> {labels-key: value/summary}."""
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            families = {
                name: (kind, dict(children))
                for name, (kind, _, children) in self._families.items()
            }
        for name in sorted(families):
            kind, children = families[name]
            entry: Dict[str, object] = {"kind": kind}
            for key in sorted(children):
                label_key = (
                    ",".join(f"{k}={v}" for k, v in key) if key else ""
                )
                entry[label_key or "value"] = children[key].snapshot()
            out[name] = entry
        return out

    def __len__(self) -> int:
        return sum(len(c) for _, _, c in self._families.values())

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self._families)} families, "
            f"{len(self)} instruments)"
        )


class NullMetrics(MetricsRegistry):
    """The no-op half of the metrics protocol (see ``NullCounters``)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, object]] = None,
    ) -> CounterLike:
        return NULL_INSTRUMENT

    def gauge(
        self, name: str, help: str = "",
        labels: Optional[Dict[str, object]] = None,
    ) -> GaugeLike:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Optional[Dict[str, object]] = None,
    ) -> HistogramLike:
        return NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        return {}

    def render_prometheus(self) -> str:
        return ""


#: Shared null registry for un-instrumented runs.
NULL_METRICS = NullMetrics()

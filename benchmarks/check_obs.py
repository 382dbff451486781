"""Fail CI when a ``--metrics-dir`` dump violates the obs schema.

``make trace-smoke`` replays the serving demo under ``--trace
--metrics-dir`` and points this checker at the artifacts.  Four files
are validated:

``spans.jsonl``
    Must round-trip through :func:`repro.obs.load_jsonl` (which
    enforces the trace invariants: valid JSON per line, required keys,
    non-negative durations, parents exported before children, no
    duplicate span ids) and must cover the query-lifecycle stages the
    smoke exercises (``--require``, repeatable).
``metrics.prom``
    Prometheus text-exposition 0.0.4 grammar: every sample preceded by
    ``# HELP`` + ``# TYPE`` for its family, histogram families carry
    cumulative non-decreasing ``_bucket{le=...}`` series ending at
    ``+Inf`` with matching ``_count``, plus ``_sum``; and the unified
    stats tree is present as the ``repro_stat`` gauge family.  A
    scraped ``repro serve --http`` page (``--prom``) must also carry
    the request and connection families (:data:`HTTP_FAMILIES`).
``metrics.json``
    Parses, with ``metrics`` (registry snapshot) and ``stats`` (the
    unified tree — ``session`` / ``planner`` / ``plan_cache`` /
    ``catalog`` subtrees) top-level keys.
``slow_queries.jsonl``
    Every line parses as a JSON object with ``text`` and ``seconds``
    (the file may be empty).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

#: ``name{labels} value [timestamp]`` — one exposition sample.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)(?:\s+\d+)?$"
)
_LE_RE = re.compile(r'le="([^"]+)"')

DEFAULT_REQUIRED_SPANS = ("query", "plan", "execute", "apply_batch")
#: Families a scraped ``repro serve --http`` page must carry (``--prom``):
#: requests and accepted/open connections, so reuse is readable.
HTTP_FAMILIES = (
    "repro_http_requests_total",
    "repro_http_connections_total",
    "repro_http_connections_open",
)


class CheckFailure(Exception):
    pass


def _fail(path: str, message: str) -> None:
    raise CheckFailure(f"{os.path.basename(path)}: {message}")


def check_spans(path: str, required) -> int:
    sys.path.insert(
        0,
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        ),
    )
    try:
        from repro.obs import load_jsonl
    finally:
        sys.path.pop(0)
    with open(path) as handle:
        try:
            roots = load_jsonl(handle)
        except ValueError as exc:
            _fail(path, f"invariant violation: {exc}")
    names = set()

    def walk(span):
        names.add(span.name)
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    missing = [name for name in required if name not in names]
    if missing:
        _fail(
            path,
            f"missing required span stage(s) {missing}; saw {sorted(names)}",
        )
    if not roots:
        _fail(path, "no root spans exported")
    return len(roots)


def _family(sample_name: str) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def check_prometheus(path: str, require_families=()) -> int:
    helped, typed = set(), {}
    buckets = {}  # family|labels-minus-le -> [(le, value)]
    sums, counts = {}, {}
    families_seen = set()
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                helped.add(line.split()[2])
                continue
            if line.startswith("# TYPE "):
                parts = line.split()
                typed[parts[2]] = parts[3]
                continue
            if line.startswith("#"):
                continue
            match = _SAMPLE_RE.match(line)
            if not match:
                _fail(path, f"line {lineno}: unparseable sample {line!r}")
            name = match.group("name")
            family = _family(name)
            families_seen.add(family)
            if family not in helped or family not in typed:
                _fail(
                    path,
                    f"line {lineno}: sample {name!r} before "
                    f"# HELP/# TYPE for family {family!r}",
                )
            try:
                value = float(match.group("value"))
            except ValueError:
                _fail(path, f"line {lineno}: non-numeric value in {line!r}")
            labels = match.group("labels") or ""
            if name.endswith("_bucket"):
                le_match = _LE_RE.search(labels)
                if not le_match:
                    _fail(path, f"line {lineno}: _bucket without le label")
                le_raw = le_match.group(1)
                le = float("inf") if le_raw == "+Inf" else float(le_raw)
                key = (family, _LE_RE.sub("", labels))
                buckets.setdefault(key, []).append((le, value))
            elif name.endswith("_sum"):
                sums[(family, labels)] = value
            elif name.endswith("_count"):
                counts[(family, labels)] = value
    for (family, labels), series in sorted(buckets.items()):
        if typed.get(family) != "histogram":
            _fail(path, f"{family}: _bucket series but TYPE != histogram")
        les = [le for le, _ in series]
        values = [v for _, v in series]
        if les[-1] != float("inf"):
            _fail(path, f"{family}{{{labels}}}: bucket series missing +Inf")
        if any(late < early for early, late in zip(values, values[1:])):
            _fail(
                path,
                f"{family}{{{labels}}}: cumulative buckets decrease",
            )
        if (family, labels) not in sums:
            _fail(path, f"{family}{{{labels}}}: histogram missing _sum")
        count = counts.get((family, labels))
        if count is None:
            _fail(path, f"{family}{{{labels}}}: histogram missing _count")
        if count != values[-1]:
            _fail(
                path,
                f"{family}{{{labels}}}: _count {count} != +Inf bucket "
                f"{values[-1]}",
            )
    for family in ("repro_stat",) + tuple(require_families):
        if family not in families_seen:
            _fail(path, f"required family {family} absent")
    return len(families_seen)


def check_metrics_json(path: str) -> int:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except ValueError as exc:
            _fail(path, f"not valid JSON: {exc}")
    for key in ("metrics", "stats"):
        if key not in doc:
            _fail(path, f"missing top-level key {key!r}")
    for subtree in ("session", "planner", "plan_cache", "catalog"):
        if subtree not in doc["stats"]:
            _fail(path, f"stats tree missing {subtree!r} subtree")
    return len(doc["metrics"])


def check_slow_queries(path: str) -> int:
    entries = 0
    with open(path) as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                _fail(path, f"line {lineno}: not valid JSON: {exc}")
            if not isinstance(entry, dict):
                _fail(path, f"line {lineno}: entry is not an object")
            for key in ("text", "seconds"):
                if key not in entry:
                    _fail(path, f"line {lineno}: entry missing {key!r}")
            entries += 1
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "metrics_dir", nargs="?",
        help="directory written by serve --metrics-dir",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=None,
        metavar="SPAN",
        help="span name that must appear in spans.jsonl (repeatable; "
        f"default: {', '.join(DEFAULT_REQUIRED_SPANS)})",
    )
    parser.add_argument(
        "--prom",
        metavar="FILE",
        help="check a single Prometheus exposition file instead of a "
        "metrics dump directory (e.g. a scraped /metrics page from "
        "`repro serve --http`)",
    )
    args = parser.parse_args(argv)
    if (args.metrics_dir is None) == (args.prom is None):
        parser.error("pass exactly one of metrics_dir or --prom")
    required = (
        tuple(args.require) if args.require else DEFAULT_REQUIRED_SPANS
    )
    if args.prom:
        try:
            if not os.path.exists(args.prom):
                raise CheckFailure(f"{args.prom}: no such file")
            count = check_prometheus(args.prom, HTTP_FAMILIES)
            print(f"ok {args.prom}: {count} metric families")
        except CheckFailure as exc:
            print(f"obs schema check failed: {exc}", file=sys.stderr)
            return 1
        print(f"exposition at {args.prom} passes the schema check")
        return 0
    checks = [
        ("spans.jsonl", lambda p: check_spans(p, required), "root spans"),
        ("metrics.prom", check_prometheus, "metric families"),
        ("metrics.json", check_metrics_json, "snapshot families"),
        ("slow_queries.jsonl", check_slow_queries, "slow queries"),
    ]
    try:
        for filename, check, unit in checks:
            path = os.path.join(args.metrics_dir, filename)
            if not os.path.exists(path):
                raise CheckFailure(f"{filename}: missing from dump")
            count = check(path)
            print(f"ok {filename}: {count} {unit}")
    except CheckFailure as exc:
        print(f"obs schema check failed: {exc}", file=sys.stderr)
        return 1
    print(f"obs dump at {args.metrics_dir} passes the schema check")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

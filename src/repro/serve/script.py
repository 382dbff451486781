"""Script replay: mixed DDL / updates / queries against a live catalog.

The batch-serving entry point (``repro serve --script`` and the REPL
both drive it).  One statement per line::

    # comments and blank lines are ignored
    CREATE R(A, B)            -- register a writable relation
    +R 1,2                    -- stage an insert (update-log syntax)
    -R 2,3                    -- stage a delete
    commit                    -- apply staged updates as one batch
    FLUSH [R]                 -- journalled no-op (writes are already indexed)
    COMPACT [R]               -- journalled no-op (writes are already indexed)
    SNAPSHOT                  -- persist a snapshot (durable sessions)
    TRACE ON                  -- span-trace queries from here on
    TRACE OFF                 -- stop tracing
    Q(x, z) :- R(x, y), S(y, z)   -- execute a query, print rows
    EXPLAIN Q(COUNT) :- R(x, y)   -- print the plan scoreboard
    STATS                     -- print session statistics

With tracing on, each query's output is followed by its span tree
(``# ``-prefixed lines — the ``EXPLAIN ANALYZE`` view), and ``STATS``
always appends the flattened unified stats tree
(:mod:`repro.obs.stats`), the same paths the Prometheus exposition
exports.

Update lines reuse the :mod:`repro.dynamic.log` syntax, so an existing
update log pastes straight into a script.  Staged updates are
committed implicitly before any query, EXPLAIN, FLUSH, or COMPACT and
at end of script (a query must never read around pending writes).
"""

from __future__ import annotations

import re
from typing import IO, Iterable, List, Optional, Union

from repro.core.resilience import ExecutionError
from repro.dynamic.log import parse_update
from repro.lang.ast import QueryError
from repro.lang.parser import is_query_text
from repro.serve.session import ExecResult, Session

#: ``CREATE Name(A, B, ...)`` — DDL line.
_CREATE_RE = re.compile(
    r"^create\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*"
    r"\(\s*(?P<attrs>[^)]*)\s*\)\s*$",
    re.IGNORECASE,
)
_ATTR_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ScriptError(ValueError):
    """A script line failed; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str) -> None:
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ScriptRunner:
    """Replays script lines against a session, collecting output."""

    def __init__(self, session: Optional[Session] = None) -> None:
        self.session = session if session is not None else Session()
        self._pending: List = []
        self.out: List[str] = []

    # ------------------------------------------------------------------

    def run(self, lines: Iterable[str]) -> List[str]:
        """Execute every line; returns the accumulated output lines."""
        for lineno, raw in enumerate(lines, 1):
            self.run_line(raw, lineno)
        self.finish()
        return self.out

    def finish(self) -> None:
        """Commit any staged updates (end of script / REPL exit)."""
        self._commit_pending()

    def run_line(self, raw: str, lineno: int = 0) -> None:
        line = raw.split("#", 1)[0].strip()
        if not line:
            return
        try:
            self._dispatch(line)
        except QueryError as exc:
            raise ScriptError(lineno, str(exc)) from exc
        except ExecutionError as exc:
            # Typed admission/resilience aborts (BudgetExceeded,
            # QueryTimeout, ShardFailure) keep per-statement
            # attribution: the line number names the query that blew
            # its budget, and the cause chain keeps the typed error.
            raise ScriptError(lineno, str(exc)) from exc
        except (KeyError, ValueError) as exc:
            raise ScriptError(lineno, str(exc)) from exc

    # ------------------------------------------------------------------

    def _dispatch(self, line: str) -> None:
        catalog = self.session.catalog
        lowered = line.lower()
        if line[0] in "+-":
            update = parse_update(line)
            # Validate eagerly (relation exists, arity fits) so the
            # error points at this line, not at the commit.
            stored = catalog.relation(update.relation)
            if len(update.row) != stored.arity:
                raise ValueError(
                    f"tuple {update.row} does not match arity "
                    f"{stored.arity} of {update.relation!r}"
                )
            self._pending.append(update)
            return
        if lowered == "commit":
            self._commit_pending()
            return
        if lowered in ("stats",):
            self._emit_stats()
            return
        if lowered in ("trace on", "trace off"):
            self._set_trace(lowered.endswith("on"))
            return
        if lowered == "snapshot":
            # Staged updates must be durable (and WAL-positioned)
            # before the image is cut.
            self._commit_pending()
            info = catalog.snapshot()  # raises if not durable
            self.out.append(
                f"# snapshot {info.snapshot_id} @ wal lsn "
                f"{info.wal_lsn} (root {info.catalog_root[:16]}...)"
            )
            return
        first_word = lowered.split(None, 1)[0]
        if first_word in ("flush", "compact"):
            self._commit_pending()
            rest = line.split(None, 1)
            target = rest[1].strip() if len(rest) > 1 else None
            getattr(catalog, first_word)(target)
            self.out.append(
                f"# {first_word} {target if target else 'all'}"
            )
            return
        match = _CREATE_RE.match(line)
        if match:
            name = match.group("name")
            if not name[0].isupper():
                # The query grammar requires capitalized relation
                # names; a lowercase relation would load data no query
                # could ever read back.
                raise ValueError(
                    f"relation name {name!r} must start with an "
                    "uppercase letter (queries reference capitalized "
                    "names only)"
                )
            attrs = [
                a.strip() for a in match.group("attrs").split(",")
                if a.strip()
            ]
            bad = [a for a in attrs if not _ATTR_RE.match(a)]
            if bad:
                raise ValueError(
                    f"invalid attribute name(s) {bad} in CREATE {name}"
                )
            catalog.create_relation(name, attrs)
            self.out.append(f"# created {name}({', '.join(attrs)})")
            return
        if first_word == "explain":
            self._commit_pending()
            parts = line.split(None, 1)
            self.out.append(
                self.session.explain(parts[1] if len(parts) > 1 else "")
            )
            return
        if is_query_text(line):
            self._commit_pending()
            self._emit_result(self.session.execute(line))
            return
        raise ValueError(
            f"unrecognized statement {line!r} (expected CREATE, +/-, "
            "commit, flush, compact, snapshot, trace on/off, explain, "
            "stats, or a query)"
        )

    # ------------------------------------------------------------------

    def _set_trace(self, on: bool) -> None:
        """``TRACE ON`` / ``TRACE OFF``: toggle span tracing at runtime.

        A session running with the null observability bundle gets a
        real one attached on the first ``TRACE ON`` — scripts work the
        same whether or not the CLI passed ``--trace``.
        """
        session = self.session
        if on and not session.obs.enabled:
            from repro.obs import Observability

            session.attach_obs(Observability(trace=True))
        elif session.obs.enabled:
            session.obs.tracer.enabled = on
        self.out.append(f"# trace {'on' if on else 'off'}")

    def _commit_pending(self) -> None:
        if not self._pending:
            return
        updates, self._pending = self._pending, []
        report = self.session.catalog.apply_batch(updates)
        applied = ", ".join(
            f"{name} +{ins}/-{dels}"
            for name, (ins, dels) in report.applied.items()
        )
        self.out.append(
            f"# batch {report.batch} applied: {applied or 'no-op'}"
        )

    def _emit_result(self, result: ExecResult) -> None:
        self.out.append(f"# columns: {','.join(result.columns)}")
        for row in result.rows:
            self.out.append(",".join(map(str, row)))
        origin = "cached plan" if result.cached_plan else "planned"
        if result.statement.is_aggregate():
            summary = f"value={result.value}"
        else:
            summary = f"{len(result.rows)} rows"
        self.out.append(
            f"# {summary}  [{result.plan_summary()}; {origin}; "
            f"findgap={result.ops.get('findgap', 0)}]"
        )
        if result.trace is not None:
            from repro.obs import render_tree

            for line in render_tree([result.trace]):
                self.out.append(f"# {line}")

    def _emit_stats(self) -> None:
        from repro.obs import render_stats_tree, unified_stats

        stats = self.session.stats()
        cache = stats["plan_cache"]
        planner = stats["planner"]
        self.out.append(
            "# session: "
            f"queries={stats['queries_executed']} "
            f"plans_built={planner['plans_built']} "
            f"cache_hits={cache['hits']} "
            f"cache_misses={cache['misses']} "
            f"cache_invalidated={cache['invalidated']} "
            f"generation={stats['catalog_generation']}"
        )
        # The full unified tree, one dotted path per line — the same
        # paths stats_to_prometheus exports as repro_stat{path=...}.
        for line in render_stats_tree(unified_stats(self.session)):
            self.out.append(f"# {line}")


def run_script(
    source: Union[str, IO[str], Iterable[str]],
    session: Optional[Session] = None,
) -> List[str]:
    """Run a script from a path, open file, or iterable of lines."""
    runner = ScriptRunner(session)
    if isinstance(source, str):
        with open(source) as handle:
            return runner.run(handle)
    return runner.run(source)

"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiments [names...]``
    Rerun the paper's experiments (default: all) and print their
    operation-count tables as markdown; exits 1 when a table no longer
    shows its claim (see EXPERIMENTS.md).

``join --relation NAME=ATTRS:FILE [...]``
    Evaluate a natural join over integer-CSV relations with Minesweeper
    (or a baseline engine) and print rows plus instrumentation.
    ``--workers W [--shards K]`` shards the first GAO attribute's domain
    and runs the ranges in a multiprocessing pool (rows and their order
    are invariant); the same flags apply to ``certificate`` (per-shard
    record+check fan-out) and ``stream`` (sharded delta terms).

``gao-search --relation ...``
    Measure candidate attribute orders and report the cheapest
    (the paper's §7 future-work direction, executable).

``certificate --relation ...``
    Run the Proposition-2.5 recorder: extract the comparisons the engine
    performs and check them with the randomized Definition-2.3 refuter.

``stream --relation ... --view Q=R,S --log updates.log``
    Replay an update log against live views: registers the relations as
    writable ``DeltaRelation``s, maintains each view incrementally
    via the delta rule, and reports incremental-vs-recompute op counts
    and wall time per batch.

``query --relation ... "Q(x,z) :- R(x,y), S(y,z)"``
    Parse, plan, and execute a conjunctive query text through the
    serving layer (:mod:`repro.serve`): the cost-based planner picks
    the engine (triangle CDS / Yannakakis / Minesweeper), the GAO, and
    the shard split, and the plan is cached by query signature.
    ``--explain`` prints the candidate scoreboard instead of rows;
    ``--repl`` reads statements (queries, ``+R 1,2`` updates,
    ``commit``, ``CREATE``, ``EXPLAIN``, ``STATS``) from stdin.

``serve --script FILE [--relation ...] [--data-dir DIR]``
    Batch serving: replay a script of mixed DDL / updates / queries
    against a live catalog and print the transcript.  With
    ``--data-dir`` the catalog is durable: state is recovered from the
    directory (WAL + newest snapshot) before the script runs and every
    mutation is journaled, so a crash mid-script loses nothing that
    committed (``--fsync`` picks the sync policy,
    ``--snapshot-on-exit`` cuts a snapshot and trims the WAL on the
    way out; the script's ``SNAPSHOT`` statement does it mid-run).

``recover --data-dir DIR [--snapshot]``
    Rebuild catalog state from a data directory (newest valid snapshot
    + WAL suffix replay, Merkle-verified) and report what was
    recovered; a directory that does not exist is refused, not
    created.  ``--snapshot`` then persists the recovered state as a
    fresh snapshot and deletes the WAL segments it covers, bounding
    future recovery time.

``verify-state --data-dir DIR``
    Audit a data directory offline: manifest checksum, per-file
    SHA-256 hashes, Merkle relation roots and catalog root, WAL
    integrity.  Exit 1 if any check fails (tampered or corrupt state)
    or DIR does not exist.

Relation files are headerless CSVs of integers, one tuple per line.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.core.engine import ExecSpec, run_join
from repro.core.gao_search import search_gao
from repro.core.query import Query
from repro.storage.flat_trie import FlatTrieRelation
from repro.storage.relation import Relation
from repro.util.counters import OpCounters


def _load_relation(spec: str):
    """Parse ``NAME=A,B:path.csv`` into ``(Relation, dictionaries)``.

    Non-integer columns are dictionary-encoded (order-preserving) via
    :mod:`repro.io`; output rows then show the integer codes, and
    ``dictionaries`` maps the encoded attributes to their code books.
    """
    from repro.io import load_csv

    try:
        name, rest = spec.split("=", 1)
        attrs_text, path = rest.split(":", 1)
    except ValueError:
        raise SystemExit(
            f"bad --relation spec {spec!r}; expected NAME=A,B:file.csv"
        )
    attributes = [a.strip() for a in attrs_text.split(",") if a.strip()]
    try:
        relation, dictionaries = load_csv(
            path, name.strip(), attributes=attributes
        )
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}")
    return relation, dictionaries


def _build_query(specs: Sequence[str]) -> Query:
    if not specs:
        raise SystemExit("at least one --relation is required")
    relations = [_load_relation(spec)[0] for spec in specs]
    try:
        return Query(relations)
    except ValueError as exc:  # e.g. duplicate --relation name
        raise SystemExit(str(exc))


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.runners import EXPERIMENTS, report

    unknown = [n for n in args.names if n not in EXPERIMENTS]
    if unknown:
        raise SystemExit(
            f"unknown experiments {unknown}; available: {list(EXPERIMENTS)}"
        )
    text, failed = report(args.names)
    sys.stdout.write(text)
    if failed:
        print(f"check failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _exec_spec(args: argparse.Namespace, query=None, **knobs):
    """The command's resolved :class:`~repro.core.engine.ExecSpec`.

    Built from the shared ``--workers/--shards`` flags
    plus the command's own ``knobs`` and resolved against ``query`` —
    or, with none loaded yet, range-checked and defaulted only.  An
    out-of-range flag exits with the spec's own message.
    """
    try:
        return ExecSpec(
            workers=args.workers,
            shards=args.shards,
            **knobs,
        ).resolve(query)
    except ValueError as exc:
        raise SystemExit(f"bad execution flags: {exc}")


def _resilience_args(args: argparse.Namespace):
    """Validated ``(budget, retry_policy)`` from the shared flags.

    Either may be ``None`` — an unbounded budget / the default policy.
    """
    from repro.core.resilience import QueryBudget, RetryPolicy

    budget = None
    if (
        args.max_ops is not None
        or args.deadline_ms is not None
        or args.max_rows is not None
    ):
        try:
            budget = QueryBudget(
                max_ops=args.max_ops,
                deadline_ms=args.deadline_ms,
                max_rows=args.max_rows,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))
    policy = None
    if args.retries is not None:
        if args.retries < 0:
            raise SystemExit("--retries must be non-negative")
        policy = RetryPolicy(retries=args.retries)
    return budget, policy


def _cmd_join(args: argparse.Namespace) -> int:
    budget, retry_policy = _resilience_args(args)
    query = _build_query(args.relation)
    gao = args.gao.split(",") if args.gao else None
    spec = _exec_spec(args, query, gao=gao or (), limit=args.limit)
    if args.explain:
        from repro.core.explain import explain, format_explanation

        print(format_explanation(explain(query, gao=gao, dry_run=True)))
        return 0
    from repro.core.resilience import admit

    if args.engine == "minesweeper":
        result = run_join(
            query,
            spec,
            admission=admit(budget),
            retry_policy=retry_policy,
        )
        rows, stats = result.rows, result.stats()
        used_gao = list(result.gao)
    else:
        if args.limit is not None:
            raise SystemExit(
                "--limit is Minesweeper-only (the baselines are batch "
                "engines with no certificate-bound streaming path)"
            )
        if spec.sharded:
            raise SystemExit(
                "--workers/--shards are Minesweeper-only (the baselines "
                "have no sharded execution path)"
            )
        if args.engine == "leapfrog" and (
            budget is not None or retry_policy is not None
        ):
            raise SystemExit(
                "--max-ops/--deadline-ms/--max-rows/--retries are not "
                "supported by leapfrog (it has no admission checkpoints)"
            )
        used_gao = gao = list(spec.gao)
        # The baselines tally into the counters printed below: their
        # own comparisons and, through the indexes, FindGap calls.
        counters = OpCounters()
        if args.engine == "leapfrog":
            from repro.baselines.leapfrog import leapfrog_triejoin

            rows = leapfrog_triejoin(query.with_gao(gao, counters), counters)
        elif args.engine == "generic":
            from repro.baselines.generic_join import generic_join

            rows = generic_join(
                query.with_gao(gao, counters), counters,
                admission=admit(budget),
            )
        elif args.engine == "yannakakis":
            from repro.baselines.yannakakis import yannakakis_join

            rows = yannakakis_join(
                query, gao, counters, admission=admit(budget)
            )
        else:
            raise SystemExit(f"unknown engine {args.engine!r}")
        stats = counters.snapshot()
    print(f"# GAO: {','.join(used_gao)}")
    for row in rows:
        print(",".join(map(str, row)))
    print(f"# {len(rows)} rows", file=sys.stderr)
    for key, value in stats.items():
        if value:
            print(f"# {key}: {value}", file=sys.stderr)
    return 0


def _cmd_gao_search(args: argparse.Namespace) -> int:
    query = _build_query(args.relation)
    result = search_gao(query, samples=args.samples)
    print(f"best GAO: {','.join(result.best_gao)}  "
          f"(certificate estimate {result.best_estimate})")
    for order, estimate in result.scoreboard[: args.top]:
        print(f"  {','.join(order):30s} {estimate}")
    return 0


def _cmd_certificate(args: argparse.Namespace) -> int:
    from repro.certificates.recorder import record_certificate
    from repro.certificates.verifier import check_certificate

    query = _build_query(args.relation)
    spec = _exec_spec(
        args, query, gao=args.gao.split(",") if args.gao else ()
    )
    prepared = query.with_gao(spec.gao)
    if spec.sharded:
        from repro.parallel.certify import certify_sharded

        try:
            results = certify_sharded(prepared, spec, samples=args.samples)
        except ValueError as exc:
            raise SystemExit(f"cannot check the certificate: {exc}")
        for shard in results:
            verdict = "PASSED" if shard.passed else "REFUTED"
            print(
                f"# shard [{shard.lo}, {shard.hi}]: rows={shard.rows} "
                f"comparisons={shard.comparisons} "
                f"findgap={shard.findgap} {verdict}"
            )
        print(f"# output rows: {sum(s.rows for s in results)}")
        print(
            "# recorded comparisons: "
            f"{sum(s.comparisons for s in results)} "
            f"(over {len(results)} shards)"
        )
        if all(s.passed for s in results):
            print("# certificate check: PASSED (no refuting instance found)")
            return 0
        print("# certificate check: REFUTED")
        return 1
    rows, argument = record_certificate(prepared)
    print(f"# output rows: {len(rows)}")
    print(f"# recorded comparisons: {len(argument)}")
    try:
        counterexample = check_certificate(
            prepared, argument, samples=args.samples
        )
    except ValueError as exc:
        raise SystemExit(f"cannot check the certificate: {exc}")
    if counterexample is None:
        print("# certificate check: PASSED (no refuting instance found)")
        return 0
    print("# certificate check: REFUTED")
    return 1


def _catalog_from_specs(specs, catalog=None):
    """A live ``Catalog`` with one writable relation per ``--relation``.

    Shared by ``stream`` / ``query`` / ``serve``.  Dictionary-encoded
    CSVs are refused: these commands accept raw-integer updates (and,
    for queries, print raw values), which cannot address encoded codes
    — pre-encode the data with one code book instead.  Pass ``catalog``
    to load into an existing (e.g. durable) catalog instead of a fresh
    one; a spec colliding with a recovered relation is an error.
    """
    from repro.dynamic import Catalog

    if catalog is None:
        catalog = Catalog()
    for spec in specs:
        loaded, dictionaries = _load_relation(spec)
        if dictionaries:
            raise SystemExit(
                f"relation {loaded.name!r} has dictionary-encoded "
                f"columns {sorted(dictionaries)}; this command needs "
                "integer-only data (pre-encode the CSV and the "
                "updates with the same code book)"
            )
        # Adopt the loader's FlatTrie as the DeltaRelation's index
        # instead of rebuilding it from its tuples.
        index = loaded.index
        if not isinstance(index, FlatTrieRelation):
            index = loaded.tuples()
        try:
            catalog.create_relation(loaded.name, loaded.attributes, index)
        except ValueError as exc:  # e.g. duplicate --relation name
            raise SystemExit(str(exc))
    return catalog


def _cmd_stream(args: argparse.Namespace) -> int:
    """Replay an update log against live views (the dynamic subsystem)."""
    from repro.dynamic import read_log

    if not args.view:
        raise SystemExit("at least one --view NAME=R1,R2,... is required")
    catalog = _catalog_from_specs(args.relation)
    spec = _exec_spec(args, gao=args.gao.split(",") if args.gao else ())
    for view_arg in args.view:
        try:
            name, rest = view_arg.split("=", 1)
        except ValueError:
            raise SystemExit(
                f"bad --view spec {view_arg!r}; expected NAME=R1,R2,..."
            )
        members = [r.strip() for r in rest.split(",") if r.strip()]
        try:
            view = catalog.register_view(name.strip(), members, spec)
        except (KeyError, ValueError) as exc:
            raise SystemExit(f"cannot register view {name!r}: {exc}")
        terms = " ".join(
            f"{rel}={term['gao']}"
            for rel, term in view.stats()["terms"].items()
        )
        orders = " ".join(
            f"{rel}({','.join(cols)})" for rel, cols in view.secondary_orders()
        )
        print(
            f"view {view.name}: term GAOs {terms}; "
            f"secondary orders {orders or 'none'}"
        )
    try:
        batches = read_log(args.log, require_commit=args.strict)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.log}: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{args.log}: {exc}")
    totals = {
        v: {"inc_findgap": 0, "inc_probes": 0, "inc_s": 0.0,
            "rec_findgap": 0, "rec_probes": 0, "rec_s": 0.0}
        for v in catalog.view_names()
    }
    failed = False
    for i, batch in enumerate(batches, 1):
        try:
            report = catalog.apply_batch(batch)
        except (KeyError, ValueError) as exc:
            # unknown relation, arity mismatch, non-netted +/- pair, ...
            raise SystemExit(f"batch {i}: {exc}")
        applied = ", ".join(
            f"{name} +{ins}/-{dels}"
            for name, (ins, dels) in report.applied.items()
        )
        print(f"batch {i}: {len(batch)} updates ({applied or 'no-op'})")
        for view_name in catalog.view_names():
            entry = report.views[view_name]
            slot = totals[view_name]
            slot["inc_findgap"] += entry["ops"].get("findgap", 0)
            slot["inc_probes"] += entry["ops"].get("probes", 0)
            slot["inc_s"] += entry["seconds"]
            line = (
                f"  {view_name}: {entry['rows']} rows "
                f"(+{entry['rows_added']}/-{entry['rows_removed']})  "
                f"inc findgap={entry['ops'].get('findgap', 0)} "
                f"probes={entry['ops'].get('probes', 0)} "
                f"engine_runs={entry['engine_runs']} "
                f"indexed_deletes={entry['indexed_deletes']}"
            )
            if not args.no_recompute:
                view = catalog.view(view_name)
                rows, ops, rec_seconds = view.recompute()
                slot["rec_findgap"] += ops.get("findgap", 0)
                slot["rec_probes"] += ops.get("probes", 0)
                slot["rec_s"] += rec_seconds
                line += (
                    f"  |  recompute findgap={ops.get('findgap', 0)} "
                    f"probes={ops.get('probes', 0)}"
                )
                if rows != view.rows():
                    print(line)
                    print(
                        f"  {view_name}: MISMATCH vs recompute "
                        f"({len(view.rows())} maintained, {len(rows)} "
                        "recomputed)"
                    )
                    failed = True
                    continue
            print(line)
    print(f"# replayed {len(batches)} batches")
    for view_name, slot in totals.items():
        summary = (
            f"# {view_name}: rows={len(catalog.view(view_name))} "
            f"incremental findgap={slot['inc_findgap']} "
            f"probes={slot['inc_probes']} "
            f"({slot['inc_s'] * 1e3:.1f} ms)"
        )
        if not args.no_recompute:
            summary += (
                f"  recompute findgap={slot['rec_findgap']} "
                f"probes={slot['rec_probes']} "
                f"({slot['rec_s'] * 1e3:.1f} ms)"
            )
            if slot["inc_findgap"]:
                summary += (
                    "  savings="
                    f"{slot['rec_findgap'] / slot['inc_findgap']:.1f}x"
                )
        print(summary)
    if args.print_rows:
        for view_name in catalog.view_names():
            for row in catalog.query(view_name):
                print(f"{view_name}," + ",".join(map(str, row)))
    return 1 if failed else 0


def _planner_config(args: argparse.Namespace):
    """``(PlannerConfig, QueryBudget | None, RetryPolicy | None)`` from
    the query/serve flags.

    The admission budget and the retry policy are session-level knobs
    and returned beside the config.
    """
    from repro.planner import PlannerConfig

    _exec_spec(args)  # range-checks --workers/--shards
    if args.sample_limit < 1:
        raise SystemExit("--sample-limit must be >= 1")
    budget, retry_policy = _resilience_args(args)
    return PlannerConfig(
        sample_limit=args.sample_limit,
        seed=args.seed,
        workers=args.workers or 0,
        shards=args.shards or 0,
    ), budget, retry_policy


def _print_exec_result(result) -> None:
    print(f"# columns: {','.join(result.columns)}")
    for row in result.rows:
        print(",".join(map(str, row)))
    if result.statement.is_aggregate():
        print(f"# value: {result.value}", file=sys.stderr)
    else:
        print(f"# {len(result.rows)} rows", file=sys.stderr)
    origin = "cached plan" if result.cached_plan else "planned"
    print(f"# plan: {result.plan_summary()} ({origin})", file=sys.stderr)
    for key, value in result.ops.items():
        if value:
            print(f"# {key}: {value}", file=sys.stderr)


def _repl(session) -> int:
    """Read script statements from stdin; print results as they land."""
    from repro.serve import ScriptError, ScriptRunner

    runner = ScriptRunner(session)
    interactive = sys.stdin.isatty()

    def prompt() -> None:
        if interactive:
            print("repro> ", end="", file=sys.stderr, flush=True)

    def drain() -> None:
        # Print-and-clear: a long-lived REPL must not retain every
        # past result line in the runner's output buffer.
        for line in runner.out:
            print(line)
        runner.out.clear()

    prompt()
    for lineno, raw in enumerate(sys.stdin, 1):
        stripped = raw.strip()
        if stripped in ("exit", "quit", r"\q"):
            break
        try:
            runner.run_line(raw, lineno)
        except ScriptError as exc:
            print(f"error: {exc}", file=sys.stderr)
        drain()
        prompt()
    runner.finish()
    drain()
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    """Plan and execute a conjunctive query text (the serving layer)."""
    from repro.lang import QueryError
    from repro.serve import Session

    config, budget, retry_policy = _planner_config(args)
    catalog = _catalog_from_specs(args.relation)
    obs = None
    if args.trace:
        from repro.obs import Observability

        obs = Observability(trace=True)
    session = Session(
        catalog, config=config, obs=obs, budget=budget,
        retry_policy=retry_policy,
    )
    if args.repl:
        if args.text or args.explain:
            raise SystemExit(
                "--repl reads statements from stdin; drop the query "
                "text / --explain"
            )
        return _repl(session)
    if not args.text:
        raise SystemExit("a query text is required (or pass --repl)")
    try:
        if args.explain:
            print(session.explain(args.text))
            return 0
        result = session.execute(args.text)
    except QueryError as exc:
        raise SystemExit(str(exc))
    _print_exec_result(result)
    if result.trace is not None:
        from repro.obs import render_tree

        print("# trace:", file=sys.stderr)
        for line in render_tree([result.trace]):
            print(f"#   {line}", file=sys.stderr)
    return 0


def _dump_metrics(session, directory: str) -> None:
    """Write the observability artifacts for a finished serve run:
    ``metrics.json`` (registry snapshot + unified stats tree),
    ``metrics.prom`` (Prometheus text exposition, native instruments
    plus the ``repro_stat`` tree gauge), ``spans.jsonl`` (every
    finished span, parents before children), and
    ``slow_queries.jsonl``."""
    import json

    from repro.obs import stats_to_prometheus, unified_stats

    os.makedirs(directory, exist_ok=True)
    obs = session.obs
    tree = unified_stats(session)
    with open(os.path.join(directory, "metrics.json"), "w") as handle:
        json.dump(
            {"metrics": obs.metrics.snapshot(), "stats": tree},
            handle,
            indent=2,
            sort_keys=True,
        )
        handle.write("\n")
    with open(os.path.join(directory, "metrics.prom"), "w") as handle:
        handle.write(obs.metrics.render_prometheus())
        handle.write(stats_to_prometheus(tree))
    with open(os.path.join(directory, "spans.jsonl"), "w") as handle:
        obs.tracer.export_jsonl(handle)
    with open(
        os.path.join(directory, "slow_queries.jsonl"), "w"
    ) as handle:
        for entry in obs.slow_queries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"# metrics written to {directory}", file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Replay a script of mixed DDL / updates / queries (batch serving),
    or host the multi-tenant HTTP server (``--http``)."""
    from repro.serve import ScriptError, Session, run_script

    if args.http:
        if args.script:
            raise SystemExit("--http and --script are mutually exclusive")
        return _cmd_serve_http(args)
    if not args.script:
        raise SystemExit("serve requires --script (or --http)")
    config, budget, retry_policy = _planner_config(args)
    if args.slow_query_ms is not None and args.slow_query_ms < 0:
        raise SystemExit("--slow-query-ms must be non-negative")
    obs = None
    if args.trace or args.metrics_dir or args.slow_query_ms is not None:
        from repro.obs import Observability

        # --metrics-dir implies tracing: spans.jsonl should hold the
        # run's spans, not be an empty artifact.
        obs = Observability(
            trace=bool(args.trace or args.metrics_dir),
            slow_query_ms=args.slow_query_ms,
        )
    if args.data_dir:
        try:
            session = Session.durable(
                args.data_dir, config=config, fsync=args.fsync, obs=obs,
                budget=budget, retry_policy=retry_policy,
            )
        except ValueError as exc:  # corrupt WAL / tampered snapshot
            raise SystemExit(f"cannot recover {args.data_dir}: {exc}")
        print(f"# {session.recovery.summary()}", file=sys.stderr)
        _catalog_from_specs(args.relation, catalog=session.catalog)
    else:
        if args.snapshot_on_exit:
            raise SystemExit("--snapshot-on-exit requires --data-dir")
        session = Session(
            _catalog_from_specs(args.relation), config=config, obs=obs,
            budget=budget, retry_policy=retry_policy,
        )
    # Even when the script fails, a durable session must close its WAL
    # so batch-policy commits get their close-time fsync.  The one
    # exception is an injected crash: it models a process death, which
    # never gets a graceful close — only its file handle is released.
    from repro.testing.faults import InjectedCrash

    try:
        try:
            lines = run_script(args.script, session)
        except OSError as exc:
            raise SystemExit(f"cannot read {args.script}: {exc}")
        except ScriptError as exc:
            raise SystemExit(str(exc))
        for line in lines:
            print(line)
        stats = session.stats()
        cache = stats["plan_cache"]
        print(
            f"# served {stats['queries_executed']} queries: "
            f"{stats['planner']['plans_built']} planned, "
            f"{cache['hits']} from cache "
            f"({cache['invalidated']} invalidated)",
            file=sys.stderr,
        )
        if args.data_dir and args.snapshot_on_exit:
            info = session.catalog.snapshot(truncate_wal=True)
            print(
                f"# snapshot {info.snapshot_id} @ wal lsn {info.wal_lsn}",
                file=sys.stderr,
            )
        if args.metrics_dir:
            _dump_metrics(session, args.metrics_dir)
    except InjectedCrash:
        if session.catalog.wal is not None:
            session.catalog.wal.abandon()
        raise
    except BaseException:
        session.close()
        raise
    session.close()
    return 0


def _tenant_specs(args: argparse.Namespace) -> list:
    """One spec per ``--tenant``: the CLI-level QoS/pool flags are the
    defaults, a per-tenant override string always wins."""
    from repro.net import TenantSpec

    defaults = {
        knob: getattr(args, knob)
        for knob in (
            "max_ops", "deadline_ms", "max_rows", "pool_size", "queue_depth"
        )
    }
    try:
        return [
            TenantSpec.parse(text, **defaults)
            for text in (args.tenants or ["default"])
        ]
    except ValueError as exc:
        raise SystemExit(f"bad --tenant: {exc}")


def _cmd_serve_http(args: argparse.Namespace) -> int:
    """Host the multi-tenant HTTP server (see :mod:`repro.net`)."""
    import json
    import signal
    import threading

    from repro.net import TenantRegistry, serve_http

    # The budget flags reach each tenant through its TenantSpec defaults.
    config, _, retry_policy = _planner_config(args)
    if args.slow_query_ms is not None and args.slow_query_ms < 0:
        raise SystemExit("--slow-query-ms must be non-negative")
    if args.snapshot_on_exit and not args.data_dir:
        raise SystemExit("--snapshot-on-exit requires --data-dir")
    if args.relation:
        raise SystemExit(
            "--relation is a script-mode flag; load data over HTTP "
            "(/v1/update or /v1/script)"
        )
    specs = _tenant_specs(args)
    try:
        registry = TenantRegistry(
            specs,
            data_dir=args.data_dir,
            config=config,
            retry_policy=retry_policy,
            fsync=args.fsync,
            cache_capacity=args.cache_capacity,
            trace=bool(args.trace),
            slow_query_ms=args.slow_query_ms,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    for tid, tenant in registry.tenants():
        if tenant.recovery is not None:
            print(f"# [{tid}] {tenant.recovery.summary()}",
                  file=sys.stderr)
    server = serve_http(registry, host=args.host, port=args.port)
    # The demo/smoke harness parses this line to find an ephemeral
    # port, so it goes to stdout and is flushed before serve_forever.
    print(f"# listening on http://{args.host}:{server.port}",
          flush=True)
    print(
        f"# tenants: {', '.join(registry.tenant_ids())}",
        file=sys.stderr,
    )

    def _graceful(signum, frame) -> None:
        # shutdown() blocks until serve_forever exits — which runs on
        # this very thread — so it must fire from another one.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        registry.close(snapshot=args.snapshot_on_exit)
        if args.metrics_dir:
            os.makedirs(args.metrics_dir, exist_ok=True)
            prom_path = os.path.join(args.metrics_dir, "metrics.prom")
            with open(prom_path, "w") as handle:
                handle.write(server.gateway.render_metrics())
            with open(
                os.path.join(args.metrics_dir, "metrics.json"), "w"
            ) as handle:
                json.dump(
                    {
                        "metrics": registry.metrics.snapshot(),
                        "stats": registry.stats(),
                    },
                    handle, indent=2, sort_keys=True,
                )
                handle.write("\n")
            print(f"# metrics written to {args.metrics_dir}",
                  file=sys.stderr)
        print("# server stopped", file=sys.stderr)
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    """Scripted round-trips against ``repro serve --http``."""
    import http.client
    import json

    from repro.net import Client, ClientError

    try:
        client = Client(args.url, tenant=args.tenant,
                        timeout_s=args.timeout)
    except ValueError as exc:
        raise SystemExit(str(exc))

    def _need_arg(what: str) -> str:
        if not args.arg:
            raise SystemExit(f"client {args.action} needs {what}")
        return args.arg

    try:
        if args.action == "query":
            budget = {
                k: v for k, v in (
                    ("max_ops", args.max_ops),
                    ("deadline_ms", args.deadline_ms),
                    ("max_rows", args.max_rows),
                ) if v is not None
            }
            result = client.query(
                _need_arg("a query text"), budget=budget or None
            )
            columns = result.get("columns", [])
            print(f"# columns: {','.join(map(str, columns))}")
            for row in result.get("rows", []):
                print(",".join(str(v) for v in row))
            if "value" in result:
                print(f"# value: {result['value']}", file=sys.stderr)
            print(
                f"# {len(result.get('rows', []))} rows, engine "
                f"{result.get('engine')}, "
                f"{'cached plan' if result.get('cached_plan') else 'planned'}, "
                f"{result.get('elapsed_ms')} ms",
                file=sys.stderr,
            )
        elif args.action == "prepare":
            result = client.prepare(_need_arg("a query text"))
            print(json.dumps(result, indent=2, sort_keys=True))
        elif args.action == "update":
            raw = _need_arg("update lines (';'-separated or @FILE)")
            if raw.startswith("@"):
                try:
                    with open(raw[1:]) as handle:
                        lines = [
                            ln.strip() for ln in handle
                            if ln.strip()
                            and not ln.lstrip().startswith("#")
                        ]
                except OSError as exc:
                    raise SystemExit(f"cannot read {raw[1:]}: {exc}")
            else:
                lines = [p.strip() for p in raw.split(";") if p.strip()]
            result = client.update(lines, sync=args.sync)
            print(json.dumps(result, indent=2, sort_keys=True))
        elif args.action == "script":
            path = _need_arg("a script path")
            try:
                with open(path) as handle:
                    text = handle.read()
            except OSError as exc:
                raise SystemExit(f"cannot read {path}: {exc}")
            result = client.script(text)
            for line in result.get("output", []):
                print(line)
        elif args.action == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        elif args.action == "metrics":
            sys.stdout.write(client.metrics())
        elif args.action == "health":
            print(json.dumps(client.healthz(), sort_keys=True))
        else:  # shutdown
            print(json.dumps(client.shutdown(), sort_keys=True))
    except ClientError as exc:
        print(
            f"error: {json.dumps(exc.payload, sort_keys=True)}",
            file=sys.stderr,
        )
        # Policy aborts (429 budget/backpressure, 504 deadline) mirror
        # the in-process ExecutionError exit code.
        return 4 if exc.is_policy_abort else 1
    except (OSError, http.client.HTTPException) as exc:
        # Refused, timed out, reset, unresolvable: the transport
        # failed, not the request.
        raise SystemExit(f"cannot reach {args.url}: {exc}")
    finally:
        client.close()
    return 0


def _require_data_dir(path: str) -> None:
    """Refuse a data directory that does not exist: recovery would
    create it and then report the empty state it made as healthy."""
    if not os.path.isdir(path):
        raise SystemExit(f"no such data directory: {path}")


def _cmd_recover(args: argparse.Namespace) -> int:
    """Rebuild catalog state from a data directory and report it."""
    from repro.dynamic import recover_catalog

    _require_data_dir(args.data_dir)
    try:
        catalog, report = recover_catalog(
            args.data_dir,
            fsync=args.fsync,
            verify=not args.no_verify,
            attach=True,
        )
    except ValueError as exc:  # CorruptWalError / SnapshotError
        raise SystemExit(f"cannot recover {args.data_dir}: {exc}")
    print(f"# {report.summary()}")
    for repair in report.wal_repairs:
        print(f"# wal repair: {repair}")
    for name in sorted(report.relations):
        print(f"# relation {name}: {report.relations[name]} rows")
    for name in sorted(report.views):
        print(f"# view {name}: {report.views[name]} rows")
    print(f"# catalog root: {report.catalog_root}")
    print(f"# recovery took {report.seconds * 1e3:.1f} ms")
    if args.snapshot:
        info = catalog.snapshot(
            data_dir=args.data_dir, truncate_wal=True
        )
        print(
            f"# snapshot {info.snapshot_id} @ wal lsn {info.wal_lsn} "
            "(WAL segments it covers removed)"
        )
    catalog.wal.close()
    return 0


def _cmd_verify_state(args: argparse.Namespace) -> int:
    """Audit a data directory: hashes, Merkle roots, WAL integrity."""
    from repro.dynamic import verify_state

    _require_data_dir(args.data_dir)
    report = verify_state(args.data_dir)
    for line in report.lines():
        print(line)
    if report.ok:
        print("# state verification: PASSED")
        return 0
    print("# state verification: FAILED", file=sys.stderr)
    return 1


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run the static-analysis suite over ``src/repro``."""
    from pathlib import Path

    from repro.analysis import runner

    root = Path(args.root).resolve()
    baseline = Path(args.baseline).resolve() if args.baseline else None
    return runner.main(
        root,
        as_json=args.json,
        update_baseline=args.update_baseline,
        baseline=baseline,
    )


def _add_planner_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the serving commands (query / serve)."""
    _add_parallel_flags(parser)
    _add_resilience_flags(parser)
    parser.add_argument(
        "--sample-limit", type=int, default=256, metavar="K",
        help="per-relation row cap for the planner's candidate-scoring "
        "sample (default 256)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="seed for the planner's random GAO candidates (default 0)",
    )


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Admission-control / retry flags shared by join, query, serve."""
    parser.add_argument(
        "--max-ops", type=int, metavar="N",
        help="abort with a typed BudgetExceeded (exit 4) once the query "
        "has tallied N operations (interval_ops + constraints + "
        "comparisons)",
    )
    parser.add_argument(
        "--deadline-ms", type=int, metavar="MS",
        help="wall-clock deadline per query; pool workers cancel "
        "cooperatively and the driver aborts with QueryTimeout (exit 4)",
    )
    parser.add_argument(
        "--max-rows", type=int, metavar="N",
        help="abort with BudgetExceeded once the engine has produced "
        "more than N tuples of the full body join (counted before any "
        "projection or aggregate, so a projected or COUNT query with "
        "a small answer can still be refused)",
    )
    parser.add_argument(
        "--retries", type=int, metavar="K",
        help="retry a failed pooled shard attempt up to K times with "
        "exponential backoff before the in-process fallback (default 2)",
    )


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        metavar="W",
        help="multiprocessing pool size for sharded execution "
        "(0 = run shards sequentially in-process; implies --shards W)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        metavar="K",
        help="split the first GAO attribute's domain into K contiguous "
        "ranges balanced by stored tuple counts (default: --workers, "
        "else 1); rows and their order are invariant in K",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minesweeper joins (PODS 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="rerun paper experiments")
    p_exp.add_argument("names", nargs="*", help="experiment names (default all)")
    p_exp.set_defaults(func=_cmd_experiments)

    p_join = sub.add_parser("join", help="evaluate a natural join")
    p_join.add_argument("--relation", action="append", default=[],
                        metavar="NAME=A,B:FILE")
    p_join.add_argument("--gao", help="comma-separated attribute order")
    p_join.add_argument(
        "--engine",
        default="minesweeper",
        choices=["minesweeper", "leapfrog", "generic", "yannakakis"],
    )
    p_join.add_argument(
        "--explain",
        action="store_true",
        help="print the structural analysis + measured |C| instead of rows",
    )
    p_join.add_argument(
        "--limit",
        type=int,
        metavar="K",
        help="stop after K output rows (Minesweeper top-k streaming; "
        "op counts then reflect only the consumed part of the certificate)",
    )
    _add_parallel_flags(p_join)
    _add_resilience_flags(p_join)
    p_join.set_defaults(func=_cmd_join)

    p_gao = sub.add_parser("gao-search", help="find a cheap attribute order")
    p_gao.add_argument("--relation", action="append", default=[],
                       metavar="NAME=A,B:FILE")
    p_gao.add_argument("--samples", type=int, default=12)
    p_gao.add_argument("--top", type=int, default=5)
    p_gao.set_defaults(func=_cmd_gao_search)

    p_cert = sub.add_parser(
        "certificate", help="record and check a run's comparisons"
    )
    p_cert.add_argument("--relation", action="append", default=[],
                        metavar="NAME=A,B:FILE")
    p_cert.add_argument("--gao", help="comma-separated attribute order")
    p_cert.add_argument("--samples", type=int, default=20)
    _add_parallel_flags(p_cert)
    p_cert.set_defaults(func=_cmd_certificate)

    p_stream = sub.add_parser(
        "stream",
        help="replay an update log against live views (dynamic subsystem)",
    )
    p_stream.add_argument("--relation", action="append", default=[],
                          metavar="NAME=A,B:FILE",
                          help="initial relation contents (integer CSV)")
    p_stream.add_argument("--view", action="append", default=[],
                          metavar="NAME=R1,R2,...",
                          help="live join view over registered relations")
    p_stream.add_argument("--log", required=True,
                          help="update log (+R 1,2 / -S 2,3 / commit lines)")
    p_stream.add_argument("--gao", help="comma-separated attribute order "
                          "(applied to every view; default: auto)")
    p_stream.add_argument("--strict", action="store_true",
                          help="discard (with a warning) a trailing batch "
                          "with no 'commit' line instead of applying it — "
                          "the producer may have died mid-batch")
    p_stream.add_argument("--no-recompute", action="store_true",
                          help="skip the per-batch full-recompute comparator")
    p_stream.add_argument("--print-rows", action="store_true",
                          help="print final view rows after the replay")
    _add_parallel_flags(p_stream)
    p_stream.set_defaults(func=_cmd_stream)

    p_query = sub.add_parser(
        "query",
        help="plan + execute a conjunctive query text (serving layer)",
    )
    p_query.add_argument("text", nargs="?",
                         help='query text, e.g. "Q(x,z) :- R(x,y), S(y,z)"')
    p_query.add_argument("--relation", action="append", default=[],
                         metavar="NAME=A,B:FILE",
                         help="relation contents (integer CSV)")
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="print the plan scoreboard (candidates + certificate "
        "estimates + winner rationale) instead of executing",
    )
    p_query.add_argument(
        "--repl",
        action="store_true",
        help="read statements (queries, +R/-R updates, commit, CREATE, "
        "EXPLAIN, STATS, TRACE ON/OFF) from stdin",
    )
    p_query.add_argument(
        "--trace",
        action="store_true",
        help="span-trace the execution and print the per-stage tree "
        "(plan, cache outcome, engine, per-shard) with op counts — "
        "the EXPLAIN ANALYZE view",
    )
    _add_planner_flags(p_query)
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="replay a script of mixed DDL/updates/queries (batch "
        "serving), or host the multi-tenant HTTP server (--http)",
    )
    p_serve.add_argument("--script",
                         help="script file (see repro.serve.script); "
                         "required unless --http")
    p_serve.add_argument("--http", action="store_true",
                         help="serve HTTP instead of replaying a script "
                         "(see repro.net: /v1/query|prepare|update|"
                         "script, /healthz, /stats, /metrics)")
    p_serve.add_argument("--host", default="127.0.0.1",
                         help="bind address with --http (default "
                         "127.0.0.1)")
    p_serve.add_argument("--port", type=int, default=0, metavar="P",
                         help="TCP port with --http (default 0 = "
                         "ephemeral; the bound port is printed)")
    p_serve.add_argument("--tenant", action="append", default=[],
                         metavar="ID[,k=v...]", dest="tenants",
                         help="tenant to host (repeatable; default one "
                         "tenant 'default'); per-tenant QoS overrides "
                         "as key=value pairs: max_ops, deadline_ms, "
                         "max_rows, pool_size, queue_depth")
    p_serve.add_argument("--pool-size", type=int, default=4, metavar="N",
                         help="sessions per tenant pool with --http "
                         "(default 4; per-tenant override wins)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         metavar="N",
                         help="ingest queue capacity per tenant with "
                         "--http; a full queue rejects updates with "
                         "HTTP 429 (default 64)")
    p_serve.add_argument("--cache-capacity", type=int, default=512,
                         metavar="N",
                         help="process-wide shared plan-cache entries "
                         "with --http (default 512)")
    p_serve.add_argument("--relation", action="append", default=[],
                         metavar="NAME=A,B:FILE",
                         help="preloaded relation contents (integer CSV)")
    p_serve.add_argument("--data-dir", metavar="DIR",
                         help="durable catalog directory: recover state "
                         "from it first, journal every mutation to its WAL")
    p_serve.add_argument("--fsync", default="batch",
                         choices=["always", "batch", "off"],
                         help="WAL sync policy with --data-dir: fsync every "
                         "commit / flush per commit + fsync on rotate and "
                         "close / flush only (default: batch)")
    p_serve.add_argument("--snapshot-on-exit", action="store_true",
                         help="persist a snapshot and trim covered WAL "
                         "segments after the script finishes")
    p_serve.add_argument("--trace", action="store_true",
                         help="span-trace every statement; each query's "
                         "transcript lines include its stage tree")
    p_serve.add_argument("--metrics-dir", metavar="DIR",
                         help="after the script, dump metrics.json, "
                         "metrics.prom (Prometheus text exposition), "
                         "spans.jsonl, and slow_queries.jsonl into DIR "
                         "(implies tracing)")
    p_serve.add_argument("--slow-query-ms", type=float, metavar="MS",
                         help="record queries slower than MS in the "
                         "slow-query log (STATS counts them; "
                         "--metrics-dir dumps them)")
    _add_planner_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_client = sub.add_parser(
        "client",
        help="HTTP client for `repro serve --http` (scripted "
        "round-trips; policy aborts exit 4 like the in-process CLI)",
    )
    p_client.add_argument(
        "action",
        choices=["query", "prepare", "update", "script", "stats",
                 "metrics", "health", "shutdown"],
        help="what to do against the server",
    )
    p_client.add_argument(
        "arg", nargs="?",
        help="query text (query/prepare), update lines — "
        "';'-separated or @FILE (update), or script path (script)",
    )
    p_client.add_argument("--url", default="http://127.0.0.1:8765",
                          help="server base URL (default "
                          "http://127.0.0.1:8765)")
    p_client.add_argument("--tenant", default="default",
                          help="tenant id (default 'default')")
    p_client.add_argument("--timeout", type=float, default=30.0,
                          metavar="S", help="request timeout seconds")
    p_client.add_argument("--sync", action="store_true",
                          help="apply updates synchronously instead of "
                          "enqueueing (update)")
    p_client.add_argument("--max-ops", type=int, metavar="N",
                          help="per-request budget override (query; "
                          "can only tighten the tenant QoS)")
    p_client.add_argument("--deadline-ms", type=int, metavar="MS",
                          help="per-request deadline override (query)")
    p_client.add_argument("--max-rows", type=int, metavar="N",
                          help="per-request row-cap override (query)")
    p_client.set_defaults(func=_cmd_client)

    p_recover = sub.add_parser(
        "recover",
        help="rebuild catalog state from a data directory (snapshot + WAL)",
    )
    p_recover.add_argument("--data-dir", required=True, metavar="DIR")
    p_recover.add_argument("--fsync", default="batch",
                           choices=["always", "batch", "off"])
    p_recover.add_argument(
        "--snapshot", action="store_true",
        help="persist the recovered state as a fresh snapshot and delete "
        "the WAL segments it covers (bounds future recovery time)",
    )
    p_recover.add_argument(
        "--no-verify", action="store_true",
        help="skip Merkle-root verification of the snapshot being loaded",
    )
    p_recover.set_defaults(func=_cmd_recover)

    p_verify = sub.add_parser(
        "verify-state",
        help="audit a data directory: hashes, Merkle roots, WAL integrity",
    )
    p_verify.add_argument("--data-dir", required=True, metavar="DIR")
    p_verify.set_defaults(func=_cmd_verify_state)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis: layering, counters, crashpoints, WAL "
        "order, determinism, payloads, typing ratchet",
    )
    p_lint.add_argument(
        "--root", default=".", metavar="DIR",
        help="repo root containing src/repro (default: cwd)",
    )
    p_lint.add_argument(
        "--json", action="store_true",
        help="emit the full machine-readable report instead of the table",
    )
    p_lint.add_argument(
        "--update-baseline", action="store_true",
        help="pin the current findings as the new baseline (ratchet)",
    )
    p_lint.add_argument(
        "--baseline", metavar="FILE",
        help="baseline file "
        "(default: <root>/benchmarks/baselines/lint_baseline.json)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from repro.core.resilience import ExecutionError
    from repro.testing.faults import InjectedCrash, install_from_env

    parser = build_parser()
    args = parser.parse_args(argv)
    # The recover-smoke arms a crash point via REPRO_CRASH_POINT; the
    # distinct exit code lets it tell an injected death (expected) from
    # a real failure.
    install_from_env()
    try:
        return args.func(args)
    except InjectedCrash as exc:
        print(f"# {exc}", file=sys.stderr)
        return 3
    except ExecutionError as exc:
        # Typed policy aborts (BudgetExceeded / QueryTimeout /
        # ShardFailure) get their own exit code so harnesses can tell
        # "the budget fired as designed" from a real failure.
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())

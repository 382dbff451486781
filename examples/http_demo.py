#!/usr/bin/env python
"""End-to-end demo/smoke of the multi-tenant HTTP serving subsystem.

Launches ``repro serve --http`` as a real subprocess (ephemeral port,
two durable tenants), then drives it the way `make http-smoke` needs:

1. loads different data into tenants ``alpha`` and ``beta`` over HTTP;
2. records sequential reference rows per tenant;
3. fires concurrent clients across both tenants and asserts every
   response is byte-identical to the sequential reference;
4. enqueues an async ingest batch on ``beta``, waits for the writer to
   drain it, and asserts the post-ingest rows match a sequential
   replay;
5. exhausts a per-request budget and asserts HTTP 429 with the typed
   ``BudgetExceeded`` payload — and that the other tenant is
   unaffected;
6. scrapes ``/metrics`` to ``--out-prom`` (validated afterwards by
   ``benchmarks/check_obs.py --prom``) and asserts that requests
   outnumber connections: every client reuses one connection;
7. shuts the server down cleanly (``--snapshot-on-exit`` snapshots
   every tenant — verified offline with ``repro verify-state``).

Run directly: ``PYTHONPATH=src python examples/http_demo.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), "..", "src")
)

from repro.net import Client, ClientError  # noqa: E402

ALPHA_EDGES = [
    (1, 2), (2, 1), (2, 3), (3, 2), (3, 1), (1, 3),
    (1, 4), (4, 1), (2, 4), (4, 2), (3, 4), (4, 3),
]
BETA_EDGES = [(10, 20), (20, 30), (30, 10), (20, 40), (40, 10)]
BETA_EXTRA = [(30, 40), (40, 30)]

TRIANGLES = "Q(x, y, z) :- E(x, y), E(y, z), E(x, z)"
PAIRS = "Q(x, z) :- E(x, y), E(y, z)"


def start_server(data_dir: str) -> "tuple[subprocess.Popen[str], str]":
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", "--http",
            "--port", "0",
            "--tenant", "alpha",
            "--tenant", "beta,queue_depth=8",
            "--data-dir", data_dir,
            "--snapshot-on-exit",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    marker = "# listening on "
    if not line.startswith(marker):
        proc.kill()
        raise SystemExit(f"unexpected server banner: {line!r}")
    return proc, line[len(marker):]


def load(client: Client, tenant: str, edges: "list[tuple[int, int]]") -> None:
    client.script("CREATE E(A, B)", tenant=tenant)
    client.update(
        [f"+E {a},{b}" for a, b in edges], tenant=tenant, sync=True
    )


def _family_total(exposition: str, family: str) -> float:
    """Sum of one metric family's samples in a text exposition."""
    total = 0.0
    for line in exposition.splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name == family:
            total += float(line.rsplit(" ", 1)[1])
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out-prom", metavar="FILE",
        help="write the scraped /metrics exposition here",
    )
    parser.add_argument(
        "--data-dir", metavar="DIR",
        help="server data directory (default: a fresh temp dir)",
    )
    parser.add_argument(
        "--threads", type=int, default=8,
        help="concurrent client threads (default 8)",
    )
    parser.add_argument(
        "--requests", type=int, default=12,
        help="queries per thread (default 12)",
    )
    args = parser.parse_args()
    data_dir = args.data_dir or tempfile.mkdtemp(prefix="repro-http-")

    proc, url = start_server(data_dir)
    print(f"server up at {url} (data dir {data_dir})")
    client = Client(url)
    if not client.wait_healthy(20.0):
        proc.kill()
        raise SystemExit("server never became healthy")

    try:
        # 1. per-tenant data over HTTP.
        load(client, "alpha", ALPHA_EDGES)
        load(client, "beta", BETA_EDGES)

        # 2. sequential reference rows.
        ref = {
            ("alpha", TRIANGLES): client.rows(TRIANGLES, tenant="alpha"),
            ("alpha", PAIRS): client.rows(PAIRS, tenant="alpha"),
            ("beta", PAIRS): client.rows(PAIRS, tenant="beta"),
        }
        assert ref[("alpha", TRIANGLES)], "alpha should have triangles"

        # 3. concurrent clients, byte-identical to sequential.
        mismatches: "list[str]" = []
        errors: "list[str]" = []

        def worker(index: int) -> None:
            with Client(url) as mine:
                ask(mine, index)

        def ask(mine: Client, index: int) -> None:
            for turn in range(args.requests):
                tenant, query = [
                    ("alpha", TRIANGLES), ("alpha", PAIRS),
                    ("beta", PAIRS),
                ][(index + turn) % 3]
                try:
                    rows = mine.rows(query, tenant=tenant)
                except ClientError as exc:
                    errors.append(f"{tenant}: {exc}")
                    return
                if rows != ref[(tenant, query)]:
                    mismatches.append(
                        f"{tenant} {query!r}: got {len(rows)} rows, "
                        f"want {len(ref[(tenant, query)])}"
                    )

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(args.threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"concurrent errors: {errors[:3]}"
        assert not mismatches, f"row mismatches: {mismatches[:3]}"
        total = args.threads * args.requests
        print(f"concurrent parity: {total} responses byte-identical")

        # 4. async ingest on beta, then parity with sequential replay.
        response = client.update(
            [f"+E {a},{b}" for a, b in BETA_EXTRA], tenant="beta"
        )
        assert "ticket" in response, response
        deadline = time.time() + 20.0
        while True:
            stats = client.stats()
            ingest = stats["tenants"]["beta"]["ingest"]
            if ingest["applied"] + ingest["failed"] >= ingest["submitted"]:
                break
            if time.time() > deadline:
                raise SystemExit(f"ingest never drained: {ingest}")
            time.sleep(0.05)
        assert ingest["failed"] == 0, ingest
        after = client.rows(PAIRS, tenant="beta")
        assert after != ref[("beta", PAIRS)], "ingest changed nothing?"
        expected = sorted(
            {
                (a, c)
                for a, b in BETA_EDGES + BETA_EXTRA
                for b2, c in BETA_EDGES + BETA_EXTRA
                if b == b2
            }
        )
        assert after == expected, (after, expected)
        print(f"async ingest applied; beta rows now {len(after)}")

        # 5. typed budget rejection, isolation intact.
        try:
            client.query(PAIRS, tenant="alpha", budget={"max_rows": 0})
        except ClientError as exc:
            assert exc.status == 429, exc.status
            assert exc.payload.get("error") == "BudgetExceeded", exc.payload
            assert exc.payload.get("resource") == "rows", exc.payload
        else:
            raise SystemExit("max_rows=0 query was not rejected")
        assert client.rows(PAIRS, tenant="alpha") == ref[("alpha", PAIRS)]
        assert client.rows(PAIRS, tenant="beta") == expected
        print("budget exhaustion: HTTP 429 BudgetExceeded, tenants isolated")

        # 6. scrape /metrics; persistent connections carry many
        # requests each.
        exposition = client.metrics()
        assert "repro_stat" in exposition
        requests = _family_total(exposition, "repro_http_requests_total")
        connections = _family_total(
            exposition, "repro_http_connections_total"
        )
        assert 0 < connections < requests, (connections, requests)
        print(f"connection reuse: {requests:.0f} requests over "
              f"{connections:.0f} connections")
        if args.out_prom:
            os.makedirs(
                os.path.dirname(os.path.abspath(args.out_prom)),
                exist_ok=True,
            )
            with open(args.out_prom, "w") as handle:
                handle.write(exposition)
            print(f"metrics scraped to {args.out_prom}")

        # 7. clean shutdown (snapshots state via --snapshot-on-exit).
        client.shutdown()
        code = proc.wait(timeout=30)
        assert code == 0, f"server exited {code}"
        print("clean shutdown: exit 0, per-tenant snapshots on disk")
    finally:
        client.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    print("http demo: PASSED")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

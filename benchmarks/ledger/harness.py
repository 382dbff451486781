"""Load generation and process control shared by the serving workloads.

One generator process, at most two sender threads, two connections in
flight.  The server under test is the real CLI entry point run as a
subprocess; the harness talks to it only through ``repro.net.Client``,
so transport, urllib's connection-per-request and client-side JSON
decoding are inside every measurement, as they are for a user.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.net import Client, ClientError

import spec

#: HTTP statuses that are refusals (admission, backpressure, deadline).
REFUSALS = (429, 503, 504)


# ----------------------------------------------------------------------
# Timing summaries
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def summarize(values_ms: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, p95 and the sample count of one op type.

    ``p95_supported`` is the percentile rule: p95 is a claim only with
    at least ten samples beyond it (n >= 200).
    """
    n = len(values_ms)
    if n == 0:
        return {"n": 0}
    return {
        "n": n,
        "p50_ms": statistics.median(values_ms),
        "q1_ms": percentile(values_ms, 25),
        "q3_ms": percentile(values_ms, 75),
        "p95_ms": percentile(values_ms, 95),
        "p95_supported": n >= spec.P95_MIN_SAMPLES,
    }


# ----------------------------------------------------------------------
# Scratch space (inside the checkout, removed on exit)
# ----------------------------------------------------------------------


class Workspace:
    """A scratch directory under the artifact root, removed on close.

    Temp data dirs live inside the checkout (never ``/tmp``) so the
    benchmark reads and writes nothing outside it.
    """

    def __init__(self, parent: str) -> None:
        os.makedirs(parent, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix=".work-", dir=parent)

    def subdir(self, name: str) -> str:
        """A fresh, empty directory (never one handed out before)."""
        return tempfile.mkdtemp(prefix=f"{name}-", dir=self.path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def __enter__(self) -> "Workspace":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def dir_bytes(path: str) -> int:
    """Bytes on disk under ``path`` (``os.stat`` of every file)."""
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            total += os.stat(os.path.join(root, name)).st_size
    return total


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = spec.SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return env


class ServerProc:
    """``python -m repro serve --http`` over one durable tenant."""

    def __init__(self, data_dir: str) -> None:
        self.data_dir = data_dir
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.peak_rss_mb = 0.0

    def start(self, timeout_s: float = 60.0) -> Client:
        """Spawn, parse the port from the banner, wait for /healthz."""
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--http",
                "--port", "0", "--tenant", spec.TENANT,
                "--data-dir", self.data_dir, "--fsync", spec.FSYNC,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(),
            text=True,
        )
        banner = self.proc.stdout.readline()
        if "listening on" not in banner:
            self.kill()
            raise RuntimeError(f"server did not start (banner {banner!r})")
        self.url = banner.split("listening on", 1)[1].strip()
        client = Client(self.url, tenant=spec.TENANT)
        if not client.wait_healthy(timeout_s):
            self.kill()
            raise RuntimeError("server never became healthy")
        return client

    def _record_rss(self) -> None:
        """The child's high-water RSS, read while it is still alive."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        self.peak_rss_mb = max(
                            self.peak_rss_mb, int(line.split()[1]) / 1024.0
                        )
        except (OSError, ValueError, IndexError):
            pass

    def kill(self) -> None:
        """SIGKILL (no shutdown hooks run) and reap."""
        self._end(signal.SIGKILL)

    def stop(self) -> None:
        """SIGTERM (graceful: drain, close the WAL) and reap."""
        self._end(signal.SIGTERM)

    def _end(self, signum: int) -> None:
        proc = self.proc
        if proc is None:
            return
        self._record_rss()
        if proc.poll() is None:
            proc.send_signal(signum)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self.proc = None




# ----------------------------------------------------------------------
# Ops and their outcomes
# ----------------------------------------------------------------------


class Op:
    """One request: what to send and how to judge the response."""

    __slots__ = ("index", "kind", "send", "check", "mutation")

    def __init__(
        self,
        index: int,
        kind: str,
        send: Callable[[Client], object],
        check: Callable[[object, int, int], bool],
        mutation: Optional[int] = None,
    ) -> None:
        self.index = index
        #: Op class the timing is filed under (``path2``, ``write`` ...).
        self.kind = kind
        self.send = send
        #: ``check(response, mutations_acked_at_start, mutations_issued_at_end)``
        self.check = check
        #: Ordinal among the stream's mutations (``None`` for a read).
        self.mutation = mutation


class Sample(NamedTuple):
    """One successful op: where it sat in the phase and how long it took."""

    slot: int
    kind: str
    latency_ms: float
    finished: float
    replanned: bool


class Outcomes:
    """Thread-safe tally of one phase: samples, lags and failures."""

    #: errors; refusals (429/503/504); wrong answers; acknowledged
    #: writes that did not survive a restart.
    CATEGORIES = ("errors", "refused", "wrong", "lost")

    def __init__(self, attempted: int = 0) -> None:
        self._lock = threading.Lock()
        self.attempted = attempted
        self.samples: List[Sample] = []
        self.lag_ms: List[float] = []
        self.errors = self.refused = self.wrong = self.lost = 0
        self.first_failures: List[str] = []

    def record(self, sample: Sample, lag_ms: Optional[float]) -> None:
        with self._lock:
            self.samples.append(sample)
            if lag_ms is not None:
                self.lag_ms.append(lag_ms)

    def fail(self, category: str, detail: str) -> None:
        with self._lock:
            setattr(self, category, getattr(self, category) + 1)
            if len(self.first_failures) < 5:
                self.first_failures.append(f"{category}: {detail}")

    @staticmethod
    def combined(*parts: "Outcomes") -> Dict[str, object]:
        """Attempt and failure totals of several tallies, as a result's
        ``attempted`` / ``failures`` / ``first_failures`` entries."""
        return {
            "attempted": sum(p.attempted for p in parts),
            "failures": {
                c: sum(getattr(p, c) for p in parts) for c in Outcomes.CATEGORIES
            },
            "first_failures": [f for p in parts for f in p.first_failures][:10],
        }

    def latencies(self, kinds: Optional[Sequence[str]] = None) -> List[float]:
        return [
            s.latency_ms for s in self.samples
            if kinds is None or s.kind in kinds
        ]

    def by_kind(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for s in sorted(self.samples):
            out.setdefault(s.kind, []).append(s.latency_ms)
        return dict(sorted(out.items()))


# ----------------------------------------------------------------------
# Slice estimators
# ----------------------------------------------------------------------
#
# The reference box stalls: for a few hundred milliseconds at a time,
# several times a minute, everything runs 2-7x slower (a neighbour, not
# the program).  A percentile over the whole phase then measures how
# many stalls the run happened to catch.  So a phase is cut into up to
# ``MAX_SLICES`` equal slices of whole mix blocks, the statistic is
# taken per slice, and the *median over slices* is reported: a stall
# spoils the slices it touches and the median discards them, while
# anything the program does in most slices (flushes, re-plans, GC)
# stays in.

MAX_SLICES = 10


def slices(count: int, block: int) -> List[range]:
    """Cut ``count`` slots into at most ``MAX_SLICES`` runs of whole
    ``block``s (the last takes the remainder)."""
    blocks = max(1, count // block)
    n = min(MAX_SLICES, blocks)
    per = (blocks // n) * block
    bounds = [i * per for i in range(n)] + [count]
    return [range(bounds[i], bounds[i + 1]) for i in range(n)]


def slice_p50(inside: List[Sample]) -> float:
    return statistics.median(s.latency_ms for s in inside)


def slice_p95(inside: List[Sample]) -> float:
    return percentile([s.latency_ms for s in inside], 95)


def slice_throughput(inside: List[Sample]) -> float:
    """Completions per second between a slice's first and last finish
    (the first completion opens the interval, so it is not counted)."""
    times = sorted(s.finished for s in inside)
    if len(times) < 2 or times[-1] <= times[0]:
        return float("nan")
    return (len(times) - 1) / (times[-1] - times[0])


class WriteClock:
    """Sends mutations one at a time, in stream order, and counts them.

    An update stream is ordered (a later batch may delete what an
    earlier one inserted), so two writers racing would be a client
    bug; and the counts let a read be judged against every catalog
    version it may have overlapped.
    """

    def __init__(self) -> None:
        self.turn = threading.Condition()
        self.issued = 0
        self.acked = 0


def execute(slot: int, op: Op, client: Client, clock: WriteClock, out: Outcomes,
             due: Optional[float], picked: float) -> None:
    """Send one op, time it from ``due`` (or from the send), judge it.

    A failed op is counted and contributes no latency sample: it
    misses every percentile by construction.
    """
    ordinal = op.mutation
    ready = time.perf_counter()
    if ordinal is not None:
        with clock.turn:
            clock.turn.wait_for(lambda: clock.acked == ordinal)
            clock.issued += 1
    acked_before = clock.acked
    started = time.perf_counter()
    try:
        try:
            response = op.send(client)
        finally:
            finished = time.perf_counter()
            if ordinal is not None:
                with clock.turn:
                    clock.acked += 1
                    clock.turn.notify_all()
    except ClientError as exc:
        category = "refused" if exc.status in REFUSALS else "errors"
        out.fail(category, f"op {op.index} {op.kind}: {exc}")
        return
    except OSError as exc:
        out.fail("errors", f"op {op.index} {op.kind}: {exc!r}")
        return
    if not op.check(response, acked_before, clock.issued):
        out.fail("wrong", f"op {op.index} {op.kind}: answer mismatch")
        return
    origin = due if due is not None else started
    # Generator lag: how late the op was ready to leave *once a sender
    # was free* — waiting for a busy sender, or for an earlier mutation
    # to be acknowledged, is queueing, which the latency (timed from
    # ``due``) already carries.
    lag_ms = None if due is None else (ready - max(due, picked)) * 1e3
    replanned = isinstance(response, dict) and response.get("cached_plan") is False
    out.record(
        Sample(slot, op.kind, (finished - origin) * 1e3, finished, replanned),
        lag_ms,
    )


class Phase(NamedTuple):
    """One measured phase: its samples, its slices, and how fast the
    box was running during each slice (kernel seconds, see below)."""

    outcomes: Outcomes
    cuts: List[range]
    kernel_s: List[float]


def run_phase(url: str, ops: Sequence[Op], clock: WriteClock, block: int,
              rate_ops_s: Optional[float] = None, threads: int = 2) -> Phase:
    """Drive ``ops`` slice by slice with ``threads`` senders.

    ``rate_ops_s`` set: an **open loop** — evenly spaced arrivals, each
    op timed from the instant it was due, whether or not a sender was
    free then.  Unset: a **closed loop** — each sender issues its next
    op the moment the previous one completes.  The calibration kernel
    runs between slices (the load pauses for it), so every slice knows
    the machine speed on both of its sides.
    """
    cuts = slices(len(ops), block)
    out = Outcomes(len(ops))
    marks = [kernel_seconds()]
    for cut in cuts:
        _drive_slice(ops, cut, url, clock, threads, rate_ops_s, out)
        marks.append(kernel_seconds())
    kernel = [(marks[i] + marks[i + 1]) / 2 for i in range(len(cuts))]
    return Phase(out, cuts, kernel)


def _drive_slice(ops: Sequence[Op], cut: range, url: str, clock: WriteClock,
                 threads: int, rate_ops_s: Optional[float], out: Outcomes) -> None:
    cursor = iter(cut)
    cursor_lock = threading.Lock()
    t0 = time.perf_counter() + 0.02

    def worker() -> None:
        client = Client(url, tenant=spec.TENANT)
        while True:
            with cursor_lock:
                slot = next(cursor, None)
            if slot is None:
                return
            due = None if rate_ops_s is None else t0 + (slot - cut.start) / rate_ops_s
            picked = time.perf_counter()
            if due is not None and due > picked:
                time.sleep(due - picked)
            execute(slot, ops[slot], client, clock, out, due, picked)

    pool = [threading.Thread(target=worker) for _ in range(threads)]
    for t in pool:
        t.start()
    for t in pool:
        t.join()


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
#
# Besides stalling, the reference box drifts: for minutes at a time
# everything runs 10-15 % slower or faster (the host's other guests).
# Ten runs spread over such an epoch change differ by more than any
# bound worth having, and no statistic *within* a run can see it.  So
# each slice is bracketed by a fixed pure-Python kernel timed on this
# process, and every time is reported **at reference speed**: scaled
# by ``KERNEL_REF_S / kernel seconds``.  The kernel is harness code;
# the program under test cannot make it faster.  (A second kernel in a
# buddy process, to mimic the two busy processes of the serving
# workloads, was tried and dropped: where the scheduler puts the pair
# makes it bimodal.)

KERNEL_ITERATIONS = 120_000


def _kernel() -> float:
    t0 = time.perf_counter()
    x = 0
    for i in range(KERNEL_ITERATIONS):
        x += i * i
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """How fast is this box running right now?  (Median of five
    back-to-back kernel timings.)"""
    return statistics.median(_kernel() for _ in range(5))


def reference_scale(kernel_s: float) -> float:
    """Factor taking a time measured now to reference speed."""
    return spec.KERNEL_REF_S / kernel_s


class Estimate(NamedTuple):
    """One statistic of one phase."""

    #: Per slice, as measured (NaN where the slice was too thin).
    slices: List[float]
    #: Median over slices, as measured.
    measured: float
    #: Median over slices of the values scaled to reference speed.
    reference: float


def estimate(phase: Phase, stat: Callable[[List[Sample]], float],
             rate: bool = False) -> Estimate:
    """``stat`` per slice, and its slice medians as measured and at
    reference speed (a rate scales the other way: a slow box completes
    fewer ops per second)."""
    raw, scaled = [], []
    for cut, kernel_s in zip(phase.cuts, phase.kernel_s):
        inside = [s for s in phase.outcomes.samples if s.slot in cut]
        value = stat(inside) if inside else float("nan")
        raw.append(value)
        if value == value:
            scale = reference_scale(kernel_s)
            scaled.append(value / scale if rate else value * scale)
    if not scaled:
        raise ValueError("no samples in any slice")
    return Estimate(
        raw, statistics.median(v for v in raw if v == v), statistics.median(scaled))


def self_rss_mb() -> float:
    """This process's high-water RSS (``ru_maxrss`` is KiB on Linux)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

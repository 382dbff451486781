"""Write-ahead log: the update-log text format, made crash-safe.

Record bodies reuse the exact line syntax of :mod:`repro.dynamic.log`
(``+R 1,2`` / ``-S 3,4``), extended with one-line control records for
the other durable catalog operations::

    !create {"name": "R", "attributes": ["A", "B"], ...}
    !view {"name": "V", "relations": ["R", "S"], ...}
    !flush R        (or ``!flush *`` for all relations)
    !compact R

What makes it a WAL rather than a plain log is the **framed commit
record** terminating every entry::

    +R 1,2
    +S 2,3
    commit <lsn> <n_body_lines> <crc32-of-body>

Replay applies a record only when its commit line is present, its line
count matches, and the CRC over the body text verifies.  A truncated or
corrupt *tail* — a crash mid-append — is therefore detected and
discarded (torn-tail tolerance), while corruption *before* valid
records raises :class:`CorruptWalError`: silence about mid-log damage
is never an option.  LSNs are assigned at append time and must be
strictly sequential across segment files, so a missing segment is also
detected rather than silently skipped.

Segments (``wal-00000001.log`` ...) rotate after ``segment_limit``
records; :meth:`WriteAheadLog.truncate_through` drops whole segments
made redundant by a snapshot.  Durability is governed by the fsync
policy:

* ``always`` — flush + fsync after every commit (safe against power
  loss, slowest);
* ``batch`` — flush after every commit, fsync only on rotation /
  explicit :meth:`WriteAheadLog.sync` / close (safe against process
  crash, a power loss may lose the OS-buffered suffix);
* ``off`` — flush only (benchmark baseline; no fsync ever).

All file I/O goes through a :class:`repro.testing.faults.FileSystem`
so the fault suite can inject torn writes, and every state transition
declares a :func:`repro.testing.faults.crashpoint`.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.dynamic.catalog import Update
from repro.dynamic.log import COMMIT, format_update, parse_update
from repro.testing.faults import REAL_FS, FileSystem, crashpoint

FSYNC_POLICIES = ("always", "batch", "off")

#: Record kinds: an update batch, or one of the control operations.
KIND_BATCH = "batch"
KIND_CREATE = "create"
KIND_VIEW = "view"
KIND_FLUSH = "flush"
KIND_COMPACT = "compact"

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_HEADER_PREFIX = "# repro-wal v1 "


class CorruptWalError(ValueError):
    """Mid-log damage: corruption anywhere except a discardable tail."""


class WalRecord(NamedTuple):
    """One committed WAL entry."""

    lsn: int
    kind: str
    #: The batch's updates (empty for control records).
    updates: Tuple[Update, ...]
    #: Control payload (``{}`` for batches): the ``!create`` / ``!view``
    #: JSON object, or ``{"name": ...}`` for flush / compact.
    payload: dict


def _segment_name(index: int) -> str:
    return f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(filename: str) -> Optional[int]:
    if not (
        filename.startswith(_SEGMENT_PREFIX)
        and filename.endswith(_SEGMENT_SUFFIX)
    ):
        return None
    middle = filename[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    return int(middle) if middle.isdigit() else None


def _parse_header(line: str, path: str) -> Tuple[int, int]:
    """``(segment_index, start_lsn)`` from a segment header line."""
    fields = dict(
        part.split("=", 1)
        for part in line[len(_HEADER_PREFIX):].split()
        if "=" in part
    )
    try:
        return int(fields["segment"]), int(fields["start_lsn"])
    except (KeyError, ValueError):
        raise CorruptWalError(
            f"{path}: malformed segment header {line!r}"
        ) from None


def _body_crc(body_lines: Sequence[str]) -> int:
    return zlib.crc32(("\n".join(body_lines) + "\n").encode("utf-8"))


def _parse_record(
    lsn: int, body_lines: List[str], path: str, first_line_no: int
) -> WalRecord:
    """Interpret a frame-validated body as a batch or control record."""
    first = body_lines[0]
    if first.startswith("!"):
        if len(body_lines) != 1:
            raise CorruptWalError(
                f"{path}: line {first_line_no}: control record "
                f"{first.split()[0]!r} must be a single line"
            )
        parts = first[1:].split(None, 1)
        kind = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if kind in (KIND_FLUSH, KIND_COMPACT):
            if rest in ("", "*"):
                payload = {"name": None}
            else:
                payload = {"name": rest}
            return WalRecord(lsn, kind, (), payload)
        if kind in (KIND_CREATE, KIND_VIEW):
            try:
                payload = json.loads(rest)
            except json.JSONDecodeError as exc:
                raise CorruptWalError(
                    f"{path}: line {first_line_no}: bad {kind} payload: "
                    f"{exc}"
                ) from None
            return WalRecord(lsn, kind, (), payload)
        raise CorruptWalError(
            f"{path}: line {first_line_no}: unknown control record "
            f"!{kind}"
        )
    updates = []
    for offset, line in enumerate(body_lines):
        try:
            updates.append(parse_update(line))
        except ValueError as exc:
            raise CorruptWalError(
                f"{path}: line {first_line_no + offset}: {exc}"
            ) from None
    return WalRecord(lsn, KIND_BATCH, tuple(updates), {})


class _SegmentScan(NamedTuple):
    header: Optional[Tuple[int, int]]  # (segment_index, start_lsn)
    records: List[WalRecord]
    #: Byte offset just past the last valid commit record — or past the
    #: header line when no record committed yet (truncation target when
    #: the tail is torn; repairing must never cut a valid header).
    valid_end: int
    #: Human-readable description of a discarded torn tail, if any.
    torn: Optional[str]


def _scan_segment(path: str, fs: FileSystem) -> _SegmentScan:
    """Parse one segment, stopping cleanly at a torn tail.

    Corruption that is *followed by* more data in the same file is not
    a tail and raises :class:`CorruptWalError`; the caller additionally
    rejects a torn tail in any segment but the last.
    """
    with fs.open(path, "rb") as handle:
        data = handle.read()
    header: Optional[Tuple[int, int]] = None
    records: List[WalRecord] = []
    valid_end = 0
    offset = 0
    body: List[str] = []
    body_start_line = 0
    line_no = 0

    def torn(reason: str) -> _SegmentScan:
        return _SegmentScan(header, records, valid_end, reason)

    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            # Trailing bytes without a newline: a write died mid-line.
            return torn(
                f"partial final line at byte {offset}"
            )
        raw = data[offset:newline]
        offset = newline + 1
        line_no += 1
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            if not _more_content(data, offset):
                return torn(f"undecodable bytes on line {line_no}")
            raise CorruptWalError(
                f"{path}: line {line_no}: undecodable bytes mid-log"
            )
        line = text.strip()
        if not line or (line.startswith("#") and not body):
            if line.startswith(_HEADER_PREFIX) and header is None:
                header = _parse_header(line, path)
                valid_end = offset
            continue
        if line.split(None, 1)[0] == COMMIT:
            parts = line.split()
            tail_ok = not _more_content(data, offset)
            if len(parts) != 4:
                if tail_ok:
                    return torn(f"malformed commit line {line_no}")
                raise CorruptWalError(
                    f"{path}: line {line_no}: malformed commit record "
                    f"{line!r}"
                )
            try:
                lsn, n_lines, crc = (
                    int(parts[1]), int(parts[2]), int(parts[3], 16)
                )
            except ValueError:
                if tail_ok:
                    return torn(f"malformed commit line {line_no}")
                raise CorruptWalError(
                    f"{path}: line {line_no}: malformed commit record "
                    f"{line!r}"
                ) from None
            if not body or len(body) != n_lines or _body_crc(body) != crc:
                if (
                    len(body) > n_lines
                    and _body_crc(body[-n_lines:]) == crc
                ):
                    # A *suffix* of the body frames validly: the extra
                    # leading lines are garbage injected before a real
                    # record.  A crash tears only suffixes, so this is
                    # corruption even at EOF — discarding it would
                    # silently drop the committed record it shadows.
                    raise CorruptWalError(
                        f"{path}: line {line_no}: "
                        f"{len(body) - n_lines} garbage line(s) "
                        "precede an otherwise-valid record"
                    )
                if tail_ok:
                    return torn(
                        f"commit at line {line_no} fails framing "
                        f"({len(body)} body lines, crc mismatch or "
                        "empty body)"
                    )
                raise CorruptWalError(
                    f"{path}: line {line_no}: commit record fails "
                    f"framing check (expected {n_lines} body lines / "
                    f"crc {crc:08x})"
                )
            records.append(
                _parse_record(lsn, body, path, body_start_line)
            )
            body = []
            valid_end = offset
            continue
        if not body:
            body_start_line = line_no
        body.append(line)
    if body:
        return torn(
            f"{len(body)} body line(s) with no commit record at EOF"
        )
    return _SegmentScan(header, records, valid_end, None)


def _more_content(data: bytes, offset: int) -> bool:
    """True if any non-whitespace byte exists at or after ``offset``."""
    return bool(data[offset:].strip())


class WriteAheadLog:
    """Append-only, segment-rotated, checksum-framed update log.

    Opening an existing directory scans every segment, validates LSN
    continuity, repairs (truncates) a torn tail in the final segment,
    and positions appends after the last committed record.  The scan's
    findings are kept on the instance: :attr:`records` (everything
    committed so far) and :attr:`repairs` (torn tails discarded).
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "batch",
        segment_limit: Optional[int] = None,
        fs: Optional[FileSystem] = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; pick from "
                f"{FSYNC_POLICIES}"
            )
        if segment_limit is not None and segment_limit < 1:
            raise ValueError("segment_limit must be >= 1")
        self.directory = directory
        self.fsync_policy = fsync
        self.segment_limit = segment_limit
        self.fs = fs if fs is not None else REAL_FS
        self.repairs: List[str] = []
        self._records: List[WalRecord] = []
        self._handle = None
        self._segment_index = 0
        self._segment_records = 0
        self._last_lsn = 0
        self._appended = 0
        self._synced = 0
        # Observability sink: bind_obs swaps in real histograms; until
        # then appends and fsyncs pay a single ``is None`` check.
        self._append_hist: Optional[Any] = None
        self._fsync_hist: Optional[Any] = None
        self.fs.makedirs(directory)
        self._open_for_append()

    def bind_obs(self, obs: Any) -> None:
        """Route append/fsync wall times into an observability sink.

        ``obs`` is a :class:`repro.obs.Observability` (or the null
        implementation).  Disabled sinks leave the log exactly as
        constructed — the hot paths keep their no-instrument shape.
        """
        if not getattr(obs, "enabled", False):
            self._append_hist = None
            self._fsync_hist = None
            return
        self._append_hist = obs.metrics.histogram(
            "wal_append_seconds",
            "WAL record append wall time (body + commit frame + "
            "policy fsync).",
        )
        self._fsync_hist = obs.metrics.histogram(
            "wal_fsync_seconds",
            "Individual WAL fsync wall time.",
        )

    # ------------------------------------------------------------------
    # Opening / scanning
    # ------------------------------------------------------------------

    def _segment_paths(self) -> List[Tuple[int, str]]:
        entries = []
        for name in os.listdir(self.directory):
            index = _segment_index(name)
            if index is not None:
                entries.append(
                    (index, os.path.join(self.directory, name))
                )
        return sorted(entries)

    def _open_for_append(self) -> None:
        segments = self._segment_paths()
        expected_lsn: Optional[int] = None
        last_scan: Optional[_SegmentScan] = None
        for position, (index, path) in enumerate(segments):
            scan = _scan_segment(path, self.fs)
            last_scan = scan
            last = position == len(segments) - 1
            if scan.torn is not None:
                if not last:
                    raise CorruptWalError(
                        f"{path}: torn tail in a non-final segment "
                        f"({scan.torn}); later segments exist, so this "
                        "is mid-log corruption"
                    )
                self.fs.truncate(path, scan.valid_end)
                self.repairs.append(
                    f"{os.path.basename(path)}: discarded torn tail "
                    f"({scan.torn})"
                )
            if scan.header is not None:
                header_index, start_lsn = scan.header
                if header_index != index:
                    raise CorruptWalError(
                        f"{path}: header claims segment {header_index}"
                    )
                if expected_lsn is not None and start_lsn != expected_lsn:
                    raise CorruptWalError(
                        f"{path}: header start_lsn {start_lsn} != "
                        f"expected {expected_lsn} (missing segment?)"
                    )
                if expected_lsn is None:
                    expected_lsn = start_lsn
                # Seed LSN allocation from the header even when the
                # segment holds no records yet (e.g. a fresh segment
                # right after rotation + snapshot truncation): the next
                # append must continue the sequence the header claims,
                # not restart from 0.
                self._last_lsn = max(self._last_lsn, start_lsn - 1)
            for record in scan.records:
                if expected_lsn is not None and record.lsn != expected_lsn:
                    raise CorruptWalError(
                        f"{path}: record lsn {record.lsn} != expected "
                        f"{expected_lsn} (missing or reordered records)"
                    )
                expected_lsn = record.lsn + 1
                self._records.append(record)
                self._last_lsn = record.lsn
        if segments:
            self._segment_index = segments[-1][0]
            self._segment_records = len(last_scan.records)
            self._handle = self.fs.open(
                segments[-1][1], "a", encoding="utf-8", newline="\n"
            )
        else:
            self._start_segment(1)

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, _segment_name(index))

    def _start_segment(self, index: int) -> None:
        self._segment_index = index
        self._segment_records = 0
        path = self._segment_path(index)
        self._handle = self.fs.open(
            path, "a", encoding="utf-8", newline="\n"
        )
        self._handle.write(
            f"{_HEADER_PREFIX}segment={index} "
            f"start_lsn={self._last_lsn + 1}\n"
        )
        self._handle.flush()
        if self.fsync_policy != "off":
            # The new segment's directory entry must survive a power
            # loss, or recovery sees a hole in the segment chain.
            self._fsync(self._handle)
            self.fs.fsync_dir(self.directory)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return self._last_lsn

    @property
    def records(self) -> List[WalRecord]:
        """Every committed record currently on disk (scan + appends)."""
        return list(self._records)

    def append_batch(self, updates: Sequence[Update]) -> int:
        """Durably commit one update batch; returns its LSN."""
        updates = tuple(updates)
        if not updates:
            raise ValueError("refusing to log an empty batch")
        lines = [format_update(u) for u in updates]
        lsn = self._append(lines)
        self._records.append(WalRecord(lsn, KIND_BATCH, updates, {}))
        return lsn

    def append_control(self, kind: str, payload: Dict[str, object]) -> int:
        """Durably commit a control record (create/view/flush/compact)."""
        if kind in (KIND_FLUSH, KIND_COMPACT):
            name = payload.get("name")
            line = f"!{kind} {name if name is not None else '*'}"
        elif kind in (KIND_CREATE, KIND_VIEW):
            line = f"!{kind} " + json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
        else:
            raise ValueError(f"unknown control record kind {kind!r}")
        lsn = self._append([line])
        self._records.append(WalRecord(lsn, kind, (), dict(payload)))
        return lsn

    def _fsync(self, handle: Any) -> None:
        """One timed fsync; every fsync in the log funnels through here."""
        if self._fsync_hist is None:
            self.fs.fsync(handle)
        else:
            t0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
            self.fs.fsync(handle)
            self._fsync_hist.observe(time.perf_counter() - t0)  # lint: disable=determinism -- reporting-only timing; never feeds results
        self._synced += 1

    def _append(self, lines: List[str]) -> int:
        if self._append_hist is None:
            return self._append_now(lines)
        t0 = time.perf_counter()  # lint: disable=determinism -- reporting-only timing; never feeds results
        lsn = self._append_now(lines)
        self._append_hist.observe(time.perf_counter() - t0)  # lint: disable=determinism -- reporting-only timing; never feeds results
        return lsn

    def _append_now(self, lines: List[str]) -> int:
        if self._handle is None:
            raise ValueError("write-ahead log is closed")
        crashpoint("wal.append.begin")
        lsn = self._last_lsn + 1
        handle = self._handle
        handle.write("\n".join(lines) + "\n")
        # Flush so an injected crash at the next point leaves the torn
        # body visible on disk, exactly like a real mid-append death.
        handle.flush()
        crashpoint("wal.append.body")
        handle.write(
            f"{COMMIT} {lsn} {len(lines)} {_body_crc(lines):08x}\n"
        )
        handle.flush()
        crashpoint("wal.append.commit")
        if self.fsync_policy == "always":
            self._fsync(handle)
            crashpoint("wal.fsync")
        self._last_lsn = lsn
        self._appended += 1
        self._segment_records += 1
        if (
            self.segment_limit is not None
            and self._segment_records >= self.segment_limit
        ):
            self.rotate()
        return lsn

    def sync(self) -> None:
        """Force an fsync of the active segment (no-op when ``off``)."""
        if self._handle is not None and self.fsync_policy != "off":
            self._fsync(self._handle)

    def rotate(self) -> int:
        """Seal the active segment and start the next one."""
        if self._handle is not None:
            self._handle.flush()
            if self.fsync_policy != "off":
                self._fsync(self._handle)
            self._handle.close()
            self._handle = None
        crashpoint("wal.rotate")
        self._start_segment(self._segment_index + 1)
        return self._segment_index

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self.fsync_policy != "off":
                self._fsync(self._handle)
            self._handle.close()
            self._handle = None

    def abandon(self) -> None:
        """Release the active segment without the close-time fsync.

        What a process death leaves behind: every crash point fires with
        user-space buffers already flushed, so dropping the handle here
        changes nothing on disk; it only returns the file descriptor.
        """
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Replay / maintenance
    # ------------------------------------------------------------------

    def replay(self, after_lsn: int = 0) -> Iterator[WalRecord]:
        """Committed records with ``lsn > after_lsn``, in order."""
        for record in self._records:
            if record.lsn > after_lsn:
                yield record

    def truncate_through(self, lsn: int) -> List[str]:
        """Remove whole segments whose records are all ``<= lsn``.

        The active segment is never removed.  Returns the deleted
        segment file names.  Safe to crash at any point: replay skips
        records at or below a snapshot's LSN whether or not their
        segment was deleted.
        """
        removed: List[str] = []
        for index, path in self._segment_paths():
            if index == self._segment_index:
                continue
            scan = _scan_segment(path, self.fs)
            if scan.records and scan.records[-1].lsn > lsn:
                continue
            if not scan.records and scan.header is not None:
                # Empty segment: removable once its start LSN is covered.
                if scan.header[1] > lsn:
                    continue
            crashpoint("wal.truncate")
            self.fs.remove(path)
            removed.append(os.path.basename(path))
        if removed and self.fsync_policy != "off":
            self.fs.fsync_dir(self.directory)
        return removed

    def stats(self) -> Dict[str, object]:
        return {
            "fsync_policy": self.fsync_policy,
            "last_lsn": self._last_lsn,
            "segments": len(self._segment_paths()),
            "active_segment": self._segment_index,
            "appended": self._appended,
            "fsyncs": self._synced,
            "repairs": list(self.repairs),
        }

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.directory!r}, fsync="
            f"{self.fsync_policy!r}, lsn={self._last_lsn}, "
            f"segment={self._segment_index})"
        )

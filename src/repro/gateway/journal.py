"""Write-ahead submission journal with CRC framing and fsync batching.

Every submission the gateway accepts is appended here *before* the
client receives its ack, so a ``SIGKILL`` after the ack can always be
repaired by replaying the journal into a fresh
:class:`~repro.serving.server.VerificationServer`.

Record framing (one record, append-only)::

    +----------------+----------------+----------------------+
    | length: u32 BE | crc32: u32 BE  | payload (JSON, UTF-8)|
    +----------------+----------------+----------------------+

The payload is a single JSON object ``{"seq", "tenant_id",
"claim_ids", "ts"}``.  ``seq`` is a monotonically increasing record
number spanning segments; ``ts`` is a wall-clock stamp kept purely as
operator metadata (this module carries the checker's wall-clock
exemption — nothing replays or orders by ``ts``).

Segments are files named ``journal-<index>.log``.  A writer never
appends to an existing segment: each open starts a fresh segment, so a
corrupt or truncated tail left by a crash is never written past.  The
reader (:func:`scan_journal`) walks segments in index order and applies
the recovery contract:

* CRC mismatch with a plausible frame → skip that one record, keep
  scanning (counted in ``corrupt_records``),
* short header / implausible length / short payload → truncated tail;
  stop this segment, continue with the next (counted in
  ``truncated_tails``),
* never raise for damage unless ``strict=True``.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import JournalCorruptionError, JournalError

__all__ = [
    "JournalRecord",
    "JournalScan",
    "JournalWriter",
    "MAX_RECORD_BYTES",
    "scan_journal",
]

_HEADER = struct.Struct(">II")

#: Upper bound on a single record payload; anything larger in a header is
#: treated as a truncated/corrupt tail rather than an allocation request.
MAX_RECORD_BYTES = 1 << 24

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".log"


def _segment_path(directory: Path, index: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"


def _segment_index(path: Path) -> int | None:
    name = path.name
    if not name.startswith(_SEGMENT_PREFIX) or not name.endswith(_SEGMENT_SUFFIX):
        return None
    stem = name[len(_SEGMENT_PREFIX) : -len(_SEGMENT_SUFFIX)]
    if not stem.isdigit():
        return None
    return int(stem)


def segment_paths(directory: str | Path) -> list[Path]:
    """All journal segments under ``directory`` in index order."""
    root = Path(directory)
    if not root.is_dir():
        return []
    indexed = []
    for path in root.iterdir():
        index = _segment_index(path)
        if index is not None:
            indexed.append((index, path))
    return [path for _, path in sorted(indexed)]


def encode_record(seq: int, tenant_id: str, claim_ids: tuple[str, ...], ts: float) -> bytes:
    """Frame one submission as ``header + JSON payload`` bytes."""
    payload = json.dumps(
        {"seq": seq, "tenant_id": tenant_id, "claim_ids": list(claim_ids), "ts": ts},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise JournalError(f"journal record too large: {len(payload)} bytes")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass(frozen=True)
class JournalRecord:
    """One durable, decoded submission."""

    seq: int
    tenant_id: str
    claim_ids: tuple[str, ...]
    ts: float
    segment: str


@dataclass
class JournalScan:
    """Everything a scan recovered plus what it had to skip."""

    records: list[JournalRecord] = field(default_factory=list)
    segments: int = 0
    corrupt_records: int = 0
    truncated_tails: int = 0
    bytes_scanned: int = 0

    @property
    def last_seq(self) -> int:
        return max((record.seq for record in self.records), default=-1)

    def to_dict(self) -> dict:
        return {
            "records": len(self.records),
            "segments": self.segments,
            "corrupt_records": self.corrupt_records,
            "truncated_tails": self.truncated_tails,
            "bytes_scanned": self.bytes_scanned,
            "last_seq": self.last_seq,
        }


def _scan_segment(path: Path, scan: JournalScan, *, strict: bool) -> None:
    data = path.read_bytes()
    scan.bytes_scanned += len(data)
    offset = 0
    while offset < len(data):
        if len(data) - offset < _HEADER.size:
            if strict:
                raise JournalCorruptionError(f"{path.name}: truncated header at byte {offset}")
            scan.truncated_tails += 1
            return
        length, crc = _HEADER.unpack_from(data, offset)
        if length == 0 or length > MAX_RECORD_BYTES:
            if strict:
                raise JournalCorruptionError(
                    f"{path.name}: implausible record length {length} at byte {offset}"
                )
            scan.truncated_tails += 1
            return
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            if strict:
                raise JournalCorruptionError(f"{path.name}: truncated payload at byte {offset}")
            scan.truncated_tails += 1
            return
        payload = data[start:end]
        offset = end
        if zlib.crc32(payload) != crc:
            if strict:
                raise JournalCorruptionError(f"{path.name}: CRC mismatch at byte {start}")
            scan.corrupt_records += 1
            continue
        try:
            obj = json.loads(payload.decode("utf-8"))
            record = JournalRecord(
                seq=int(obj["seq"]),
                tenant_id=str(obj["tenant_id"]),
                claim_ids=tuple(str(claim) for claim in obj["claim_ids"]),
                ts=float(obj["ts"]),
                segment=path.name,
            )
        except (ValueError, KeyError, TypeError) as error:
            if strict:
                raise JournalCorruptionError(f"{path.name}: bad payload ({error})") from error
            scan.corrupt_records += 1
            continue
        scan.records.append(record)


def scan_journal(directory: str | Path, *, strict: bool = False) -> JournalScan:
    """Read every recoverable record from the journal at ``directory``.

    The default mode never raises for damage: CRC mismatches are skipped
    record-by-record, truncated tails end their segment, and both are
    counted on the returned :class:`JournalScan`.  ``strict=True`` turns
    any damage into :class:`~repro.errors.JournalCorruptionError`.
    """
    scan = JournalScan()
    for path in segment_paths(directory):
        scan.segments += 1
        _scan_segment(path, scan, strict=strict)
    return scan


class JournalWriter:
    """Append-only journal writer with group-commit fsync batching.

    ``append()`` frames and buffers one record and hands back its
    ``seq``; the record is durable only after the next ``commit()``
    (flush + ``fsync``).  The gateway batches many appends behind one
    commit, which is where the sustained ack throughput comes from.

    The writer is thread-safe (the gateway commits from a worker thread
    while the event loop appends) and always opens a *new* segment, so
    it can never append past a damaged tail left by a crash.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        segment_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        if segment_bytes <= 0:
            raise JournalError("segment_bytes must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = segment_bytes
        self._lock = threading.RLock()
        existing = segment_paths(self.directory)
        last_index = _segment_index(existing[-1]) if existing else -1
        self._next_segment = (last_index if last_index is not None else -1) + 1
        self._next_seq = scan_journal(self.directory).last_seq + 1
        self._file = None
        self._sealed = []
        self._segment_written = 0
        self._uncommitted = 0
        self.records_appended = 0
        self.records_committed = 0
        self.commits = 0
        self.segments_opened = 0
        self.bytes_written = 0

    @property
    def next_seq(self) -> int:
        with self._lock:
            return self._next_seq

    def _open_segment(self) -> None:
        with self._lock:
            if self._file is not None:
                # Seal, don't sync: the old segment's records stay pending
                # until the next commit().  append() must never block on
                # fsync — it runs on the gateway event loop.
                self._file.flush()
                self._sealed.append(self._file)
                self._file = None
            path = _segment_path(self.directory, self._next_segment)
            self._next_segment += 1
            self._file = open(path, "ab")
            self._segment_written = 0
            self.segments_opened += 1

    def append(self, tenant_id: str, claim_ids: tuple[str, ...] | list[str]) -> int:
        """Buffer one submission; durable only after :meth:`commit`."""
        with self._lock:
            if self._file is None:
                self._open_segment()
            seq = self._next_seq
            frame = encode_record(seq, tenant_id, tuple(claim_ids), time.time())
            if self._segment_written and self._segment_written + len(frame) > self._segment_bytes:
                self._open_segment()
            self._file.write(frame)
            self._next_seq = seq + 1
            self._segment_written += len(frame)
            self.bytes_written += len(frame)
            self.records_appended += 1
            self._uncommitted += 1
            return seq

    def _commit_locked(self) -> None:
        with self._lock:
            if not self._uncommitted and not self._sealed:
                return
            for sealed in self._sealed:
                os.fsync(sealed.fileno())
                sealed.close()
            self._sealed.clear()
            if self._file is not None:
                self._file.flush()
                os.fsync(self._file.fileno())
            self.commits += 1
            self.records_committed += self._uncommitted
            self._uncommitted = 0

    def commit(self) -> None:
        """Make every buffered record durable (flush + fsync)."""
        with self._lock:
            self._commit_locked()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._commit_locked()
                self._file.close()
                self._file = None

    def abandon(self) -> None:
        """Drop the file handles without a final commit (crash simulation)."""
        with self._lock:
            for sealed in self._sealed:
                sealed.close()
            self._sealed.clear()
            if self._file is not None:
                self._file.close()
                self._file = None
            self._uncommitted = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "records_appended": self.records_appended,
                "records_committed": self.records_committed,
                "commits": self.commits,
                "appends_per_commit": (
                    self.records_committed / self.commits if self.commits else 0.0
                ),
                "segments_opened": self.segments_opened,
                "bytes_written": self.bytes_written,
                "next_seq": self._next_seq,
            }

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

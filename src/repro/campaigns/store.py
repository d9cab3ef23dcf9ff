"""Content-addressed result stores: what makes campaigns resumable.

A :class:`ResultStore` persists one JSON line per completed job under a
run directory — ``{"job": <hash>, "result": {...}}`` appended to
``results.jsonl`` as soon as the job finishes.  Because lines are
keyed by the job's content address (:func:`repro.campaigns.spec.job_hash`)
and appended atomically-enough (one ``write`` of one line), a campaign
killed mid-run can simply be re-run: the scheduler skips every job
whose hash is already present and recomputes only the rest, and the
final aggregation is byte-identical to an uninterrupted run because
results are JSON-normalised the moment they are produced — a fresh
result and a replayed one are the same object either way.

The file itself belongs to a :class:`Log`: the one piece of code that
appends to, scans, and reads back a results file, checking every record
it reads against its CRC.  ``ResultStore`` is a ``Log`` plus spec
pinning and an in-memory mirror; the serving layer's query store and
store daemon are ``Log`` s too.

:class:`MemoryStore` is the ephemeral variant used when no run
directory is given (one-shot campaigns, tests).
"""

from __future__ import annotations

import base64
import json
import os
import threading
import time
import warnings
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.campaigns.spec import jsonable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.campaigns.spec import CampaignSpec

RESULTS_NAME = "results.jsonl"
SPEC_NAME = "spec.json"
#: Sidecar next to a store file collecting its quarantined records.
CORRUPT_SUFFIX = ".corrupt"

#: Valid fsync policies for the JSONL stores (see :class:`FsyncPolicy`).
FSYNC_MODES = ("none", "batch", "always")


class StoreWriteWarning(UserWarning):
    """A store append failed (``ENOSPC``/IO error); writer degraded."""


class StoreCorruptionWarning(UserWarning):
    """A store file held corrupt records; they were quarantined."""


class FsyncPolicy:
    """When appended store lines are forced to stable storage.

    * ``none``   — rely on the OS page cache (a *machine* crash may lose
      the last writes; a killed process loses nothing).  The historical
      behaviour, and the fastest.
    * ``batch``  — ``fsync`` at most once per ``interval_s`` of writes:
      a machine crash loses at most the last interval's appends.  The
      deployment default for the replicated tier, where the replica
      already covers single-node loss.
    * ``always`` — ``fsync`` after every append: a ``put`` acknowledged
      is a ``put`` on the platter, at the cost of one disk flush per
      record.
    """

    def __init__(self, mode: str = "none", interval_s: float = 0.05) -> None:
        if mode not in FSYNC_MODES:
            raise ValueError(
                f"fsync mode must be one of {', '.join(FSYNC_MODES)}, "
                f"got {mode!r}"
            )
        if interval_s < 0:
            raise ValueError(f"fsync interval must be >= 0, got {interval_s}")
        self.mode = mode
        self.interval_s = interval_s
        #: ``None`` until the first barrier, which always syncs: the
        #: monotonic clock may start near zero on a freshly booted host.
        self._last_sync: float | None = None

    def sync(self, fileno: int) -> None:
        """Apply the policy to one freshly-flushed file descriptor."""
        if self.mode == "none":
            return
        if self.mode == "batch":
            now = time.monotonic()
            if (
                self._last_sync is not None
                and now - self._last_sync < self.interval_s
            ):
                return
            self._last_sync = now
        os.fsync(fileno)

    @classmethod
    def coerce(
        cls, policy: "FsyncPolicy | str | None", interval_s: float = 0.05
    ) -> "FsyncPolicy":
        """``None`` / mode strings / instances -> an instance."""
        if policy is None:
            return cls("none", interval_s)
        if isinstance(policy, FsyncPolicy):
            return policy
        return cls(policy, interval_s)

#: Format tag for quarantined-job records.  A job that keeps failing is
#: recorded in the store as a *structured error document* instead of a
#: result, so the failure is durable (a resumed run knows the job was
#: attempted) without being mistaken for a completed job: the scheduler
#: re-attempts error-documented jobs on the next run.
ERROR_FORMAT = "repro-error/1"


def error_result(
    kind: str, error: str, attempts: int, reason: str
) -> dict[str, Any]:
    """The quarantine document stored for a permanently-failing job.

    ``reason`` is the scheduler's failure class (``"error"``,
    ``"crash"`` or ``"timeout"``); ``error`` is the repr of the last
    exception (or a synthesized description for crashes/timeouts).
    """
    return {
        "format": ERROR_FORMAT,
        "kind": kind,
        "error": error,
        "attempts": attempts,
        "reason": reason,
    }


def is_error_result(result: Any) -> bool:
    """True when a stored result is a quarantine document."""
    return isinstance(result, dict) and result.get("format") == ERROR_FORMAT


def record_crc(job_id: str, normalised: Any) -> int:
    """CRC32 over the canonical ``{"job", "result"}`` payload bytes.

    Computed on the record *without* its ``crc`` field, so the checksum
    covers exactly the bytes that matter and verification is
    re-serialise-and-compare, independent of field ordering on disk.
    """
    payload = json.dumps(
        {"job": job_id, "result": normalised},
        sort_keys=True,
        separators=(",", ":"),
    )
    return zlib.crc32(payload.encode("utf-8"))


def result_line(job_id: str, normalised: Any) -> str:
    """One store line: the canonical ``{"crc", "job", "result"}`` record.

    Written only by :meth:`Log.append`, so files of the campaign and
    serving stores stay interchangeable.
    The ``crc`` field lets readers detect bit-rot inside a record, not
    just a torn tail; legacy lines without it are accepted unverified.
    """
    return json.dumps(
        {
            "crc": record_crc(job_id, normalised),
            "job": job_id,
            "result": normalised,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def verify_record(record: dict) -> bool:
    """True when a parsed record's checksum matches (or it has none)."""
    stored = record.get("crc")
    if stored is None:
        return True  # pre-checksum line: accept unverified
    return stored == record_crc(record.get("job"), record.get("result"))


def quarantined_count(path: Path) -> int:
    """Number of records in ``path``'s ``.corrupt`` sidecar."""
    return len(_quarantined_offsets(path))


def _quarantined_offsets(path: Path) -> set:
    """Offsets of the records ``path``'s ``.corrupt`` sidecar keeps."""
    sidecar = path.with_name(path.name + CORRUPT_SUFFIX)
    if not sidecar.exists():
        return set()
    offsets = set()
    for line in sidecar.read_text(encoding="utf-8").splitlines():
        try:
            offsets.add(json.loads(line)["offset"])
        except (ValueError, TypeError, KeyError):
            continue
    return offsets


class Log:
    """One append-only results file; the only code that touches it.

    Appends (:meth:`append`), the start-up :meth:`scan`, point reads at
    a byte offset (:meth:`read`) and the replication read from an offset
    (:meth:`read_from`) all live here.  Every read passes each line
    through one verify-or-quarantine step, so a record that fails to
    parse, lacks ``job`` or fails its CRC is never returned or shipped:

    * its raw bytes go to a ``.corrupt`` sidecar (base64 + offset +
      reason, deduped by offset); the file itself is never rewritten;
    * it counts once per ``Log`` in ``corrupt_records``, whichever read
      meets it first, and a ``StoreCorruptionWarning`` fires;
    * the reader treats it as absent, so its job recomputes and
      re-appends.

    A torn final line (no newline: a killed writer) is not corruption;
    reads skip it silently and the next append starts on a fresh line.
    """

    def __init__(
        self, path: str | Path, fsync: FsyncPolicy | str | None = None
    ) -> None:
        self.path = Path(path)
        self.fsync = FsyncPolicy.coerce(fsync)
        self.read_only = False
        self.write_errors = 0
        self.corrupt_records = 0
        #: Offsets found corrupt so far, each counted once.  Guarded by
        #: its own lock: replication reads run without the owner's.
        self._corrupt: set[int] = set()
        self._corrupt_lock = threading.Lock()
        #: True when the file ends mid-line (set by :meth:`scan`).
        self._needs_newline = False

    @property
    def end_offset(self) -> int:
        """Current byte length of the file: the replication position
        (a replica caught up to it holds every committed record)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def scan(self) -> Iterator[tuple[int, dict]]:
        """Yield ``(offset, record)`` per intact record, in file order.

        Exhaust it before the first :meth:`append`: it also notes
        whether the file ends in a torn line that the append must not
        merge with.
        """
        try:
            handle = self.path.open("rb")
        except FileNotFoundError:
            return
        with handle:
            offset = 0
            for raw in handle:
                record = self._verify(offset, raw)
                if record is not None:
                    yield offset, record
                offset += len(raw)
                self._needs_newline = not raw.endswith(b"\n")

    def read(self, offset: int) -> dict | None:
        """The verified record at ``offset``; ``None`` if it is corrupt."""
        with self.path.open("rb") as handle:
            handle.seek(offset)
            raw = handle.readline()
        return self._verify(offset, raw)

    def read_from(
        self, offset: int, limit: int
    ) -> tuple[list[tuple[int, dict]], int, bool]:
        """Up to ``limit`` verified records from byte ``offset``.

        Returns ``(records, next_offset, more)``, each record paired
        with the offset just past it (what a replica acks).  Committed
        bytes never change, so callers need no lock; the read stops
        before a line without its newline (a torn tail or an append in
        flight), and corrupt lines advance the offset with no record.
        """
        records: list[tuple[int, dict]] = []
        try:
            handle = self.path.open("rb")
        except OSError:
            return records, offset, False
        with handle:
            handle.seek(offset)
            while len(records) < limit:
                raw = handle.readline()
                if not raw.endswith(b"\n"):
                    break
                record = self._verify(offset, raw)
                offset += len(raw)
                if record is not None:
                    records.append((offset, record))
            more = bool(handle.readline())
        return records, offset, more

    def append(self, job_id: str, normalised: Any) -> int | None:
        """Append one record; its byte offset, or ``None`` if read-only.

        Callers serialise their appends.  A failed append (``ENOSPC``,
        revoked permissions, dying disk) degrades the log to read-only
        instead of raising: the owner keeps the result in memory, and
        the warning and counters make the degradation observable.
        """
        if self.read_only:
            return None
        data = (result_line(job_id, normalised) + "\n").encode("utf-8")
        try:
            with self.path.open("ab") as handle:
                offset = handle.tell()
                if self._needs_newline:
                    data = b"\n" + data
                    offset += 1
                handle.write(data)
                handle.flush()
                self.fsync.sync(handle.fileno())
        except OSError as exc:
            self.read_only = True
            self.write_errors += 1
            warnings.warn(
                f"{self.path}: append failed ({exc}); store degraded to "
                "read-only — results from here on are held in memory only",
                StoreWriteWarning,
                stacklevel=3,
            )
            return None
        self._needs_newline = False
        return offset

    def _verify(self, offset: int, raw: bytes) -> dict | None:
        """The record in one raw line, or ``None`` (quarantining it when
        it is a complete line that is not an intact record)."""
        if not raw.strip():
            return None
        try:
            record = json.loads(raw)
        except ValueError:  # JSONDecodeError, or bytes that are not UTF-8
            reason = "unparseable"
        else:
            if not isinstance(record, dict) or "job" not in record:
                reason = "not-a-record"
            elif not verify_record(record):
                reason = "crc-mismatch"
            else:
                return record
        if raw.endswith(b"\n"):
            self._quarantine(offset, raw, reason)
        return None

    def _quarantine(self, offset: int, raw: bytes, reason: str) -> None:
        """Count one corrupt record and keep its bytes, once per offset."""
        with self._corrupt_lock:
            if offset in self._corrupt:
                return
            self._corrupt.add(offset)
            self.corrupt_records += 1
            sidecar = self.path.with_name(self.path.name + CORRUPT_SUFFIX)
            entry = {
                "offset": offset,
                "reason": reason,
                "raw": base64.b64encode(raw).decode("ascii"),
            }
            try:
                if offset in _quarantined_offsets(self.path):
                    return  # kept by an earlier Log on this file
                with sidecar.open("a", encoding="utf-8") as handle:
                    handle.write(json.dumps(entry, sort_keys=True) + "\n")
            except OSError:
                pass  # evidence lost; the record is withheld all the same
        warnings.warn(
            f"{self.path}: corrupt record at offset {offset} ({reason}); "
            f"quarantined to {self.path.name}{CORRUPT_SUFFIX}",
            StoreCorruptionWarning,
            stacklevel=4,
        )


class MemoryStore:
    """Ephemeral in-process store with the :class:`ResultStore` interface."""

    #: Whether results survive the process (diagnostics, ``/stats``).
    persistent = False

    def __init__(self) -> None:
        self._results: dict[str, Any] = {}

    def prepare(self, spec: "CampaignSpec") -> None:
        """No provenance to write for an in-memory run."""

    def load(self) -> dict[str, Any]:
        """All stored results, keyed by job hash."""
        return dict(self._results)

    def put(self, job_id: str, result: Any) -> Any:
        """Record one finished job; returns the normalised result."""
        normalised = jsonable(result)
        self._results[job_id] = normalised
        return normalised

    def get(self, job_id: str, default: Any = None) -> Any:
        """One stored result by content address (no copy, O(1)).

        ``load()`` snapshots the whole store for the scheduler's bulk
        resume check; point lookups (the serving layer's cache misses)
        go through here instead.
        """
        return self._results.get(job_id, default)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._results

    def __len__(self) -> int:
        return len(self._results)


class ResultStore(Log, MemoryStore):
    """JSONL-backed store under a run directory; append-only, resumable.

    A :class:`Log` plus spec pinning (:meth:`prepare`) and an in-memory
    mirror of every result, which is what :meth:`load` and :meth:`get`
    answer from.
    """

    persistent = True

    def __init__(
        self,
        run_dir: str | Path,
        fsync: FsyncPolicy | str | None = None,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        super().__init__(self.run_dir / RESULTS_NAME, fsync)
        self._results = {
            record["job"]: record.get("result") for _, record in self.scan()
        }

    def prepare(self, spec: "CampaignSpec") -> None:
        """Pin the run directory to one campaign.

        Writes ``spec.json`` on first use and refuses to resume when the
        directory already belongs to a *different* spec — mixing two
        campaigns' results in one store would silently corrupt both.
        """
        spec_path = self.run_dir / SPEC_NAME
        canonical = spec.canonical()
        if spec_path.exists():
            existing = spec_path.read_text(encoding="utf-8").strip()
            if existing != canonical:
                raise ValueError(
                    f"{self.run_dir} already holds results for a different "
                    "campaign spec; use a fresh --run-dir"
                )
            return
        spec_path.write_text(canonical + "\n", encoding="utf-8")

    def put(self, job_id: str, result: Any) -> Any:
        """Append one result line and mirror it in memory.

        A failed append does not crash the campaign mid-run: the log
        degrades to read-only (:meth:`Log.append`) and results keep
        flowing through the in-memory mirror, so the run finishes —
        they just will not survive for resume.
        """
        normalised = jsonable(result)
        self.append(job_id, normalised)
        self._results[job_id] = normalised
        return normalised


def open_store(target: "MemoryStore | str | Path | None") -> MemoryStore:
    """Coerce ``None`` / path-likes / stores into a store instance."""
    if target is None:
        return MemoryStore()
    if isinstance(target, MemoryStore):
        return target
    return ResultStore(target)

"""Bounded result caching for the serving layer.

Two pieces, composed by :class:`~repro.serve.service.AnalysisService`:

* :class:`JsonlQueryStore` — the persistent tier (``--run-dir``).  A
  :class:`~repro.campaigns.store.Log`, so its file is the campaign
  store's format (files written by either are interchangeable), plus a
  *byte-offset index*: results are read back from disk on demand, so a
  long-running server accumulating millions of distinct query results
  holds ~100 bytes per entry, not the results themselves.  Every read
  is CRC-verified: a record that rotted on disk after it was indexed
  is quarantined and dropped from the index, and the lookup answers a
  miss, so the job recomputes and re-appends.
* :class:`ServeCache` — a bounded in-memory LRU in front of an optional
  store.  Results are keyed by the campaign engine's sha256 content
  address (:func:`repro.campaigns.spec.job_hash`).

Lookup order on a request: LRU (fast path, counted as ``hits``), then
the backing store (``store_hits``; the entry is promoted into the LRU),
then a miss (the service computes the job and calls :meth:`put`).  The
counters are exposed verbatim at ``GET /stats`` and asserted by the
end-to-end tests.  Both classes are thread-safe: the service calls
``put`` from executor threads to keep disk writes off the event loop.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.campaigns.spec import jsonable
from repro.campaigns.store import RESULTS_NAME, FsyncPolicy, Log, MemoryStore

_MISS = object()


class JsonlQueryStore(Log):
    """A :class:`Log` holding only an offset index in memory.

    Implements the subset of the :class:`MemoryStore` interface the
    serving cache needs (``get`` / ``put`` / ``in`` / ``len``) plus the
    store daemon's deduplicating :meth:`put_if_absent`.  Results
    accepted while the log is read-only (a failed append) live in an
    in-memory overlay, which keeps the server answering even when the
    disk under it is full.
    """

    persistent = True

    def __init__(
        self,
        directory: str | Path,
        fsync: FsyncPolicy | str | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        super().__init__(self.directory / RESULTS_NAME, fsync)
        self._lock = threading.Lock()
        #: job hash -> byte offset of its latest line in ``path``.
        self._index: dict[str, int] = {
            record["job"]: offset for offset, record in self.scan()
        }
        #: job hash -> result, for entries accepted while read-only.
        self._overlay: dict[str, Any] = {}

    def _lookup_locked(self, job_id: str) -> Any:
        """The stored result or ``_MISS``; caller holds ``_lock``.

        A record that fails verification is dropped from the index
        (the :class:`Log` has quarantined it), so the job reads as
        absent and its next put appends a fresh copy.
        """
        offset = self._index.get(job_id)
        if offset is not None:
            record = self.read(offset)
            if record is not None:
                return record.get("result")
            del self._index[job_id]
        return self._overlay.get(job_id, _MISS)

    def _append_locked(self, job_id: str, normalised: Any) -> None:
        offset = self.append(job_id, normalised)
        if offset is None:  # read-only: serve it from memory
            self._overlay[job_id] = normalised
        else:
            self._index[job_id] = offset

    def get(self, job_id: str, default: Any = None) -> Any:
        """One stored result, read back from disk by offset."""
        with self._lock:
            value = self._lookup_locked(job_id)
        return default if value is _MISS else value

    def put(self, job_id: str, result: Any) -> Any:
        """Append one result line; returns the normalised result."""
        normalised = jsonable(result)
        with self._lock:
            self._append_locked(job_id, normalised)
        return normalised

    def put_if_absent(self, job_id: str, result: Any) -> tuple[Any, bool]:
        """Append only when the hash is new; ``(result, stored)``.

        The dedupe the store daemon relies on: jobs are deterministic,
        so a second ``put`` of the same content address can only be a
        recomputation of the same bytes — skipping the append keeps the
        store at exactly one line per distinct hash even when several
        front-ends race on the same job.  A hash whose record failed
        verification counts as new.
        """
        with self._lock:
            value = self._lookup_locked(job_id)
            if value is not _MISS:
                return value, False
            normalised = jsonable(result)
            self._append_locked(job_id, normalised)
        return normalised, True

    def durability_stats(self) -> dict:
        """Store-level durability counters for ``GET /stats``."""
        with self._lock:
            return {
                "fsync": self.fsync.mode,
                "read_only": self.read_only,
                "write_errors": self.write_errors,
                "corrupt_records": self.corrupt_records,
                "end_offset": self.end_offset,
            }

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._index or job_id in self._overlay

    def __len__(self) -> int:
        with self._lock:
            return len(self._index) + len(self._overlay)


class ServeCache:
    """Bounded, thread-safe LRU over an optional write-through store."""

    def __init__(
        self,
        maxsize: int = 1024,
        store: MemoryStore | JsonlQueryStore | None = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.store = store
        self._lock = threading.Lock()
        self._lru: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.store_hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, job_id: str) -> tuple[bool, Any]:
        """Look one content address up; returns ``(found, result)``."""
        with self._lock:
            value = self._lru.get(job_id, _MISS)
            if value is not _MISS:
                self._lru.move_to_end(job_id)
                self.hits += 1
                return True, value
        if self.store is not None:
            value = self.store.get(job_id, _MISS)
            if value is not _MISS:
                with self._lock:
                    self.store_hits += 1
                    self._admit(job_id, value)
                return True, value
        with self._lock:
            self.misses += 1
        return False, None

    def put(self, job_id: str, result: Any) -> Any:
        """Cache one computed result (written through to the store).

        Results are JSON-normalised either way, so a response served
        cold, from the LRU, or from a replayed store line is the same
        object.
        """
        if self.store is not None:
            result = self.store.put(job_id, result)
        else:
            result = jsonable(result)
        with self._lock:
            self._admit(job_id, result)
        return result

    def _admit(self, job_id: str, value: Any) -> None:
        self._lru[job_id] = value
        self._lru.move_to_end(job_id)
        while len(self._lru) > self.maxsize:
            self._lru.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._lru)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._lru

    def stats(self) -> dict:
        """Counter snapshot for ``GET /stats``."""
        with self._lock:
            return {
                "size": len(self._lru),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "store_hits": self.store_hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "persistent": bool(
                    getattr(self.store, "persistent", False)
                ),
            }

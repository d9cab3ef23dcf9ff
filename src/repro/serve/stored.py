"""Shared result tier: the store daemon and its sharded remote client.

One process per shard owns an offset-indexed
:class:`~repro.serve.cache.JsonlQueryStore` and serves it over a tiny
length-prefixed JSON protocol, so every front-end of a ``repro
cluster`` reads and writes the *same* content-addressed results —
a job computed by any front-end is a cache hit for all of them.

* :class:`StoreDaemon` — the server: thread-per-connection over one
  ``JsonlQueryStore``.  ``put`` is **deduplicating**: a job hash already
  present is not appended again (results are deterministic, so the
  second write can only be a byte-identical recomputation) — which is
  what makes "each distinct hash computed once" checkable by grepping
  the store file.  The daemon never touches that file itself: ``get``,
  ``put`` and replication all go through the store's
  :class:`~repro.campaigns.store.Log`, whose reads verify every record
  — a record failing its CRC answers ``get`` with a miss (the job
  recomputes and is re-put) and is skipped by ``sync``/``stream``, so
  it is never shipped to a replica.  Restarts recover from torn final
  lines exactly like the campaign store.
* :class:`StoreClient` — one blocking connection to one daemon, with
  transparent reconnect-once per request.
* :class:`RemoteStore` — the object front-ends plug into
  :class:`~repro.serve.cache.ServeCache`: consistent-hashes each job id
  over the configured shard addresses (:class:`HashRing`), degrades a
  dead shard to a cache miss (``get`` -> recompute) instead of an
  error, and buffers failed ``put``\\ s to flush after the shard comes
  back — a store-daemon bounce costs recomputation, never availability.
* :class:`HashRing` — consistent hashing with virtual nodes: adding or
  removing one shard remaps only ~1/n of the key space, so a resharded
  cluster keeps most of its cache warm.

The protocol is JSON documents framed by a 4-byte big-endian length::

    {"op": "get",  "job": <hash>}              -> {"ok": true, "found": bool, "result": ...}
    {"op": "put",  "job": <hash>, "result": .} -> {"ok": true, "stored": bool, "replicated": bool}
    {"op": "stats"}                            -> {"ok": true, "entries": N, ...}
    {"op": "ping"}                             -> {"ok": true}
    {"op": "sync", "log_id": .., "offset": N}  -> {"ok": true, "records": [..], "offset": N', "more": bool}
    {"op": "stream", "log_id": .., "offset": N} -> header, then a feed of
        {"op": "rep", "job": .., "result": .., "offset": N'} frames; the
        subscriber answers each with {"op": "ack", "offset": N'}
    {"op": "promote"}                          -> {"ok": true, "generation": G}

**Replication**: a daemon started with ``replica_of`` runs as a
*backup* — it tails the primary's append-only log over ``stream``,
resuming from its persisted ``(log_id, byte offset)`` position, applies
each record through the same deduplicating ``put_if_absent``, and acks.
The primary identifies its log by a per-directory ``log_id`` (uuid);
a mismatched or too-far offset resyncs from zero, which dedup makes
harmless.  With ``ack_mode="replicated"`` the primary delays its ``put``
reply until a replica has acked past the record (bounded by
``replication_timeout_s``; on timeout it degrades to a local-only ack
and counts an ``ack_downgrade`` rather than stalling clients).  A
``promote`` request — issued by the cluster supervisor when the primary
dies — flips a backup into a primary serving writes, bumping its
``failover_generation``.  Backups serve reads throughout, so a failover
window costs zero recomputation.

``python -m repro stored`` runs one daemon standalone;
``python -m repro cluster`` spawns and supervises one per shard
(primary + backup when ``--store-group`` asks for it).
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import struct
import sys
import threading
import time
import uuid
from bisect import bisect_right
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.campaigns.spec import jsonable
from repro.campaigns.store import FsyncPolicy
from repro.serve.cache import JsonlQueryStore

#: Frame header: payload length as 4-byte big-endian unsigned int.
_HEADER = struct.Struct(">I")
#: Upper bound on one framed message (a result document is at most a
#: few MB; anything larger is a protocol error, not a result).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_MISS = object()


class StoreUnavailable(Exception):
    """The daemon could not be reached (connect, send or recv failed)."""


class StoreProtocolError(Exception):
    """The peer spoke something that is not the framed-JSON protocol."""


# ----------------------------------------------------------------------
# framing (shared by daemon and client)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> dict | None:
    """One framed JSON document; ``None`` on a clean close between frames."""
    try:
        header = sock.recv(_HEADER.size)
    except ConnectionError:
        return None
    if not header:
        return None
    if len(header) < _HEADER.size:
        header += _recv_exactly(sock, _HEADER.size - len(header))
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise StoreProtocolError(f"frame of {length} bytes exceeds the limit")
    payload = _recv_exactly(sock, length)
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise StoreProtocolError(f"frame is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise StoreProtocolError("frame must be a JSON object")
    return doc


def write_frame(sock: socket.socket, doc: dict) -> None:
    """Serialise and send one framed JSON document."""
    payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(payload)) + payload)


# ----------------------------------------------------------------------
# consistent hashing


def _ring_hash(text: str) -> int:
    """Stable 64-bit hash for ring points and keys (process-independent)."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node contributes ``replicas`` points on a 64-bit ring; a key
    maps to the first point clockwise from its own hash.  Removing one
    node hands only its arcs to the survivors (~1/n of the key space),
    so rescaling the store tier keeps most shard assignments — and the
    results already stored under them — stable.
    """

    def __init__(self, nodes: Iterable[str], replicas: int = 64) -> None:
        self.nodes = tuple(nodes)
        if not self.nodes:
            raise ValueError("HashRing needs at least one node")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        points = []
        for node in self.nodes:
            for index in range(replicas):
                points.append((_ring_hash(f"{node}#{index}"), node))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [node for _, node in points]

    def node_for(self, key: str) -> str:
        """The node owning ``key`` (the job's content address)."""
        index = bisect_right(self._hashes, _ring_hash(key))
        if index == len(self._hashes):
            index = 0  # wrap: first point clockwise from the top
        return self._owners[index]


# ----------------------------------------------------------------------
# daemon


def _shipped(end_offset: int, record: dict) -> dict:
    """A verified log record as replication ships it (``sync``/``rep``)."""
    return {
        "job": record["job"],
        "result": record.get("result"),
        "offset": end_offset,
    }


class StoreDaemon:
    """Thread-per-connection server over one :class:`JsonlQueryStore`.

    Torn-write recovery and record verification are inherited from the
    store's :class:`~repro.campaigns.store.Log`: a daemon killed
    mid-append leaves a torn final line that the restart scan skips
    (its job recomputes and is re-put), and the next append starts on
    a fresh line.  ``put`` deduplicates by job hash, so recomputations
    racing across front-ends leave exactly one line per hash.
    """

    def __init__(
        self,
        directory: str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replica_of: str | None = None,
        ack_mode: str = "local",
        fsync: FsyncPolicy | str | None = None,
        max_connections: int = 256,
        idle_timeout_s: float | None = 60.0,
        replication_timeout_s: float = 2.0,
    ) -> None:
        if ack_mode not in ("local", "replicated"):
            raise ValueError(
                f"ack_mode must be 'local' or 'replicated', got {ack_mode!r}"
            )
        if max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1, got {max_connections}"
            )
        self.store = JsonlQueryStore(directory, fsync=fsync)
        self.host = host
        self.port = port
        self.replica_of = replica_of
        self.role = "backup" if replica_of else "primary"
        self.ack_mode = ack_mode
        self.max_connections = max_connections
        self.idle_timeout_s = idle_timeout_s
        self.replication_timeout_s = replication_timeout_s
        self.failover_generation = 0
        #: Stable identity of this daemon's append-only log, persisted
        #: next to it: a replica resuming against a *different* log
        #: (wiped directory, role swap) detects the mismatch and
        #: resyncs from offset zero instead of silently diverging.
        self.log_id = self._load_log_id()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._replication_thread: threading.Thread | None = None
        self._rep_sock: socket.socket | None = None
        self._stopping = threading.Event()
        self._conn_lock = threading.Lock()
        self._conns: set[socket.socket] = set()
        #: Serialises put-and-read-offset so a replicated ack waits on
        #: exactly the offset its record committed at.
        self._put_lock = threading.Lock()
        #: Signalled on every stored put: wakes stream senders.
        self._log_cond = threading.Condition()
        #: Attached replicas: id(conn) -> {"acked": offset, "peer": str}.
        self._replicas: dict[int, dict] = {}
        self._ack_cond = threading.Condition()
        #: Backup-side view of the replication link.
        self.replica_connected = False
        self.replica_offset = 0
        #: Counters served by the ``stats`` op (and aggregated into the
        #: cluster's ``per_shard`` stats block).
        self.gets = 0
        self.hits = 0
        self.puts = 0
        self.dedups = 0
        self.rejected_puts = 0
        self.connections = 0
        self.protocol_errors = 0
        self.shed_connections = 0
        self.idle_timeouts = 0
        self.ack_downgrades = 0
        self._counter_lock = threading.Lock()

    def _load_log_id(self) -> str:
        path = self.store.directory / "log_id"
        try:
            existing = path.read_text(encoding="utf-8").strip()
            if existing:
                return existing
        except OSError:
            pass
        fresh = uuid.uuid4().hex
        try:
            path.write_text(fresh + "\n", encoding="utf-8")
        except OSError:
            pass  # read-only filesystem: identity is per-process then
        return fresh

    # -- lifecycle -----------------------------------------------------

    def bind(self) -> "StoreDaemon":
        """Bind and listen; resolves an ephemeral ``port=0`` request."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(128)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        return self

    def start(self) -> "StoreDaemon":
        """Bind (if needed) and serve on a background accept thread."""
        if self._listener is None:
            self.bind()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="stored-accept", daemon=True
        )
        self._accept_thread.start()
        if self.role == "backup":
            self._replication_thread = threading.Thread(
                target=self._replication_loop,
                name="stored-replica",
                daemon=True,
            )
            self._replication_thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting and drop every open connection.

        ``shutdown`` before ``close`` on every socket: a bare ``close``
        does not wake a thread blocked in ``accept``/``recv`` on Linux
        (the in-flight syscall keeps the kernel socket alive), which
        would leave the daemon silently serving after "stopping".
        """
        self._stopping.set()
        with self._log_cond:
            self._log_cond.notify_all()  # release stream senders
        rep_sock = self._rep_sock
        if rep_sock is not None:
            for call in (
                lambda: rep_sock.shutdown(socket.SHUT_RDWR),
                rep_sock.close,
            ):
                try:
                    call()
                except OSError:
                    pass
        if self._listener is not None:
            for call in (
                lambda: self._listener.shutdown(socket.SHUT_RDWR),
                self._listener.close,
            ):
                try:
                    call()
                except OSError:
                    pass
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            for call in (
                lambda c=conn: c.shutdown(socket.SHUT_RDWR),
                conn.close,
            ):
                try:
                    call()
                except OSError:
                    pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)

    def __enter__(self) -> "StoreDaemon":
        """Context-manager support: started daemon in, stopped out."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop the daemon on context exit."""
        self.stop()

    # -- serving -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed: shutting down
            with self._conn_lock:
                over_limit = len(self._conns) >= self.max_connections
                if not over_limit:
                    self._conns.add(conn)
            if over_limit:
                # Polite shed: one error frame, then close.  The cap
                # bounds the thread-per-connection model so a client
                # pileup cannot exhaust fds or threads.
                with self._counter_lock:
                    self.shed_connections += 1
                try:
                    write_frame(conn, {
                        "ok": False,
                        "error": "store daemon at connection capacity",
                        "shed": True,
                    })
                except OSError:
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            with self._counter_lock:
                self.connections += 1
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="stored-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        if self.idle_timeout_s is not None:
            try:
                conn.settimeout(self.idle_timeout_s)
            except OSError:
                pass
        try:
            while True:
                try:
                    request = read_frame(conn)
                except socket.timeout:
                    # No frame within the idle window: reclaim the
                    # thread; a live client simply reconnects.
                    with self._counter_lock:
                        self.idle_timeouts += 1
                    return
                except StoreProtocolError:
                    with self._counter_lock:
                        self.protocol_errors += 1
                    return  # drop the connection; the daemon lives on
                if request is None:
                    return
                if request.get("op") == "stream":
                    # Takes over the connection: it becomes a
                    # replication feed instead of request/response.
                    self._handle_stream(conn, request)
                    return
                write_frame(conn, self._dispatch(request))
        except OSError:
            pass  # peer vanished mid-exchange
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "get":
            job_id = request.get("job")
            if not isinstance(job_id, str):
                return {"ok": False, "error": "get needs a 'job' string"}
            value = self.store.get(job_id, _MISS)
            with self._counter_lock:
                self.gets += 1
                if value is not _MISS:
                    self.hits += 1
            if value is _MISS:
                return {"ok": True, "found": False}
            return {"ok": True, "found": True, "result": value}
        if op == "put":
            job_id = request.get("job")
            if not isinstance(job_id, str):
                return {"ok": False, "error": "put needs a 'job' string"}
            if self.role != "primary":
                # A backup never takes writes: the front-end redirects
                # to the primary (or buffers until a promotion).
                with self._counter_lock:
                    self.rejected_puts += 1
                return {
                    "ok": False,
                    "error": "backup replica does not accept puts",
                    "not_primary": True,
                }
            with self._put_lock:
                _value, stored = self.store.put_if_absent(
                    job_id, request.get("result")
                )
                end_offset = self.store.end_offset
            with self._counter_lock:
                self.puts += 1
                if not stored:
                    self.dedups += 1
            replicated = False
            if stored:
                with self._log_cond:
                    self._log_cond.notify_all()
                if self.ack_mode == "replicated":
                    outcome = self._wait_replicated(end_offset)
                    replicated = bool(outcome)
                    if outcome is False:
                        with self._counter_lock:
                            self.ack_downgrades += 1
            return {"ok": True, "stored": stored, "replicated": replicated}
        if op == "sync":
            # One-shot catch-up batch: the poll-based sibling of
            # ``stream``, used by tools and tests.
            offset = self._resume_offset(request)
            records, next_offset, more = self.store.read_from(offset, 256)
            return {
                "ok": True,
                "log_id": self.log_id,
                "records": [_shipped(end, rec) for end, rec in records],
                "offset": next_offset,
                "more": more,
            }
        if op == "promote":
            return self._promote(request)
        if op == "stats":
            with self._ack_cond:
                replicas = [dict(r) for r in self._replicas.values()]
            end_offset = self.store.end_offset
            min_acked = min(
                (r["acked"] for r in replicas), default=end_offset
            )
            with self._counter_lock:
                return {
                    "ok": True,
                    "entries": len(self.store),
                    "gets": self.gets,
                    "hits": self.hits,
                    "puts": self.puts,
                    "dedups": self.dedups,
                    "rejected_puts": self.rejected_puts,
                    "connections": self.connections,
                    "protocol_errors": self.protocol_errors,
                    "shed_connections": self.shed_connections,
                    "idle_timeouts": self.idle_timeouts,
                    "directory": str(self.store.directory),
                    "role": self.role,
                    "ack_mode": self.ack_mode,
                    "failover_generation": self.failover_generation,
                    "log_id": self.log_id,
                    "durability": self.store.durability_stats(),
                    "replication": {
                        "replicas": len(replicas),
                        "end_offset": end_offset,
                        "min_acked_offset": min_acked,
                        "lag_bytes": max(0, end_offset - min_acked),
                        "ack_downgrades": self.ack_downgrades,
                        "connected_to_primary": self.replica_connected,
                        "applied_offset": self.replica_offset,
                        "replica_of": self.replica_of,
                    },
                }
        if op == "ping":
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- replication: primary side -------------------------------------

    def _resume_offset(self, request: dict) -> int:
        """Where a subscriber may resume: its offset when it has been
        following *this* log and is not ahead of it, else zero."""
        offset = request.get("offset")
        if (
            request.get("log_id") == self.log_id
            and isinstance(offset, int)
            and 0 <= offset <= self.store.end_offset
        ):
            return offset
        return 0

    def _handle_stream(self, conn: socket.socket, request: dict) -> None:
        """Serve one replication subscriber until it disconnects.

        The connection thread becomes the ack reader; a dedicated
        sender thread pushes ``rep`` frames as the log grows.
        """
        if self.role != "primary":
            write_frame(conn, {
                "ok": False,
                "error": "only a primary streams its log",
                "not_primary": True,
            })
            return
        start = self._resume_offset(request)
        try:
            conn.settimeout(None)  # a healthy feed is often idle
        except OSError:
            pass
        peer = "?"
        try:
            peer = "%s:%s" % conn.getpeername()[:2]
        except OSError:
            pass
        write_frame(conn, {"ok": True, "log_id": self.log_id, "offset": start})
        key = id(conn)
        with self._ack_cond:
            self._replicas[key] = {"acked": start, "peer": peer}
        stop = threading.Event()
        sender = threading.Thread(
            target=self._stream_sender,
            args=(conn, start, stop),
            name="stored-stream",
            daemon=True,
        )
        sender.start()
        try:
            while True:
                frame = read_frame(conn)
                if frame is None:
                    return
                if frame.get("op") == "ack" and isinstance(
                    frame.get("offset"), int
                ):
                    with self._ack_cond:
                        self._replicas[key]["acked"] = frame["offset"]
                        self._ack_cond.notify_all()
        except (OSError, StoreProtocolError):
            pass
        finally:
            stop.set()
            with self._log_cond:
                self._log_cond.notify_all()  # wake the sender to exit
            with self._ack_cond:
                self._replicas.pop(key, None)
                self._ack_cond.notify_all()  # waiters re-check membership

    def _stream_sender(
        self, conn: socket.socket, offset: int, stop: threading.Event
    ) -> None:
        try:
            while not (stop.is_set() or self._stopping.is_set()):
                records, offset, _more = self.store.read_from(offset, 256)
                if not records:
                    with self._log_cond:
                        self._log_cond.wait(timeout=0.5)
                    continue
                for end, record in records:
                    write_frame(conn, {"op": "rep", **_shipped(end, record)})
        except OSError:
            pass  # subscriber went away; the ack reader cleans up

    def _wait_replicated(self, target_offset: int) -> bool | None:
        """Block until a replica acked past ``target_offset``.

        ``True`` — replicated; ``False`` — replica(s) attached but the
        timeout passed (caller downgrades the ack); ``None`` — no
        replica attached at all (a lone primary acks locally, otherwise
        a failover window would refuse every write).
        """
        deadline = time.monotonic() + self.replication_timeout_s
        with self._ack_cond:
            while True:
                if not self._replicas:
                    return None
                if any(
                    entry["acked"] >= target_offset
                    for entry in self._replicas.values()
                ):
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._ack_cond.wait(remaining)

    # -- replication: backup side --------------------------------------

    def _promote(self, request: dict) -> dict:
        """Flip this daemon into a write-accepting primary."""
        was = self.role
        if was != "primary":
            self.role = "primary"
            generation = request.get("generation")
            self.failover_generation = (
                generation
                if isinstance(generation, int)
                else self.failover_generation + 1
            )
            rep_sock = self._rep_sock
            if rep_sock is not None:
                for call in (
                    lambda: rep_sock.shutdown(socket.SHUT_RDWR),
                    rep_sock.close,
                ):
                    try:
                        call()
                    except OSError:
                        pass
        return {
            "ok": True,
            "role": self.role,
            "was": was,
            "generation": self.failover_generation,
        }

    @property
    def _replica_state_path(self) -> Path:
        return self.store.directory / "replica_state.json"

    def _load_replica_state(self) -> dict:
        try:
            state = json.loads(
                self._replica_state_path.read_text(encoding="utf-8")
            )
            if isinstance(state, dict):
                return state
        except (OSError, json.JSONDecodeError):
            pass
        return {}

    def _save_replica_state(self, log_id: str, offset: int) -> None:
        # tmp + rename: a crash mid-save leaves the previous state, and
        # resuming from a *stale* offset only re-applies records that
        # ``put_if_absent`` dedupes anyway.
        path = self._replica_state_path
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(
                json.dumps({"log_id": log_id, "offset": offset}) + "\n",
                encoding="utf-8",
            )
            os.replace(tmp, path)
        except OSError:
            pass

    def _replication_loop(self) -> None:
        """Backup main loop: subscribe, apply, ack; reconnect forever."""
        host, _, port_text = self.replica_of.rpartition(":")
        primary = (host, int(port_text))
        while not self._stopping.is_set() and self.role == "backup":
            sock = None
            try:
                sock = socket.create_connection(primary, timeout=2.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(None)
                self._rep_sock = sock
                state = self._load_replica_state()
                write_frame(sock, {
                    "op": "stream",
                    "log_id": state.get("log_id"),
                    "offset": state.get("offset", 0),
                })
                header = read_frame(sock)
                if not header or not header.get("ok"):
                    raise ConnectionError("primary refused the stream")
                log_id = header["log_id"]
                offset = header["offset"]
                self.replica_connected = True
                self.replica_offset = offset
                while not self._stopping.is_set() and self.role == "backup":
                    frame = read_frame(sock)
                    if frame is None:
                        break
                    if frame.get("op") != "rep":
                        continue
                    with self._put_lock:
                        self.store.put_if_absent(
                            frame["job"], frame.get("result")
                        )
                    offset = frame.get("offset", offset)
                    self.replica_offset = offset
                    self._save_replica_state(log_id, offset)
                    write_frame(sock, {"op": "ack", "offset": offset})
            except (OSError, StoreProtocolError, KeyError, ValueError):
                pass
            finally:
                self.replica_connected = False
                if sock is not None:
                    try:
                        sock.close()
                    except OSError:
                        pass
                self._rep_sock = None
            if not self._stopping.is_set() and self.role == "backup":
                self._stopping.wait(0.2)


# ----------------------------------------------------------------------
# client


class StoreClient:
    """One blocking, thread-safe connection to one store daemon.

    Every request reconnects once on a stale or dropped socket before
    giving up with :class:`StoreUnavailable` — a daemon restart costs
    callers one failed round trip at most.
    """

    def __init__(
        self,
        address: str,
        *,
        timeout: float = 10.0,
        connect_timeout: float = 2.0,
    ) -> None:
        host, _, port_text = address.rpartition(":")
        try:
            self.host, self.port = host, int(port_text)
        except ValueError:
            raise ValueError(
                f"store address must be 'host:port', got {address!r}"
            ) from None
        if not self.host:
            raise ValueError(
                f"store address must be 'host:port', got {address!r}"
            )
        self.address = address
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def request(self, doc: dict) -> dict:
        """One framed round trip (raises :class:`StoreUnavailable`)."""
        with self._lock:
            for attempt in (1, 2):
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    write_frame(self._sock, doc)
                    reply = read_frame(self._sock)
                    if reply is None:
                        raise ConnectionError("daemon closed the connection")
                    return reply
                except (OSError, StoreProtocolError) as exc:
                    self._close_locked()
                    if attempt == 2:
                        raise StoreUnavailable(
                            f"store daemon {self.address}: "
                            f"{type(exc).__name__}: {exc}"
                        ) from None
        raise AssertionError("unreachable")

    def _close_locked(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        """Drop the connection (reopened by the next request)."""
        with self._lock:
            self._close_locked()


class RemoteStore:
    """Sharded store client with the :class:`JsonlQueryStore` interface.

    Plugs into :class:`~repro.serve.cache.ServeCache` as the backing
    store of a cluster front-end:

    * job ids are consistent-hashed over the shard *address groups*, so
      every front-end agrees which shard owns which result.  An address
      may be a replica group ``"primary,backup"``: the group is one
      ring node, and requests walk its members — on a dead or demoted
      member the client redirects to the sibling and remembers it
      (``failovers`` counter), so a promoted backup takes over without
      reconfiguration;
    * a whole-group outage **degrades**: ``get`` reports a miss (the
      service recomputes — correct, just slower) and ``put`` buffers
      the result (bounded) to flush once a member answers again, so a
      bounced daemon loses no results and clients see no errors;
    * the daemon deduplicates on put, so outage-window recomputations
      never duplicate store lines.
    """

    persistent = True

    def __init__(
        self,
        addresses: Sequence[str],
        *,
        timeout: float = 10.0,
        connect_timeout: float = 2.0,
        max_buffered_puts: int = 256,
    ) -> None:
        if not addresses:
            raise ValueError("RemoteStore needs at least one shard address")
        #: group string -> member clients, in configured order
        #: (primary first by convention).
        self._groups: dict[str, list[StoreClient]] = {}
        for group in addresses:
            members = [part for part in group.split(",") if part]
            if not members:
                raise ValueError(f"empty shard address group {group!r}")
            self._groups[group] = [
                StoreClient(
                    member, timeout=timeout, connect_timeout=connect_timeout
                )
                for member in members
            ]
        self._ring = HashRing(list(self._groups))
        #: group -> index of the member currently believed writable.
        self._active: dict[str, int] = {group: 0 for group in self._groups}
        self._max_buffered = max_buffered_puts
        self._buffer_lock = threading.Lock()
        #: job id -> normalised result awaiting a live shard.
        self._buffered: dict[str, Any] = {}
        #: Counters merged into ``GET /stats`` via ``ServeCache.stats``.
        self.remote_errors = 0
        self.buffered_puts = 0
        self.flushed_puts = 0
        self.dropped_puts = 0
        self.failovers = 0

    def shard_for(self, job_id: str) -> str:
        """The shard group owning one job hash (ring lookup)."""
        return self._ring.node_for(job_id)

    @property
    def addresses(self) -> tuple[str, ...]:
        """The configured shard address groups."""
        return tuple(self._groups)

    def _group_request(
        self, group: str, doc: dict, *, need_primary: bool
    ) -> dict | None:
        """One request against a group, walking members on failure.

        Starts at the member last known good, redirects on an
        unreachable member — and, for writes, on a ``not_primary``
        refusal — and pins the member that answered.  ``None`` when no
        member could serve the request.
        """
        members = self._groups[group]
        start = self._active.get(group, 0) % len(members)
        for step in range(len(members)):
            index = (start + step) % len(members)
            try:
                reply = members[index].request(doc)
            except StoreUnavailable:
                self.remote_errors += 1
                continue
            if need_primary and reply.get("not_primary"):
                continue  # a backup: try the sibling for the write
            if index != start:
                self._active[group] = index
                self.failovers += 1
            return reply
        return None

    def get(self, job_id: str, default: Any = None) -> Any:
        """One shard lookup; an unreachable group reports a miss.

        Reads are served by *any* member — a backup replica answers
        during a failover window, so a killed primary costs zero
        recomputation for already-committed results.
        """
        self._flush_buffered()
        reply = self._group_request(
            self.shard_for(job_id),
            {"op": "get", "job": job_id},
            need_primary=False,
        )
        if reply is None:
            return default
        if not reply.get("ok"):
            self.remote_errors += 1
            return default
        return reply["result"] if reply.get("found") else default

    def put(self, job_id: str, result: Any) -> Any:
        """Write one result through; buffer it when the shard is down."""
        normalised = jsonable(result)
        self._flush_buffered()
        if not self._send_put(job_id, normalised):
            with self._buffer_lock:
                if job_id not in self._buffered:
                    if len(self._buffered) >= self._max_buffered:
                        # Drop the oldest: recomputation rebuilds it.
                        self._buffered.pop(next(iter(self._buffered)))
                        self.dropped_puts += 1
                    self._buffered[job_id] = normalised
                    self.buffered_puts += 1
        return normalised

    def _send_put(self, job_id: str, normalised: Any) -> bool:
        reply = self._group_request(
            self.shard_for(job_id),
            {"op": "put", "job": job_id, "result": normalised},
            need_primary=True,
        )
        return bool(reply and reply.get("ok"))

    def _flush_buffered(self) -> None:
        """Retry buffered puts (called before every get/put)."""
        if not self._buffered:
            return
        with self._buffer_lock:
            pending = list(self._buffered.items())
        for job_id, normalised in pending:
            if self._send_put(job_id, normalised):
                with self._buffer_lock:
                    if self._buffered.pop(job_id, _MISS) is not _MISS:
                        self.flushed_puts += 1
            else:
                return  # shard still down; keep the rest buffered

    def shard_stats(self) -> dict[str, dict]:
        """Per-member daemon counters (unreachable members report so)."""
        stats: dict[str, dict] = {}
        for members in self._groups.values():
            for client in members:
                try:
                    reply = client.request({"op": "stats"})
                except StoreUnavailable:
                    stats[client.address] = {"reachable": False}
                    continue
                reply.pop("ok", None)
                stats[client.address] = {"reachable": True, **reply}
        return stats

    def stats(self) -> dict:
        """Client-side counters for ``GET /stats``."""
        with self._buffer_lock:
            buffered_now = len(self._buffered)
        return {
            "shards": len(self._groups),
            "remote_errors": self.remote_errors,
            "buffered_puts": self.buffered_puts,
            "flushed_puts": self.flushed_puts,
            "dropped_puts": self.dropped_puts,
            "buffered_now": buffered_now,
            "failovers": self.failovers,
        }

    def close(self) -> None:
        """Drop every member connection."""
        for members in self._groups.values():
            for client in members:
                client.close()


# ----------------------------------------------------------------------
# standalone entry point


def run_stored(
    directory: str | Path,
    host: str = "127.0.0.1",
    port: int = 8178,
    *,
    replica_of: str | None = None,
    ack_mode: str = "local",
    fsync: str = "none",
    max_connections: int = 256,
    idle_timeout_s: float | None = 60.0,
) -> int:
    """Blocking entry point of ``python -m repro stored``."""
    import signal

    daemon = StoreDaemon(
        directory,
        host,
        port,
        replica_of=replica_of,
        ack_mode=ack_mode,
        fsync=fsync,
        max_connections=max_connections,
        idle_timeout_s=idle_timeout_s,
    )
    try:
        daemon.bind()
    except OSError as exc:
        print(
            f"stored: cannot listen on {host}:{port}: {exc}", file=sys.stderr
        )
        return 2
    stopped = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: stopped.set())
        except ValueError:
            pass  # not the main thread (embedded use)
    daemon.start()
    role = daemon.role
    print(
        f"repro-stored ({role}) serving {daemon.store.directory} on "
        f"{daemon.host}:{daemon.port}",
        file=sys.stderr,
    )
    try:
        stopped.wait()
    except KeyboardInterrupt:
        pass
    print("repro-stored: shutting down", file=sys.stderr)
    daemon.stop()
    return 0

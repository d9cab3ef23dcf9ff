"""Primary/backup replication of the store tier, pinned at unit level.

The chaos scenario ``store_failover`` proves the end-to-end promise
(SIGKILLed primary, zero acked results lost); these tests pin the
mechanisms underneath it: the backup tails the primary's append-only
log and applies every record, a reconnect resumes from its persisted
``(log_id, offset)`` — and resyncs from zero when the log identity
changed; ``ack_mode="replicated"`` makes a put ack *mean* the record
is on the backup (with an observable downgrade when the replica
stalls); ``promote`` flips a backup into a write-accepting primary;
:class:`RemoteStore` address groups redirect reads and writes across
a member's death without client-visible errors; and the connection
hygiene knobs (``max_connections`` shed, idle timeout) bound the
thread-per-connection daemon.
"""

import json
import socket
import time

import pytest

from repro.campaigns.store import StoreCorruptionWarning
from repro.serve.cache import JsonlQueryStore
from repro.serve.stored import (
    RemoteStore,
    StoreClient,
    StoreDaemon,
    read_frame,
    write_frame,
)


def wait_for(predicate, timeout=5.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(message)


def make_pair(tmp_path, **primary_kwargs):
    primary = StoreDaemon(tmp_path / "primary", **primary_kwargs).start()
    backup = StoreDaemon(
        tmp_path / "backup",
        replica_of=f"{primary.host}:{primary.port}",
    ).start()
    wait_for(
        lambda: backup.replica_connected, message="backup never attached"
    )
    return primary, backup


def caught_up(primary, backup):
    return backup.store.end_offset >= primary.store.end_offset


def flip_bound(path, old, new):
    """Rewrite one stored bound in place: same length, still valid
    JSON, so only the record's CRC can tell."""
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))


@pytest.fixture
def pair(tmp_path):
    primary, backup = make_pair(tmp_path)
    yield primary, backup
    primary.stop()
    backup.stop()


class TestBackupTailing:
    def test_backup_applies_every_put(self, pair):
        primary, backup = pair
        client = StoreClient(f"{primary.host}:{primary.port}")
        for i in range(20):
            client.request({"op": "put", "job": f"j{i}", "result": i})
        wait_for(lambda: caught_up(primary, backup),
                 message="backup never caught up")
        for i in range(20):
            assert backup.store.get(f"j{i}") == i

        stats = client.request({"op": "stats"})["replication"]
        assert stats["replicas"] == 1
        wait_for(lambda: client.request(
            {"op": "stats"})["replication"]["lag_bytes"] == 0)
        backup_stats = StoreClient(f"{backup.host}:{backup.port}").request(
            {"op": "stats"}
        )
        assert backup_stats["role"] == "backup"
        assert backup_stats["replication"]["connected_to_primary"] is True
        assert backup_stats["replication"]["applied_offset"] == \
            primary.store.end_offset
        client.close()

    def test_restarted_backup_resumes_without_duplicates(self, tmp_path):
        primary, backup = make_pair(tmp_path)
        client = StoreClient(f"{primary.host}:{primary.port}")
        try:
            for i in range(5):
                client.request({"op": "put", "job": f"a{i}", "result": i})
            wait_for(lambda: caught_up(primary, backup))
            backup.stop()
            for i in range(5):
                client.request({"op": "put", "job": f"b{i}", "result": i})

            revived = StoreDaemon(
                tmp_path / "backup",
                replica_of=f"{primary.host}:{primary.port}",
            ).start()
            try:
                wait_for(lambda: caught_up(primary, revived))
                lines = revived.store.path.read_text().strip().splitlines()
                hashes = [json.loads(line)["job"] for line in lines]
                # Exactly one line per record: the resume offset spared
                # the already-applied prefix (and dedupe backstops it).
                assert sorted(hashes) == sorted(set(hashes))
                assert len(hashes) == 10
            finally:
                revived.stop()
        finally:
            client.close()
            primary.stop()

    def test_corrupt_record_is_never_shipped(self, tmp_path):
        seed = JsonlQueryStore(tmp_path / "primary")
        for i in range(3):
            seed.put(f"j{i}", {"bound": 348 + i})
        flip_bound(seed.path, b'"bound":349', b'"bound":359')
        with pytest.warns(StoreCorruptionWarning, match="crc-mismatch"):
            primary = StoreDaemon(tmp_path / "primary").start()
        client = StoreClient(f"{primary.host}:{primary.port}")
        backup = None
        try:
            synced = client.request({"op": "sync", "offset": 0})
            assert [r["job"] for r in synced["records"]] == ["j0", "j2"]
            assert synced["offset"] == primary.store.end_offset

            backup = StoreDaemon(
                tmp_path / "backup",
                replica_of=f"{primary.host}:{primary.port}",
            ).start()
            wait_for(lambda: backup.store.get("j2") == {"bound": 350})
            assert backup.store.get("j1") is None
            # The backup's resync from zero met the quarantined record
            # again; the primary counted it once, at its start-up scan.
            assert primary.store.corrupt_records == 1

            client.request(
                {"op": "put", "job": "j1", "result": {"bound": 349}}
            )
            wait_for(lambda: backup.store.get("j1") == {"bound": 349})
        finally:
            client.close()
            if backup is not None:
                backup.stop()
            primary.stop()

    def test_new_log_identity_triggers_full_resync(self, tmp_path):
        primary, backup = make_pair(tmp_path)
        client = StoreClient(f"{primary.host}:{primary.port}")
        for i in range(2):
            client.request({"op": "put", "job": f"old{i}", "result": i})
        wait_for(lambda: caught_up(primary, backup))
        client.close()
        backup.stop()
        primary.stop()

        # A *different* primary (fresh directory, fresh log_id) on the
        # backup's recorded address role: the stale (log_id, offset)
        # must not be trusted against the new log.
        replacement = StoreDaemon(tmp_path / "replacement").start()
        client = StoreClient(f"{replacement.host}:{replacement.port}")
        try:
            client.request({"op": "put", "job": "new0", "result": "n"})
            revived = StoreDaemon(
                tmp_path / "backup",
                replica_of=f"{replacement.host}:{replacement.port}",
            ).start()
            try:
                wait_for(lambda: revived.store.get("new0") == "n")
                # Old records survive (append-only), new log applied.
                assert revived.store.get("old0") == 0
                state = json.loads(
                    (tmp_path / "backup" / "replica_state.json").read_text()
                )
                assert state["log_id"] == replacement.log_id
            finally:
                revived.stop()
        finally:
            client.close()
            replacement.stop()


class TestSyncOp:
    def test_sync_batches_and_resumes_from_offset(self, tmp_path):
        with StoreDaemon(tmp_path / "s") as daemon:
            client = StoreClient(f"{daemon.host}:{daemon.port}")
            for i in range(5):
                client.request({"op": "put", "job": f"j{i}", "result": i})
            first = client.request({"op": "sync", "offset": 0})
            assert first["ok"] and not first["more"]
            assert [r["job"] for r in first["records"]] == \
                [f"j{i}" for i in range(5)]

            for i in range(5, 7):
                client.request({"op": "put", "job": f"j{i}", "result": i})
            resumed = client.request({
                "op": "sync",
                "log_id": first["log_id"],
                "offset": first["offset"],
            })
            assert [r["job"] for r in resumed["records"]] == ["j5", "j6"]
            client.close()

    def test_record_rotting_while_open_is_skipped(self, tmp_path):
        with StoreDaemon(tmp_path / "s") as daemon:
            client = StoreClient(f"{daemon.host}:{daemon.port}")
            for i in range(3):
                client.request(
                    {"op": "put", "job": f"j{i}", "result": 348 + i}
                )
            flip_bound(daemon.store.path, b'"result":349', b'"result":359')
            with pytest.warns(StoreCorruptionWarning, match="crc-mismatch"):
                reply = client.request({"op": "sync", "offset": 0})
            assert [r["job"] for r in reply["records"]] == ["j0", "j2"]
            # The get path meets the same record: a miss, not a recount.
            assert client.request({"op": "get", "job": "j1"}) == \
                {"ok": True, "found": False}
            assert daemon.store.corrupt_records == 1
            put = client.request({"op": "put", "job": "j1", "result": 349})
            assert put["stored"] is True
            assert client.request({"op": "get", "job": "j1"})["result"] == 349
            client.close()

    def test_wrong_log_id_restarts_from_zero(self, tmp_path):
        with StoreDaemon(tmp_path / "s") as daemon:
            client = StoreClient(f"{daemon.host}:{daemon.port}")
            client.request({"op": "put", "job": "j", "result": 1})
            end = daemon.store.end_offset
            reply = client.request({
                "op": "sync", "log_id": "not-this-log", "offset": end,
            })
            assert [r["job"] for r in reply["records"]] == ["j"]
            client.close()


class TestReplicatedAcks:
    def test_lone_primary_acks_locally(self, tmp_path):
        with StoreDaemon(tmp_path / "s", ack_mode="replicated") as daemon:
            client = StoreClient(f"{daemon.host}:{daemon.port}")
            reply = client.request({"op": "put", "job": "j", "result": 1})
            # No replica attached: refusing writes would turn every
            # failover window into an outage.
            assert reply == {"ok": True, "stored": True,
                             "replicated": False}
            stats = client.request({"op": "stats"})
            assert stats["replication"]["ack_downgrades"] == 0
            client.close()

    def test_ack_waits_for_the_backup(self, tmp_path):
        primary, backup = make_pair(tmp_path, ack_mode="replicated")
        try:
            client = StoreClient(f"{primary.host}:{primary.port}")
            reply = client.request({"op": "put", "job": "j", "result": 9})
            assert reply == {"ok": True, "stored": True, "replicated": True}
            # The ack itself promised the backup holds the record.
            assert backup.store.get("j") == 9
            client.close()
        finally:
            primary.stop()
            backup.stop()

    def test_stalled_replica_downgrades_the_ack(self, tmp_path):
        with StoreDaemon(
            tmp_path / "s",
            ack_mode="replicated",
            replication_timeout_s=0.2,
        ) as daemon:
            # A subscriber that never acks: stream header in, then mute.
            stalled = socket.create_connection(
                (daemon.host, daemon.port), timeout=5
            )
            try:
                write_frame(stalled, {"op": "stream", "offset": 0})
                header = read_frame(stalled)
                assert header["ok"] and header["offset"] == 0

                client = StoreClient(f"{daemon.host}:{daemon.port}")
                start = time.monotonic()
                reply = client.request(
                    {"op": "put", "job": "j", "result": 1}
                )
                assert time.monotonic() - start >= 0.2
                assert reply == {"ok": True, "stored": True,
                                 "replicated": False}
                stats = client.request({"op": "stats"})["replication"]
                assert stats["ack_downgrades"] == 1
                assert stats["lag_bytes"] > 0
                client.close()
            finally:
                stalled.close()


class TestPromote:
    def test_backup_rejects_writes_until_promoted(self, tmp_path):
        backup = StoreDaemon(
            tmp_path / "b", replica_of="127.0.0.1:1"  # primary is gone
        ).start()
        try:
            client = StoreClient(f"{backup.host}:{backup.port}")
            refused = client.request({"op": "put", "job": "j", "result": 1})
            assert refused["ok"] is False and refused["not_primary"] is True
            assert client.request({"op": "stats"})["rejected_puts"] == 1

            promoted = client.request({"op": "promote"})
            assert promoted == {"ok": True, "role": "primary",
                                "was": "backup", "generation": 1}
            accepted = client.request({"op": "put", "job": "j", "result": 1})
            assert accepted["ok"] is True and accepted["stored"] is True

            again = client.request({"op": "promote", "generation": 7})
            assert again["was"] == "primary"  # idempotent
            assert again["generation"] == 1   # no generation churn
            client.close()
        finally:
            backup.stop()

    def test_supervisor_pins_the_generation(self, tmp_path):
        backup = StoreDaemon(
            tmp_path / "b", replica_of="127.0.0.1:1"
        ).start()
        try:
            client = StoreClient(f"{backup.host}:{backup.port}")
            reply = client.request({"op": "promote", "generation": 4})
            assert reply["generation"] == 4
            assert client.request({"op": "stats"})[
                "failover_generation"] == 4
            client.close()
        finally:
            backup.stop()


class TestRemoteStoreGroups:
    def test_reads_survive_the_primary_dying(self, pair):
        primary, backup = pair
        group = (
            f"{primary.host}:{primary.port},{backup.host}:{backup.port}"
        )
        remote = RemoteStore([group], timeout=1.0, connect_timeout=0.5)
        try:
            remote.put("j", {"v": 1})
            wait_for(lambda: caught_up(primary, backup))
            primary.stop()
            # The backup answers the read: zero recompute window for
            # committed results even before any promotion happens.
            assert remote.get("j") == {"v": 1}
            assert remote.stats()["failovers"] >= 1
        finally:
            remote.close()

    def test_writes_follow_a_promotion(self, pair):
        primary, backup = pair
        group = (
            f"{primary.host}:{primary.port},{backup.host}:{backup.port}"
        )
        remote = RemoteStore([group], timeout=1.0, connect_timeout=0.5)
        try:
            remote.put("before", 1)
            wait_for(lambda: caught_up(primary, backup))
            primary.stop()
            promote = StoreClient(f"{backup.host}:{backup.port}")
            assert promote.request({"op": "promote"})["ok"]
            promote.close()

            assert remote.put("after", 2) == 2
            assert backup.store.get("after") == 2
            assert remote.get("before") == 1
            assert remote.stats()["failovers"] >= 1
        finally:
            remote.close()

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty shard address group"):
            RemoteStore([","])


class TestConnectionHygiene:
    def test_connection_cap_sheds_politely(self, tmp_path):
        with StoreDaemon(tmp_path / "s", max_connections=1) as daemon:
            holder = StoreClient(f"{daemon.host}:{daemon.port}")
            assert holder.request({"op": "ping"})["ok"]  # occupies the cap

            overflow = socket.create_connection(
                (daemon.host, daemon.port), timeout=5
            )
            try:
                shed = read_frame(overflow)
                assert shed["ok"] is False and shed["shed"] is True
            finally:
                overflow.close()
            assert daemon.shed_connections == 1
            # The established connection is unaffected.
            assert holder.request({"op": "ping"})["ok"]
            holder.close()

    def test_idle_connections_are_reclaimed(self, tmp_path):
        with StoreDaemon(tmp_path / "s", idle_timeout_s=0.2) as daemon:
            conn = socket.create_connection(
                (daemon.host, daemon.port), timeout=5
            )
            try:
                write_frame(conn, {"op": "ping"})
                assert read_frame(conn)["ok"]
                # Go quiet: the daemon reclaims the thread and fd.
                assert read_frame(conn) is None  # peer closed on us
            finally:
                conn.close()
            assert daemon.idle_timeouts == 1

"""Record-level integrity: bit-rot is detected, quarantined, healed.

Torn-tail recovery (``test_store_crash.py``) covers a *killed writer*;
these tests cover the other durability threat: bytes that change after
they were committed (bit-rot, a bad disk, a partial overwrite).  The
contract under test, for both JSONL stores:

* every line carries a CRC32 over its canonical payload, so a flipped
  byte inside a record is detected — not just a chopped-off tail;
* a corrupt record is **quarantined** (raw bytes into a ``.corrupt``
  sidecar, deduped by offset) and dropped from the index; the store
  file itself is never rewritten;
* every *other* record keeps working, and only the damaged hashes
  recompute — a resumed campaign reruns exactly the damaged jobs and
  aggregates to a byte-identical result;
* a failed append (``ENOSPC``-shaped ``OSError``) degrades the store
  to read-only instead of crashing the run, observably so.
"""

import base64
import json
import sys
import threading
import time
import warnings

import pytest

from repro.campaigns.engine import run_campaign
from repro.campaigns.faults import faults_spec
from repro.campaigns.store import (
    CORRUPT_SUFFIX,
    FSYNC_MODES,
    FsyncPolicy,
    ResultStore,
    StoreCorruptionWarning,
    StoreWriteWarning,
    quarantined_count,
    record_crc,
    result_line,
    verify_record,
)
from repro.serve.cache import JsonlQueryStore


def flip_digit(path, line_index):
    """Flip one digit inside line ``line_index``; returns its offset.

    XOR 0x01 on an ASCII digit yields another digit, so the line stays
    valid JSON of the same length — the corruption only the checksum
    can catch.
    """
    lines = path.read_bytes().splitlines(keepends=True)
    offset = sum(len(line) for line in lines[:line_index])
    raw = lines[line_index]
    position = max(
        index for index, byte in enumerate(raw[:-1])
        if chr(byte).isdigit()
    )
    lines[line_index] = (
        raw[:position] + bytes([raw[position] ^ 0x01]) + raw[position + 1:]
    )
    path.write_bytes(b"".join(lines))
    return offset, lines[line_index]


def assert_no_corruption_warning(open_store):
    """Run ``open_store`` asserting it stays quarantine-silent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", StoreCorruptionWarning)
        return open_store()


class TestRecordFormat:
    def test_line_carries_matching_crc(self):
        record = json.loads(result_line("j", {"v": 1}))
        assert record["crc"] == record_crc("j", {"v": 1})
        assert verify_record(record)
        record["result"] = {"v": 2}  # one flipped payload bit
        assert not verify_record(record)

    def test_legacy_line_without_crc_accepted(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.path.write_text('{"job": "legacy", "result": 5}\n')
        reopened = assert_no_corruption_warning(
            lambda: ResultStore(tmp_path / "run")
        )
        assert reopened.load() == {"legacy": 5}
        assert reopened.corrupt_records == 0


class TestResultStoreCorruption:
    def test_bitflip_is_quarantined_and_healed_by_recompute(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        for i in range(3):
            store.put(f"j{i}", {"v": i})
        offset, damaged_raw = flip_digit(store.path, 1)

        with pytest.warns(StoreCorruptionWarning, match="crc-mismatch"):
            reopened = ResultStore(tmp_path / "run")
        assert reopened.load() == {"j0": {"v": 0}, "j2": {"v": 2}}
        assert reopened.corrupt_records == 1

        # The sidecar holds the evidence: offset, reason, raw bytes.
        sidecar = store.path.with_name(store.path.name + CORRUPT_SUFFIX)
        assert quarantined_count(store.path) == 1
        entry = json.loads(sidecar.read_text().strip())
        assert entry["offset"] == offset
        assert entry["reason"] == "crc-mismatch"
        assert base64.b64decode(entry["raw"]) == damaged_raw

        # Recompute-and-re-append heals the index; the rescan counts
        # the still-present damaged line but quarantines it only once.
        reopened.put("j1", {"v": 1})
        healed = assert_no_corruption_warning(
            lambda: ResultStore(tmp_path / "run")
        )
        assert healed.load() == {f"j{i}": {"v": i} for i in range(3)}
        assert quarantined_count(store.path) == 1

    def test_unparseable_and_foreign_lines_have_reasons(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put("good", {"v": 1})
        with store.path.open("ab") as handle:
            handle.write(b"###not json###\n")
            handle.write(b'{"x": 1}\n')

        with pytest.warns(StoreCorruptionWarning):
            reopened = ResultStore(tmp_path / "run")
        assert reopened.load() == {"good": {"v": 1}}
        assert reopened.corrupt_records == 2
        sidecar = store.path.with_name(store.path.name + CORRUPT_SUFFIX)
        reasons = {
            json.loads(line)["reason"]
            for line in sidecar.read_text().splitlines()
        }
        assert reasons == {"unparseable", "not-a-record"}

    def test_high_bit_flip_is_quarantined_not_fatal(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        for i in range(3):
            store.put(f"j{i}", {"v": i})
        data = bytearray(store.path.read_bytes())
        data[data.index(b'"j1"') + 1] |= 0x80  # no longer valid UTF-8
        store.path.write_bytes(bytes(data))

        with pytest.warns(StoreCorruptionWarning, match="unparseable"):
            reopened = ResultStore(tmp_path / "run")
        assert reopened.load() == {"j0": {"v": 0}, "j2": {"v": 2}}
        assert reopened.corrupt_records == 1

    def test_truncation_is_a_torn_tail_not_corruption(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put("j1", {"v": 1})
        store.put("j2", {"v": 2})
        store.path.write_bytes(store.path.read_bytes()[:-5])
        # A chopped tail is the signature of a killed writer: silent
        # recovery, no quarantine theatre.
        reopened = assert_no_corruption_warning(
            lambda: ResultStore(tmp_path / "run")
        )
        assert reopened.load() == {"j1": {"v": 1}}
        assert reopened.corrupt_records == 0
        assert quarantined_count(store.path) == 0

    def test_failed_append_degrades_to_read_only(self, tmp_path):
        store = ResultStore(tmp_path / "run")
        store.put("j1", {"v": 1})
        blocked = tmp_path / "run" / "blocked"
        blocked.mkdir()
        store.path = blocked  # opening a directory for append: OSError
        with pytest.warns(StoreWriteWarning, match="read-only"):
            store.put("j2", {"v": 2})
        assert store.read_only and store.write_errors == 1
        # The run keeps going on the in-memory mirror.
        assert store.get("j2") == {"v": 2}
        store.put("j3", {"v": 3})  # read-only: no second attempt/warning
        assert store.write_errors == 1
        assert len(store) == 3


class TestCampaignSurvivesCorruption:
    def test_resume_recomputes_only_the_damaged_job(self, tmp_path):
        entries = [{"key": f"k{i}", "value": i * 11} for i in range(8)]
        spec = faults_spec(entries, name="bitrot")
        baseline = run_campaign(spec)
        run_dir = tmp_path / "run"
        run_campaign(spec, store=run_dir)

        flip_digit(run_dir / "results.jsonl", 2)
        with pytest.warns(StoreCorruptionWarning):
            resumed = run_campaign(spec, store=run_dir)
        assert resumed.stats.jobs_run == 1  # only the damaged hash
        assert resumed.stats.jobs_skipped == len(entries) - 1
        # Byte-identical aggregation: the surviving prefix plus the one
        # recomputation reproduce the undisturbed campaign exactly.
        assert json.dumps(resumed.result, sort_keys=True) == \
            json.dumps(baseline.result, sort_keys=True)


class TestQueryStoreCorruption:
    def test_bitflip_drops_only_the_damaged_hash(self, tmp_path):
        store = JsonlQueryStore(tmp_path / "queries")
        for i in range(5):
            store.put(f"q{i}", {"answer": i})
        flip_digit(store.path, 2)

        with pytest.warns(StoreCorruptionWarning, match="crc-mismatch"):
            reopened = JsonlQueryStore(tmp_path / "queries")
        assert len(reopened) == 4
        assert reopened.get("q2") is None  # the one recompute
        for i in (0, 1, 3, 4):  # offset index rebuilt past the damage
            assert reopened.get(f"q{i}") == {"answer": i}
        stats = reopened.durability_stats()
        assert stats["corrupt_records"] == 1
        assert quarantined_count(store.path) == 1

        reopened.put("q2", {"answer": 2})
        healed = assert_no_corruption_warning(
            lambda: JsonlQueryStore(tmp_path / "queries")
        )
        assert {f"q{i}": healed.get(f"q{i}") for i in range(5)} == {
            f"q{i}": {"answer": i} for i in range(5)
        }

    def test_bitflip_under_an_open_store_reads_as_a_miss(self, tmp_path):
        store = JsonlQueryStore(tmp_path / "queries")
        for i in range(3):
            store.put(f"q{i}", {"answer": i})
        flip_digit(store.path, 1)  # after the start-up scan indexed it

        with pytest.warns(StoreCorruptionWarning, match="crc-mismatch"):
            assert store.get("q1", "miss") == "miss"
        assert "q1" not in store  # dropped from the offset index
        assert store.get("q1", "miss") == "miss"
        assert store.get("q0") == {"answer": 0}
        assert store.get("q2") == {"answer": 2}
        # Counted and kept once, however often the record is met.
        assert store.durability_stats()["corrupt_records"] == 1
        assert quarantined_count(store.path) == 1

        store.put("q1", {"answer": 1})  # the recomputation heals it
        assert store.get("q1") == {"answer": 1}

    def test_concurrent_reads_count_each_damaged_record_once(self, tmp_path):
        store = JsonlQueryStore(tmp_path / "queries")
        for i in range(20):
            store.put(f"q{i}", {"answer": 100 + i})
        damaged = sorted(flip_digit(store.path, i)[0] for i in (3, 7, 11))

        class YieldingSet(set):
            """Gives up the GIL between the seen-before check and its
            answer, so an unguarded check-then-count lets readers race."""

            def __contains__(self, offset):
                seen = super().__contains__(offset)
                time.sleep(0.001)
                return seen

        store._corrupt = YieldingSet()
        errors = []

        def reader(n):
            try:
                for round_ in range(30):
                    store.read_from(0, 64)  # the replication path
                    store.get(f"q{(n + round_) % 20}")  # the lookup path
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def writer():
            for i in range(20, 60):
                store.put(f"q{i}", {"answer": 100 + i})

        threads = [threading.Thread(target=reader, args=(n,))
                   for n in range(6)] + [threading.Thread(target=writer)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StoreCorruptionWarning)
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store.corrupt_records == len(damaged)
        sidecar = store.path.with_name(store.path.name + CORRUPT_SUFFIX)
        assert sorted(
            json.loads(line)["offset"]
            for line in sidecar.read_text().splitlines()
        ) == damaged
        assert len(store) == 60 - len(damaged)

    def test_failed_append_serves_from_overlay(self, tmp_path):
        store = JsonlQueryStore(tmp_path / "queries")
        store.put("q1", {"answer": 1})
        blocked = tmp_path / "queries" / "blocked"
        blocked.mkdir()
        store.path = blocked
        with pytest.warns(StoreWriteWarning, match="read-only"):
            store.put("q2", {"answer": 2})
        assert store.get("q2") == {"answer": 2}
        assert "q2" in store and len(store) == 2
        stats = store.durability_stats()
        assert stats["read_only"] is True
        assert stats["write_errors"] == 1


class TestFsyncPolicy:
    def test_every_mode_round_trips(self, tmp_path):
        for mode in FSYNC_MODES:
            store = ResultStore(tmp_path / mode, fsync=mode)
            assert store.fsync.mode == mode
            store.put("j", {"mode": mode})
            assert ResultStore(tmp_path / mode).load() == {
                "j": {"mode": mode}
            }

    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync mode"):
            ResultStore(tmp_path / "run", fsync="asap")
        with pytest.raises(ValueError):
            FsyncPolicy.coerce("nope")

    def test_sync_frequency_matches_mode(self, tmp_path, monkeypatch):
        import repro.campaigns.store as store_module

        calls = []
        monkeypatch.setattr(
            store_module.os, "fsync", lambda fileno: calls.append(fileno)
        )
        with (tmp_path / "probe").open("w") as handle:
            fileno = handle.fileno()
            for _ in range(10):
                FsyncPolicy("none").sync(fileno)
            assert calls == []
            always = FsyncPolicy("always")
            for _ in range(10):
                always.sync(fileno)
            assert len(calls) == 10
            calls.clear()
            batch = FsyncPolicy("batch", interval_s=3600.0)
            for _ in range(10):
                batch.sync(fileno)
            # One barrier opens the interval; the rest ride the batch.
            assert len(calls) == 1

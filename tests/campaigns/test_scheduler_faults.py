"""The fault-tolerant scheduler tier: retries, quarantine, self-healing.

Every test runs a real campaign through :func:`run_campaign` with
deliberately misbehaving ``fault`` jobs (:mod:`repro.campaigns.faults`)
and asserts the scheduler's recovery machinery — bounded retry with
backoff, poison-job quarantine into ``repro-error/1`` store documents,
per-block timeouts that kill hung workers, and process-pool
self-healing after SIGKILL — leaves behind exactly the artefact an
undisturbed run would have produced (or an honestly partial one).
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.campaigns import scheduler
from repro.campaigns.engine import CampaignError, run_campaign
from repro.campaigns.faults import faults_spec
from repro.campaigns.scheduler import FaultPolicy
from repro.campaigns.store import ResultStore, is_error_result

#: Real backoff shape, test-scale delays.
FAST = dict(backoff_s=0.01, backoff_max_s=0.05)


def ok_jobs(n, prefix="ok"):
    return [{"key": f"{prefix}{i}", "value": i} for i in range(n)]


def expected_values(entries):
    # fail-N entries recover and contribute; permanent faults do not.
    return {e["key"]: e.get("value", e["key"]) for e in entries
            if e.get("mode", "ok") == "ok" or "fail_times" in e}


class TestFaultPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(retries=-1)
        with pytest.raises(ValueError):
            FaultPolicy(job_timeout_s=0)
        with pytest.raises(ValueError):
            FaultPolicy(backoff_s=-0.1)

    def test_backoff_doubles_and_caps(self):
        policy = FaultPolicy(backoff_s=0.1, backoff_max_s=0.35)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(4) == pytest.approx(0.35)  # capped


class TestSerialFaults:
    def test_flaky_job_recovers_within_retry_budget(self, tmp_path):
        entries = [dict(ok_jobs(1)[0], mode="raise", fail_times=2,
                        state_dir=str(tmp_path))] + ok_jobs(2, "sib")
        run = run_campaign(
            faults_spec(entries), faults=FaultPolicy(retries=2, **FAST)
        )
        assert not run.partial
        # The failed multi-job block fell back to per-job execution,
        # then the flaky job burned through its remaining failures.
        assert run.stats.retries >= 1
        assert run.result["values"] == expected_values(entries)

    def test_poison_job_quarantined_siblings_complete(self):
        entries = [{"key": "poison", "mode": "raise"}] + ok_jobs(3)
        run = run_campaign(
            faults_spec(entries), faults=FaultPolicy(retries=1, **FAST)
        )
        assert run.partial
        assert run.stats.jobs_quarantined == 1
        assert run.stats.jobs_run == 3
        [item] = run.quarantine
        assert item.label == "fault poison"
        assert item.error["reason"] == "error"
        assert item.error["attempts"] == 2
        assert "FaultInjected" in item.error["error"]
        # The faults aggregate cannot cope with the hole: honest report.
        assert run.result is None
        assert "PARTIAL" in run.render()
        assert "fault poison" in run.render()

    def test_all_jobs_poisoned_raises_campaign_error(self):
        spec = faults_spec([{"key": "p1", "mode": "raise"},
                            {"key": "p2", "mode": "raise"}])
        with pytest.raises(CampaignError, match="quarantined"):
            run_campaign(spec, faults=FaultPolicy(retries=0, **FAST))

    def test_quarantine_persisted_as_error_document(self, tmp_path):
        entries = [{"key": "poison", "mode": "raise"}] + ok_jobs(2)
        spec = faults_spec(entries)
        run_campaign(spec, store=tmp_path / "run",
                     faults=FaultPolicy(retries=0, **FAST))
        stored = ResultStore(tmp_path / "run").load()
        errors = [doc for doc in stored.values() if is_error_result(doc)]
        assert len(errors) == 1
        assert errors[0]["kind"] == "fault"
        assert errors[0]["reason"] == "error"

    def test_resume_reattempts_quarantined_jobs(self, tmp_path):
        # First run: the job fails its block attempt plus its only solo
        # attempt -> quarantined (fail_times=2 covers both claims).
        entries = [dict(key="flaky", value=7, mode="raise", fail_times=2,
                        state_dir=str(tmp_path / "state"))] + ok_jobs(2)
        spec = faults_spec(entries)
        first = run_campaign(spec, store=tmp_path / "run",
                             faults=FaultPolicy(retries=0, **FAST))
        assert first.partial
        # Second run: error documents do not count as done — the job is
        # re-attempted (attempt 2 > fail_times) while clean siblings
        # resume from the store untouched.
        second = run_campaign(spec, store=tmp_path / "run",
                              faults=FaultPolicy(retries=0, **FAST))
        assert not second.partial
        assert second.stats.jobs_skipped == 2
        assert second.stats.jobs_run == 1
        assert second.result["values"] == expected_values(entries)


class TestPooledFaults:
    def test_failed_block_splits_and_quarantines_only_poison(self):
        entries = ok_jobs(3) + [{"key": "poison", "mode": "raise"}]
        run = run_campaign(
            faults_spec(entries), workers=2,
            faults=FaultPolicy(retries=1, **FAST),
        )
        assert run.stats.jobs_quarantined == 1
        assert run.stats.jobs_run == 3
        assert run.quarantine[0].label == "fault poison"

    def test_sigkilled_worker_pool_self_heals(self, tmp_path):
        entries = [dict(key="bomb", value=0, mode="kill", fail_times=1,
                        state_dir=str(tmp_path))] + ok_jobs(3, "sib")
        run = run_campaign(
            faults_spec(entries), workers=2,
            faults=FaultPolicy(retries=2, **FAST),
        )
        assert not run.partial
        assert run.stats.pool_rebuilds >= 1
        assert run.result["values"] == expected_values(entries)

    def test_repeat_killer_quarantined_as_crash(self, tmp_path):
        entries = [{"key": "bomb", "mode": "kill"}] + ok_jobs(2)
        run = run_campaign(
            faults_spec(entries), workers=2,
            faults=FaultPolicy(retries=1, **FAST),
        )
        assert run.partial
        [item] = run.quarantine
        assert item.error["reason"] == "crash"
        assert run.stats.jobs_run == 2

    def test_hung_block_timed_out_and_retried(self, tmp_path):
        entries = [dict(key="sleepy", value=1, mode="hang", hang_s=30.0,
                        fail_times=1, state_dir=str(tmp_path))
                   ] + ok_jobs(2, "sib")
        run = run_campaign(
            faults_spec(entries), workers=2,
            faults=FaultPolicy(retries=2, job_timeout_s=0.4, **FAST),
        )
        assert not run.partial
        assert run.stats.timeouts >= 1
        assert run.stats.pool_rebuilds >= 1
        assert run.result["values"] == expected_values(entries)

    def test_permanent_hang_quarantined_with_timeout_reason(self):
        entries = [{"key": "sleepy", "mode": "hang", "hang_s": 30.0}]
        entries += ok_jobs(2)
        run = run_campaign(
            faults_spec(entries), workers=2,
            faults=FaultPolicy(retries=0, job_timeout_s=0.3, **FAST),
        )
        assert run.partial
        [item] = run.quarantine
        assert item.error["reason"] == "timeout"
        assert run.stats.jobs_run == 2

    def test_worker_death_before_window_refill_heals(self, monkeypatch):
        # The workers die after ``wait`` returned but before the loop
        # refills its window, so the refill submits to a broken pool.
        # The 200 jobs make 9 blocks against a window of 4, so a refill
        # follows the first return.  That return first takes the whole
        # window: with nothing in flight, no failing future heals the
        # pool before the refill meets it.
        real_wait = scheduler.wait
        killed = []

        def wait_then_kill(*args, **kwargs):
            done, pending = real_wait(*args, **kwargs)
            if done and not killed:
                done, pending = done | real_wait(pending).done, set()
                for child in multiprocessing.active_children():
                    os.kill(child.pid, signal.SIGKILL)
                    killed.append(child.pid)
                time.sleep(0.5)
            return done, pending

        monkeypatch.setattr(scheduler, "wait", wait_then_kill)
        entries = ok_jobs(200)
        run = run_campaign(
            faults_spec(entries), workers=2, faults=FaultPolicy(**FAST)
        )
        assert killed
        assert not run.partial
        assert run.stats.pool_rebuilds >= 1
        # The undisturbed run's values, every job present.
        assert run.result["values"] == expected_values(entries)

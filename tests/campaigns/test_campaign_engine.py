"""The campaign engine: scheduling, dedup, progress and resume semantics."""

import pytest

from repro.campaigns.engine import expand_jobs, run_campaign
from repro.campaigns.store import MemoryStore, ResultStore
from repro.experiments.report import sweep_csv
from repro.experiments.schedulability_sweep import schedulability_spec
from repro.experiments.validation_sweep import validation_spec

SEED = 20180319


def small_spec(name="resume-demo", flow_counts=(40, 60)):
    """8 single-set jobs: 2 points x 4 sets, chunk size 1."""
    return schedulability_spec(
        (4, 4), list(flow_counts), 4, seed=7, chunk_size=1, name=name
    )


class TestExpansion:
    def test_deterministic_job_list(self):
        a = expand_jobs(small_spec())
        b = expand_jobs(small_spec())
        assert [job.job_id for job in a] == [job.job_id for job in b]
        assert len(a) == 8

    def test_heaviest_point_first(self):
        """Jobs list the points by descending flow count (ties keep x
        order) while the aggregation context keeps x order."""
        from repro.campaigns import registry

        spec = schedulability_spec(
            (4, 4), [40, 100, 60, 100], 4, seed=7, chunk_size=2
        )
        plan = registry.get_kind(spec.kind).plan(spec)
        assert [job.params["num_flows"] for job in plan.jobs] == [
            100, 100, 100, 100, 60, 60, 40, 40
        ]
        assert [job.params["set_start"] for job in plan.jobs] == [0, 2] * 4
        assert [
            [job.params["num_flows"] for job in chunks]
            for chunks in plan.context
        ] == [[40, 40], [100, 100], [60, 60], [100, 100]]
        again = registry.get_kind(spec.kind).plan(spec)
        assert [job.job_id for job in again.jobs] == [
            job.job_id for job in plan.jobs
        ]

    def test_duplicate_points_share_content_address(self):
        jobs = expand_jobs(small_spec(flow_counts=(50, 50)))
        assert len(jobs) == 8
        assert len({job.job_id for job in jobs}) == 4

    def test_unknown_kind_rejected(self):
        from repro.campaigns.spec import CampaignSpec

        with pytest.raises(ValueError, match="unknown campaign kind"):
            expand_jobs(CampaignSpec(kind="nope", name="x"))

    def test_json_spec_bad_chunk_size_rejected(self):
        """Hand-written specs can't silently expand to an empty job list."""
        from repro.campaigns.spec import CampaignSpec

        base = dict(small_spec().params)
        for bad in (-1, 0, "two", True):
            base["chunk_size"] = bad
            spec = CampaignSpec(
                kind="schedulability", name="bad-chunk", params=base
            )
            with pytest.raises(ValueError, match="chunk_size"):
                expand_jobs(spec)

    def test_json_spec_missing_param_named_in_error(self):
        from repro.campaigns.spec import CampaignSpec

        params = dict(small_spec().params)
        del params["flow_counts"]
        spec = CampaignSpec(kind="schedulability", name="partial", params=params)
        with pytest.raises(ValueError, match="'flow_counts'"):
            expand_jobs(spec)


class TestScheduling:
    def test_duplicate_jobs_computed_once(self):
        store = MemoryStore()
        run = run_campaign(small_spec(flow_counts=(50, 50)), store=store)
        assert run.stats.jobs_total == 4  # unique content addresses
        assert run.stats.jobs_run == 4
        assert len(store) == 4
        # Both x-axis points still get their (identical) percentages.
        assert run.result.x_values == [50, 50]
        for values in run.result.series.values():
            assert values[0] == values[1]

    def test_parallel_equals_serial(self):
        serial = run_campaign(small_spec())
        parallel = run_campaign(small_spec(), workers=2)
        assert serial.result == parallel.result

    def test_progress_counts_and_eta(self):
        events = []
        run_campaign(small_spec(), progress=events.append)
        assert [event.done for event in events] == list(range(1, 9))
        assert all(event.total == 8 for event in events)
        assert events[-1].eta_s == pytest.approx(0.0)


class TestResume:
    """The satellite requirement: kill after N jobs, re-run, byte-identical."""

    def test_truncated_store_resumes_and_reproduces(self, tmp_path):
        spec = small_spec()
        cold = run_campaign(spec, store=tmp_path / "cold")
        assert (cold.stats.jobs_run, cold.stats.jobs_skipped) == (8, 0)
        cold_csv = sweep_csv(cold.result)

        # A "killed" campaign: keep only the first 3 result lines plus a
        # torn fragment of the 4th.
        warm_dir = tmp_path / "warm"
        run_campaign(spec, store=warm_dir)
        store_path = warm_dir / "results.jsonl"
        lines = store_path.read_text().splitlines(True)
        store_path.write_text("".join(lines[:3]) + lines[3][:10])

        resumed = run_campaign(spec, store=warm_dir)
        assert resumed.stats.jobs_skipped == 3
        assert resumed.stats.jobs_run == 5
        assert resumed.result == cold.result
        assert sweep_csv(resumed.result) == cold_csv

    def test_fully_stored_run_executes_nothing(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, store=tmp_path / "run")
        replay = run_campaign(spec, store=tmp_path / "run")
        assert replay.stats.jobs_run == 0
        assert replay.stats.jobs_skipped == 8
        assert replay.stats.resumed

    def test_resume_emits_skip_event(self, tmp_path):
        spec = small_spec()
        run_campaign(spec, store=tmp_path / "run")
        events = []
        run_campaign(spec, store=tmp_path / "run", progress=events.append)
        assert len(events) == 1
        assert "8 stored jobs skipped" in events[0].label
        assert events[0].skipped == 8

    def test_simulation_campaign_resumes_byte_identically(self, tmp_path):
        spec = validation_spec(
            (2,),
            seed=SEED,
            didactic_offset_step=60,
            synthetic_sets=1,
            synthetic_flows=4,
            chunk_size=1,
        )
        cold = run_campaign(spec, store=tmp_path / "cold")
        assert cold.stats.jobs_run > 2

        warm_dir = tmp_path / "warm"
        run_campaign(spec, store=warm_dir)
        store_path = warm_dir / "results.jsonl"
        lines = store_path.read_text().splitlines(True)
        store_path.write_text("".join(lines[:2]))

        resumed = run_campaign(spec, store=warm_dir)
        assert resumed.stats.jobs_skipped == 2
        assert resumed.stats.jobs_run == cold.stats.jobs_run - 2
        assert resumed.result.rows == cold.result.rows
        assert resumed.result.to_csv() == cold.result.to_csv()

    def test_run_dir_refuses_other_spec(self, tmp_path):
        run_campaign(small_spec(), store=tmp_path / "run")
        other = small_spec(flow_counts=(40, 80))
        with pytest.raises(ValueError, match="different campaign spec"):
            run_campaign(other, store=tmp_path / "run")


class RecordingPool:
    """Executor stub: runs submissions inline, counting them."""

    def __init__(self):
        self.submitted = 0

    def submit(self, fn, *args):
        from concurrent.futures import Future

        self.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future


class TestInjectedPool:
    def test_single_job_still_uses_injected_pool(self):
        """An injected executor handles even one-job runs — callers
        inject a pool precisely to keep work out of their process."""
        from repro.campaigns.registry import Plan, get_kind
        from repro.campaigns.scheduler import Scheduler

        spec = schedulability_spec(
            (4, 4), [40], 1, seed=7, chunk_size=1, name="one-job"
        )
        plan = get_kind(spec.kind).plan(spec)
        assert len(plan.jobs) == 1
        pool = RecordingPool()
        results, stats = Scheduler(pool=pool).run(plan.jobs, MemoryStore())
        assert pool.submitted == 1
        assert stats.jobs_run == 1 and len(results) == 1

    def test_injected_pool_results_match_serial(self):
        spec = small_spec()
        jobs = expand_jobs(spec)
        from repro.campaigns.scheduler import Scheduler

        pool = RecordingPool()
        pooled, _ = Scheduler(pool=pool).run(jobs, MemoryStore())
        serial, _ = Scheduler().run(jobs, MemoryStore())
        assert pooled == serial
        # Same-kind jobs ship as blocks: fewer pickles than jobs, and
        # every job's result still comes back individually.
        assert 1 <= pool.submitted <= len(jobs)
        assert len(pooled) == len(jobs)

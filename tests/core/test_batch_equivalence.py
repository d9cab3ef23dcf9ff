"""Batch-vs-scalar equivalence: the columnar engine against its oracle.

:func:`repro.core.batch.analyze_batch` promises results **byte
identical** to scalar :func:`repro.core.engine.analyze` calls — same
response times, convergence and taint flags and early-exit truncation.
These property-style tests enforce that across randomized platforms,
heterogeneous buffer maps, multi-cycle links, ragged batches, mixed
analyses, repeated rows, timing variants sharing a graph, degenerate
single-flow sets, and the consumers built on top (verdict chains,
chunk/block executors).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import backend as backend_mod
from repro.core import batch as batch_mod
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlw16 import XLW16Analysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.batch import BatchReport, Scenario, analyze_batch, batchable
from repro.core.engine import analyze
from repro.core.interference import InterferenceGraph
from repro.experiments.schedulability_sweep import (
    fig4_specs,
    run_sched_chunk,
    run_sched_chunk_block,
    spec_verdicts,
    spec_verdicts_batch,
)
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D, chain
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows

ANALYSES = [
    SBAnalysis(),
    XLWXAnalysis(),
    IBNAnalysis(),
    IBNAnalysis(upstream_rule="any_upstream"),
    IBNAnalysis(use_buffer_bound=False),
]


@pytest.fixture(
    autouse=True,
    params=backend_mod.available_backend_names(),
    ids=lambda name: f"backend-{name}",
)
def _every_backend(request):
    """Run the whole equivalence suite once per available backend.

    The scalar oracle (:func:`analyze`) never touches backend kernels,
    so each parametrization pits one backend's batch path against the
    same pure-Python reference.
    """
    with backend_mod.use_backend(request.param):
        yield request.param


def _random_flowset(n, seed, *, mesh=(4, 4), buf=2, linkl=1, routl=0,
                    buf_map=None, tag="batch-eq"):
    platform = NoCPlatform(
        Mesh2D(*mesh), buf=buf, linkl=linkl, routl=routl, buf_map=buf_map
    )
    rng = spawn_rng(seed, tag, *mesh, n)
    flows = synthetic_flows(
        SyntheticConfig(num_flows=n), platform.topology.num_nodes, rng
    )
    return FlowSet(platform, flows)


def _assert_results_equal(batch_result, scalar_result):
    assert batch_result.flows == scalar_result.flows
    assert batch_result.complete == scalar_result.complete
    assert batch_result.analysis_name == scalar_result.analysis_name
    assert batch_result.unsafe == scalar_result.unsafe


class TestScenarioEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(3, 60),
        st.integers(0, 10**6),
        st.sampled_from(ANALYSES),
        st.booleans(),
        st.booleans(),
    )
    def test_single_scenario_matches_scalar(self, n, seed, analysis, stop, ee):
        flowset = _random_flowset(n, seed)
        graph = InterferenceGraph(flowset)
        report = BatchReport(1)
        batch = analyze_batch(
            [Scenario(flowset, analysis, graph=graph)],
            stop_at_deadline=stop,
            early_exit=ee,
            report=report,
        )[0]
        cold = analyze(
            flowset, analysis, graph=graph,
            stop_at_deadline=stop, early_exit=ee,
        )
        _assert_results_equal(batch, cold)
        # a batchable scenario never reaches the scalar engine
        assert report.scalar_fallbacks == []

    @settings(max_examples=8, deadline=None)
    @given(st.integers(5, 40), st.integers(0, 10**6))
    def test_ragged_mixed_analysis_batch(self, n, seed):
        """Scenarios of different sizes, platforms and analyses in one
        call — each must equal its own scalar run."""
        scenarios = []
        for index, analysis in enumerate(ANALYSES):
            flowset = _random_flowset(
                3 + (n + 7 * index) % 50, seed + index, tag="ragged"
            )
            scenarios.append(Scenario(flowset, analysis))
        results = analyze_batch(scenarios, early_exit=True)
        for scenario, result in zip(scenarios, results):
            cold = analyze(
                scenario.flowset, scenario.analysis,
                graph=scenario.graph, early_exit=True,
            )
            _assert_results_equal(result, cold)

    def test_multicycle_links_and_heterogeneous_buffers(self):
        """linkl > 1 (non-preemptive blocking) and per-router buf_map
        (per-link Equation 6) both flow through the batch terms."""
        slow = _random_flowset(30, 11, linkl=3, routl=1)
        hetero = _random_flowset(30, 12, buf_map={3: 8, 5: 1, 10: 4})
        for flowset in (slow, hetero):
            for analysis in ANALYSES:
                batch = analyze_batch([Scenario(flowset, analysis)])[0]
                cold = analyze(flowset, analysis)
                _assert_results_equal(batch, cold)

    def test_degenerate_single_and_local_flows(self):
        platform = NoCPlatform(Mesh2D(2, 2), buf=2)
        lone = FlowSet(
            platform, [Flow("a", 1, 100, 10, src=0, dst=3)]
        )
        local = FlowSet(
            platform,
            [
                Flow("a", 1, 100, 10, src=1, dst=1),   # never networked
                Flow("b", 2, 200, 5, src=0, dst=3),
            ],
        )
        for flowset in (lone, local):
            for analysis in (SBAnalysis(), IBNAnalysis()):
                batch = analyze_batch([Scenario(flowset, analysis)])[0]
                _assert_results_equal(batch, analyze(flowset, analysis))

    def test_incompatible_graph_rejected_like_scalar(self):
        a = _random_flowset(10, 1)
        b = _random_flowset(12, 2)
        graph_b = InterferenceGraph(b)
        with pytest.raises(ValueError, match="different flow set"):
            analyze_batch([Scenario(a, SBAnalysis(), graph=graph_b)])


class TestColdStarts:
    """Every row starts its recurrence at C_i, whatever else the batch
    holds."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(10, 60), st.integers(0, 10**6))
    def test_repeated_scenario_rows_are_identical(self, n, seed):
        """A tighter analysis beside two copies of a looser one on one
        graph: each row equals its scalar run and the copies spend the
        same iterations."""
        flowset = _random_flowset(n, seed, tag="cold-rows")
        graph = InterferenceGraph(flowset)
        report = BatchReport(3)
        tight, loose, again = analyze_batch(
            [
                Scenario(flowset, SBAnalysis(), graph=graph),
                Scenario(flowset, XLWXAnalysis(), graph=graph),
                Scenario(flowset, XLWXAnalysis(), graph=graph),
            ],
            report=report,
        )
        _assert_results_equal(
            tight, analyze(flowset, SBAnalysis(), graph=graph)
        )
        _assert_results_equal(
            loose, analyze(flowset, XLWXAnalysis(), graph=graph)
        )
        _assert_results_equal(again, loose)
        assert report.iterations[1] == report.iterations[2]

    def test_timing_variants_share_a_graph(self):
        """Rows on one graph but different linkl/routl each read their
        own platform's timing."""
        flowset = _random_flowset(20, 5, tag="cold-timing")
        slow = flowset.on_platform(NoCPlatform(
            flowset.platform.topology, buf=2, linkl=3, routl=1
        ))
        graph = InterferenceGraph(flowset)
        results = analyze_batch(
            [Scenario(variant, SBAnalysis(), graph=graph)
             for variant in (flowset, slow)]
        )
        for variant, result in zip((flowset, slow), results):
            _assert_results_equal(result, analyze(variant, SBAnalysis()))
        assert results[0].flows != results[1].flows

    def test_capped_bound_beyond_the_deadline_is_not_converged(self):
        """The capped run stops "lo" at its deadline, unconverged; only
        the exact run converges beyond it."""
        flowset = FlowSet(
            NoCPlatform(Mesh2D(4, 1), buf=2),
            [
                Flow("hi", priority=1, period=110, length=100, src=0, dst=3),
                Flow("lo", priority=2, period=400, length=200, src=1, dst=3),
            ],
        )
        graph = InterferenceGraph(flowset)
        runs = {}
        for stop in (False, True):
            runs[stop] = analyze_batch(
                [Scenario(flowset, SBAnalysis(), graph=graph)],
                stop_at_deadline=stop,
            )[0]
            _assert_results_equal(
                runs[stop],
                analyze(flowset, SBAnalysis(), graph=graph,
                        stop_at_deadline=stop),
            )
        exact, capped = runs[False]["lo"], runs[True]["lo"]
        assert exact.converged and exact.response_time > exact.deadline
        assert not capped.converged and not capped.schedulable


class TestFallbacks:
    def test_unsupported_analysis_falls_back_to_scalar(self):
        flowset = _random_flowset(15, 3, tag="fallback")
        assert not batchable(XLW16Analysis())
        report = BatchReport(2)
        results = analyze_batch(
            [
                Scenario(flowset, XLW16Analysis()),
                Scenario(flowset, SBAnalysis()),
            ],
            stop_at_deadline=False,
            report=report,
        )
        _assert_results_equal(
            results[0],
            analyze(flowset, XLW16Analysis(), stop_at_deadline=False),
        )
        assert report.scalar_fallbacks == [0]

    @pytest.mark.parametrize(
        "analysis", [SBAnalysis(), XLWXAnalysis(), IBNAnalysis()],
        ids=lambda analysis: type(analysis).__name__,
    )
    def test_runaway_mid_batch_stays_on_the_array_path(
        self, analysis, didactic2, didactic10
    ):
        """A middle scenario's recurrence runs away: it ends without a
        bound in the batch, as scalar, and so do the scenarios beside
        it."""
        overloaded = FlowSet(
            NoCPlatform(chain(3), buf=2),
            [
                Flow("hi", priority=1, period=100, length=57, src=0, dst=2),
                Flow("mid", priority=2, period=100, length=57, src=0, dst=2),
                Flow("lo", priority=3, period=10**6, length=50, src=0, dst=2),
            ],
        )
        flowsets = [didactic2, overloaded, didactic10]
        report = BatchReport(len(flowsets))
        results = analyze_batch(
            [Scenario(flowset, analysis) for flowset in flowsets],
            stop_at_deadline=False,
            report=report,
        )
        for flowset, result in zip(flowsets, results):
            _assert_results_equal(
                result, analyze(flowset, analysis, stop_at_deadline=False)
            )
        assert report.scalar_fallbacks == []

    def test_report_size_mismatch_rejected(self):
        flowset = _random_flowset(5, 4)
        with pytest.raises(ValueError, match="report size"):
            analyze_batch(
                [Scenario(flowset, SBAnalysis())], report=BatchReport(3)
            )


class TestVerdictConsumers:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10**6))
    def test_spec_verdicts_batch_equals_scalar(self, seed):
        """The lock-stepped batched bisection decides exactly like the
        per-set chain, including on rounds below the batch threshold."""
        specs = fig4_specs()
        entries = [
            (_random_flowset(10 + (seed + i * 13) % 120, seed + i,
                             tag="verdicts"), specs)
            for i in range(5)
        ]
        batched = spec_verdicts_batch(entries)
        for (flowset, _), verdicts in zip(entries, batched):
            assert verdicts == spec_verdicts(flowset, specs)

    def test_min_batch_flows_boundary_is_byte_identical(self, monkeypatch):
        """Shifting the scalar/batch crossover never changes a verdict,
        only which engine produced it."""
        specs = fig4_specs()
        entries = [
            (_random_flowset(24 + 11 * i, 900 + i, tag="threshold"), specs)
            for i in range(4)
        ]
        total = sum(len(flowset) for flowset, _ in entries)
        monkeypatch.setattr(batch_mod, "MIN_BATCH_FLOWS", 1)
        all_batch = spec_verdicts_batch(entries)
        monkeypatch.setattr(batch_mod, "MIN_BATCH_FLOWS", 10 * total)
        all_scalar = spec_verdicts_batch(entries)
        assert all_batch == all_scalar

    def test_sched_chunk_block_equals_per_job(self):
        params = {
            "mesh": [4, 4], "num_flows": 40, "set_start": 0, "set_count": 3,
            "seed": 7, "config": {}, "small_buf": 2, "large_buf": 100,
            "include_sb": True,
        }
        other = dict(params, num_flows=80, set_start=3)
        block = run_sched_chunk_block([params, other])
        assert block == [run_sched_chunk(params), run_sched_chunk(other)]

    def test_buffer_chunk_block_equals_per_job(self):
        from repro.experiments.buffer_sweep import (
            run_buffer_chunk,
            run_buffer_chunk_block,
        )

        base = {
            "mesh": [4, 4], "num_flows": 64, "set_start": 0, "set_count": 4,
            "seed": 3, "config": {},
        }
        jobs = [dict(base, depth=depth) for depth in (2, 16, 100)]
        block = run_buffer_chunk_block(jobs)
        assert block == [run_buffer_chunk(job) for job in jobs]


def _frontier_flowset(spec):
    """Flows on a 9-node chain, priorities in the order given."""
    return FlowSet(
        NoCPlatform(chain(9), buf=2),
        [
            Flow(name, priority=rank + 1, **timing)
            for rank, (name, timing) in enumerate(spec)
        ],
    )


#: A → X → B form waves 0, 1, 2 on nodes 0–3 and B misses its deadline.
#: On nodes 5–8, C1 and C2 share no link, so both meet their deadlines,
#: while D, crossing both, takes 1.2 units of load per unit of time: its
#: recurrence runs away past its give-up in wave 1.
_CHAIN_MISS = [
    ("A", dict(period=1000, length=10, src=0, dst=1)),
    ("X", dict(period=1000, length=10, src=0, dst=2)),
    ("B", dict(period=1000, length=10, src=1, dst=3, deadline=15)),
]
_OVERLOAD = [
    ("C1", dict(period=100, length=57, src=5, dst=6)),
    ("C2", dict(period=100, length=57, src=6, dst=8)),
    ("D", dict(period=10**6, length=50, src=5, dst=8)),
]
#: C0 shares only C1's ejection link, which puts D in wave 2; X misses
#: its deadline in wave 1.
_OVERLOAD_LATE = [("C0", dict(period=100, length=5, src=7, dst=6))] + _OVERLOAD
_CHAIN_MISS_EARLY = [
    ("A", dict(period=1000, length=10, src=0, dst=1)),
    ("X", dict(period=1000, length=10, src=0, dst=2, deadline=20)),
]

#: Flows kept and iterations spent per scenario by the pinned batch in
#: ``test_report_counts_only_the_levels_kept``, as recorded when the
#: batch engine solved one priority level per step; the overload
#: scenario's 175 since it runs away inside the batch, not the scalar
#: engine.
_PINNED_KEPT = [200, 197, 180, 240, 193, 150, 4]
_PINNED_ITERATIONS = [412, 572, 402, 572, 582, 329, 175]


class TestWaveFrontier:
    """Waves solve a flow before a higher-priority flow of a later wave,
    so early exit follows a per-scenario level frontier."""

    @pytest.mark.parametrize(
        "analysis", [SBAnalysis(), XLWXAnalysis(), IBNAnalysis()],
        ids=lambda analysis: type(analysis).__name__,
    )
    def test_miss_found_after_a_lower_priority_valve_trip(self, analysis):
        """D (level 5, wave 1) trips the valve before B (level 2, wave
        2) misses: the scenario stops at B, as scalar, undiverted."""
        flowset = _frontier_flowset(_CHAIN_MISS + _OVERLOAD)
        graph = InterferenceGraph(flowset)
        assert graph.waves.tolist() == [0, 1, 2, 0, 0, 1]
        report = BatchReport(1)
        result = analyze_batch(
            [Scenario(flowset, analysis, graph=graph)],
            stop_at_deadline=False, early_exit=True, report=report,
        )[0]
        _assert_results_equal(
            result,
            analyze(flowset, analysis, stop_at_deadline=False,
                    early_exit=True),
        )
        assert list(result.flows) == ["A", "X", "B"]
        assert report.scalar_fallbacks == []

    @pytest.mark.parametrize(
        "analysis", [SBAnalysis(), XLWXAnalysis(), IBNAnalysis()],
        ids=lambda analysis: type(analysis).__name__,
    )
    def test_runaway_found_after_a_lower_priority_miss(self, analysis):
        """X (level 5, wave 1) misses before D (level 3, wave 2) runs
        away: D's give-up lies below the miss, so the scenario stops at
        D, as scalar."""
        flowset = _frontier_flowset(_OVERLOAD_LATE + _CHAIN_MISS_EARLY)
        graph = InterferenceGraph(flowset)
        assert graph.waves.tolist() == [0, 1, 0, 2, 0, 1]
        report = BatchReport(1)
        result = analyze_batch(
            [Scenario(flowset, analysis, graph=graph)],
            stop_at_deadline=False, early_exit=True, report=report,
        )[0]
        _assert_results_equal(
            result,
            analyze(flowset, analysis, stop_at_deadline=False,
                    early_exit=True),
        )
        assert list(result.flows) == ["C0", "C1", "C2", "D"]
        assert report.scalar_fallbacks == []

    def test_report_counts_only_the_levels_kept(self):
        """Iterations of a ragged early-exit batch, recorded when levels
        were solved one at a time: rows solved beyond a scenario's first
        miss are not counted."""
        analyses = [SBAnalysis(), XLWXAnalysis(), IBNAnalysis()]
        sizes = [200, 260, 180, 240, 300, 150]
        scenarios = [
            Scenario(
                _random_flowset(n, 40 + k, tag="pinned-report"),
                analyses[k % 3],
            )
            for k, n in enumerate(sizes)
        ]
        scenarios.append(Scenario(
            _frontier_flowset(_OVERLOAD_LATE + _CHAIN_MISS_EARLY),
            IBNAnalysis(),
        ))
        report = BatchReport(len(scenarios))
        results = analyze_batch(
            scenarios, stop_at_deadline=False, early_exit=True,
            report=report,
        )
        assert [len(result.flows) for result in results] == _PINNED_KEPT
        assert report.iterations == _PINNED_ITERATIONS
        assert report.scalar_fallbacks == []

    def test_one_step_per_wave(self, monkeypatch):
        """A B = 1 early-exit call solves at most one row block per
        wave; one per level took 390 here."""
        flowset = _random_flowset(400, 5, tag="step-guard")
        graph = InterferenceGraph(flowset)
        steps = []
        solve_rows = batch_mod._solve_rows

        def counted(*args):
            steps.append(len(args[0]))
            return solve_rows(*args)

        monkeypatch.setattr(batch_mod, "_solve_rows", counted)
        result = analyze_batch(
            [Scenario(flowset, IBNAnalysis(), graph=graph)], early_exit=True
        )[0]
        _assert_results_equal(
            result,
            analyze(flowset, IBNAnalysis(), graph=graph, early_exit=True),
        )
        assert len(steps) <= int(graph.waves.max()) + 1

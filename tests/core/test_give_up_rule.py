"""The give-up rule on inputs whose recurrences run away.

A recurrence that passes its give-up (its deadline, or ``RESPONSE_CAP``
with ``stop_at_deadline=False``) has no bound, and a flow with an
unconverged direct interferer is cut without being iterated.  These
sets used to hand an unconverged flow's first iterate past the cap down
the priority order as window jitter, so bounds grew by millions of bits
level by level: set 266 took 16 s and its result could not be encoded
as JSON, set 773 did not finish, and XLWX with ``analyze()``'s defaults
did the same on a fig4-sized set.  Every set here is regenerated from
its seed.
"""

import json
import time

import pytest

from repro.__main__ import main
from repro.core import backend as backend_mod
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.batch import BatchReport, Scenario, analyze_batch
from repro.core.engine import RESPONSE_CAP, analyze
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.io import result_to_dict, save_flowset
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D, chain
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import (
    SyntheticConfig,
    synthetic_flows,
    synthetic_flowset,
)

ANALYSES = [SBAnalysis(), IBNAnalysis(), XLWXAnalysis()]

#: Sets of ``synthetic_flowset(..., seed=3)`` on a 4×4 mesh with buf 4
#: whose recurrences run away under every analysis.
RUNAWAY_SETS = (266, 773)


def runaway_flowset(set_index):
    return synthetic_flowset(
        NoCPlatform(Mesh2D(4, 4), buf=4), SyntheticConfig(num_flows=150),
        seed=3, set_index=set_index,
    )


def fig4_prefix_flowset():
    """The 320 highest-priority flows of fig4's 4×4 400-flow set 0
    (seed 3), on buf 2."""
    flows = synthetic_flows(
        SyntheticConfig(num_flows=400), 16, spawn_rng(3, "synthetic", 400, 0)
    )
    flows = sorted(flows, key=lambda flow: flow.priority)[:320]
    return FlowSet(NoCPlatform(Mesh2D(4, 4), buf=2), flows)


def overloaded_link_flowset():
    """``tests/core/test_engine_divergence.py``'s ``overloaded_link``."""
    return FlowSet(
        NoCPlatform(chain(3), buf=2),
        [
            Flow("hi", priority=1, period=100, length=57, src=0, dst=2),
            Flow("mid", priority=2, period=100, length=57, src=0, dst=2),
            Flow("lo", priority=3, period=10**6, length=50, src=0, dst=2),
        ],
    )


def assert_bounded(result):
    """Every reported number is a bound within the cap, and the result
    encodes as JSON."""
    for flow_result in result.flows.values():
        if flow_result.converged:
            assert 0 <= flow_result.response_time <= RESPONSE_CAP
        else:
            assert flow_result.response_time is None
            assert flow_result.slack is None
    json.dumps(result_to_dict(result))


@pytest.mark.parametrize("set_index", RUNAWAY_SETS)
@pytest.mark.parametrize(
    "analysis", ANALYSES, ids=lambda analysis: type(analysis).__name__
)
def test_runaway_set_ends_in_verdicts(set_index, analysis):
    flowset = runaway_flowset(set_index)
    start = time.perf_counter()
    result = analyze(flowset, analysis, stop_at_deadline=False)
    assert time.perf_counter() - start < 1.0
    assert not result.schedulable
    assert_bounded(result)
    cut = [r for r in result.flows.values() if r.tainted]
    assert cut and all(not r.converged for r in cut)


@pytest.mark.parametrize("backend", backend_mod.available_backend_names())
@pytest.mark.parametrize("set_index", RUNAWAY_SETS)
def test_runaway_set_stays_in_the_batch(backend, set_index):
    flowset = runaway_flowset(set_index)
    scenarios = [Scenario(flowset, analysis) for analysis in ANALYSES]
    report = BatchReport(len(scenarios))
    with backend_mod.use_backend(backend):
        results = analyze_batch(
            scenarios, stop_at_deadline=False, report=report
        )
    assert report.scalar_fallbacks == []
    for analysis, result in zip(ANALYSES, results):
        scalar = analyze(flowset, analysis, stop_at_deadline=False)
        assert result.flows == scalar.flows
        assert result.complete == scalar.complete


def test_xlwx_with_default_arguments_ends_quickly():
    flowset = fig4_prefix_flowset()
    start = time.perf_counter()
    result = analyze(flowset, XLWXAnalysis())
    assert time.perf_counter() - start < 1.0
    assert not result.schedulable
    assert_bounded(result)


@pytest.mark.parametrize("backend", backend_mod.available_backend_names())
def test_inputs_at_the_limit_fit_the_batch(backend):
    """Period and jitter at 2**60 are accepted, and the batch bounds
    the flow behind them exactly as the scalar engine does."""
    flowset = FlowSet(
        NoCPlatform(chain(3), buf=2),
        [
            Flow("hi", priority=1, period=RESPONSE_CAP, length=5, src=0,
                 dst=2, jitter=RESPONSE_CAP),
            Flow("lo", priority=2, period=1000, length=5, src=0, dst=2),
        ],
    )
    for stop in (True, False):
        report = BatchReport(1)
        with backend_mod.use_backend(backend):
            batch = analyze_batch(
                [Scenario(flowset, SBAnalysis())], stop_at_deadline=stop,
                report=report,
            )[0]
        scalar = analyze(flowset, SBAnalysis(), stop_at_deadline=stop)
        assert batch.flows == scalar.flows
        assert batch["lo"].converged
        assert report.scalar_fallbacks == []


@pytest.mark.parametrize("backend", backend_mod.available_backend_names())
def test_an_iterate_past_int64_has_no_bound_in_the_batch(backend):
    """hi has C = 2**32 and period 1, so lo's second iterate is ~2**67.
    In int64 it wraps back onto the first iterate: a false fixed point
    below lo's deadline, which the batch used to report as
    schedulable."""
    platform = NoCPlatform(chain(3), buf=2)
    probe = FlowSet(platform, [Flow("x", 1, period=1, length=100, src=0,
                                    dst=2)])
    length = 2**32 - (probe.c("x") - 100)
    flowset = FlowSet(
        platform,
        [
            Flow("hi", priority=1, period=1, length=length, src=0, dst=2),
            Flow("lo", priority=2, period=10**11, length=5, src=0, dst=2),
        ],
    )
    assert flowset.c("hi") == 2**32
    for stop in (True, False):
        with backend_mod.use_backend(backend):
            batch = analyze_batch(
                [Scenario(flowset, SBAnalysis())], stop_at_deadline=stop
            )[0]
        scalar = analyze(flowset, SBAnalysis(), stop_at_deadline=stop)
        assert batch.flows == scalar.flows
        assert batch["lo"].response_time is None


class TestNoBoundIsPrintedAsADash:
    @pytest.fixture
    def path(self, tmp_path):
        return str(save_flowset(overloaded_link_flowset(), tmp_path / "o.json"))

    def test_analyze_command(self, path, capsys):
        code = main(["analyze", path, "--analysis", "sb"])
        captured = capsys.readouterr()
        assert code == 1
        lo_row = next(
            line for line in captured.out.splitlines()
            if line.startswith("lo ")
        )
        assert lo_row.split()[5:7] == ["-", "-"]
        assert "Traceback" not in captured.out + captured.err

    def test_sizing_command(self, path, capsys):
        code = main(["sizing", path, "--max-depth", "4"])
        captured = capsys.readouterr()
        assert code == 0
        first = captured.out.splitlines()[1]
        assert first.split()[0] == "lo" and "R=       -" in first
        assert "slack=       -" in first
        assert "Traceback" not in captured.out + captured.err

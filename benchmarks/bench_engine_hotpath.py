"""Microbenchmarks for the analysis kernel's hot path.

Covers the three layers the vectorized-kernel work targets, so future
changes have a trajectory to compare against (``BENCH_engine.json`` keeps
the recorded history — see ``benchmarks/record_engine_bench.py``):

* interference-graph construction (bitmask/incidence-matrix build) at
  several flow counts, plus the eager suffix table;
* the fixed-point engine: a full single-analysis pass and the per-flow
  recurrence with a shared graph;
* the four-analysis Figure-4 verdict chain (shared graph + bisection)
  against four independent runs.
"""

import pytest

from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.engine import analyze, is_schedulable
from repro.core.interference import InterferenceGraph
from repro.experiments.schedulability_sweep import fig4_specs, spec_verdicts
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.workloads.synthetic import SyntheticConfig, synthetic_flowset

SEED = 20180319


def _flowset(num_flows, mesh=(4, 4)):
    platform = NoCPlatform(Mesh2D(*mesh), buf=2)
    return synthetic_flowset(
        platform, SyntheticConfig(num_flows=num_flows), seed=SEED
    )


@pytest.fixture(scope="module")
def flowset200():
    return _flowset(200)


@pytest.fixture(scope="module")
def graph200(flowset200):
    return InterferenceGraph(flowset200)


@pytest.mark.parametrize("num_flows", [50, 200, 400])
def test_graph_build(benchmark, num_flows):
    """Construction cost of the contention geometry (the O(n²) layer)."""
    flowset = _flowset(num_flows)
    benchmark(lambda: InterferenceGraph(flowset))


def test_graph_build_8x8(benchmark):
    """Same on the sparser Figure 4(b) platform (more links, longer routes)."""
    flowset = _flowset(400, mesh=(8, 8))
    benchmark(lambda: InterferenceGraph(flowset))


@pytest.mark.parametrize(
    "analysis",
    [SBAnalysis(), XLWXAnalysis(), IBNAnalysis()],
    ids=lambda a: a.name,
)
def test_single_analysis_pass(benchmark, flowset200, graph200, analysis):
    """One cold analysis over 200 flows with a pre-built graph: isolates
    the term loops and the recurrence solver."""
    result = benchmark(lambda: analyze(flowset200, analysis, graph=graph200))
    assert result.complete


def test_recurrence_only(benchmark, flowset200, graph200):
    """Engine pass with all interference terms at zero cost (SB): the
    closest proxy for raw recurrence/fixed-point overhead."""
    result = benchmark(
        lambda: analyze(flowset200, SBAnalysis(), graph=graph200,
                        stop_at_deadline=False)
    )
    assert result.complete


def test_four_analyses_cold(benchmark, flowset200):
    """Four independent runs over a freshly built graph (what compare()
    pays per call)."""

    def run():
        graph = InterferenceGraph(flowset200)
        for analysis in (SBAnalysis(), IBNAnalysis(), IBNAnalysis(),
                         XLWXAnalysis()):
            analyze(flowset200, analysis, graph=graph)

    benchmark(run)


def test_verdict_chain(benchmark, flowset200):
    """The sweep kernel: one full Figure-4 verdict (graph + bisected
    chain over SB/XLWX/IBN2/IBN100)."""
    specs = fig4_specs()
    result = benchmark(lambda: spec_verdicts(flowset200, specs))
    assert set(result) == {spec.label for spec in specs}


def test_verdict_chain_all_cold(benchmark, flowset200):
    """Reference for test_verdict_chain: every spec decided independently."""
    specs = fig4_specs()

    def run():
        graph = InterferenceGraph(flowset200)
        platform = flowset200.platform
        verdicts = {}
        for spec in specs:
            if spec.buf is None or spec.buf == platform.buf:
                variant = flowset200
            else:
                variant = flowset200.on_platform(platform.with_buffers(spec.buf))
            verdicts[spec.label] = is_schedulable(
                variant, spec.analysis, graph=graph
            )
        return verdicts

    benchmark(run)

"""Guard: one batch call's memory, and the graph build's, stay close to
what the graph holds.

The batch engine stacks every scenario's downstream runs wave-major as
one int32 array, copied from the graphs in bounded chunks, and reads
each entry's τk through its pair row.  So a call holds about 4 bytes
per downstream entry, like the graph itself, plus per-pair columns.
The int32 columns limit how many flows and pairs one batch may stack.
The graph build frees its pair-expansion temporaries before it
enumerates the downstream runs.
"""

import tracemalloc

import pytest

from repro.core import batch as batch_mod
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.batch import Scenario, analyze_batch
from repro.core.engine import analyze
from repro.core.interference import InterferenceGraph
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows

NUM_FLOWS = 2000
#: About half the 69.0 MB that stacking the runs as int64, with
#: full-size index arrays beside them, peaked at on this set (2.26 M
#: entries).
PEAK_LIMIT_BYTES = 34_000_000


def _flowset(num_flows):
    platform = NoCPlatform(Mesh2D(8, 8), buf=2)
    rng = spawn_rng(1, "batch-memory-guard", num_flows)
    flows = synthetic_flows(
        SyntheticConfig(num_flows=num_flows), platform.topology.num_nodes, rng
    )
    return FlowSet(platform, flows)


def test_batch_call_peaks_under_half_the_int64_stacking():
    flowset = _flowset(NUM_FLOWS)
    graph = InterferenceGraph(flowset)
    tracemalloc.start()
    try:
        analyze_batch([Scenario(flowset, IBNAnalysis(), graph=graph)],
                      early_exit=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_LIMIT_BYTES, (
        f"batch call peaked {peak / 1e6:.1f} MB above its graph "
        f"({len(graph.down_pair)} downstream entries)"
    )


#: The parent of the lean composition peaked at 23.0 MB on this set.
#: Each pair column is now allocated once, wave-major, IBN's per-pair
#: values are written straight into it, and the stacking scratch is one
#: scenario's share of a chunk.
LEAN_PEAK_LIMIT_BYTES = 20_000_000


def test_batch_call_keeps_only_its_wave_major_arrays():
    flowset = _flowset(NUM_FLOWS)
    graph = InterferenceGraph(flowset)
    tracemalloc.start()
    try:
        analyze_batch([Scenario(flowset, IBNAnalysis(), graph=graph)],
                      early_exit=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= LEAN_PEAK_LIMIT_BYTES, (
        f"batch call peaked {peak / 1e6:.1f} MB above its graph "
        f"({len(graph.pair_i)} pairs, {len(graph.down_pair)} entries)"
    )


#: The build peaked at 4.1× what the graph holds on this set while the
#: pair expansion's int64 temporaries outlived it into the downstream
#: enumeration; freed first, it peaks at ~2.5×.
BUILD_PEAK_RATIO = 3


def test_graph_build_peaks_under_three_times_what_the_graph_holds():
    flowset = _flowset(NUM_FLOWS)
    tracemalloc.start()
    try:
        graph = InterferenceGraph(flowset)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= BUILD_PEAK_RATIO * held, (
        f"graph build peaked {peak / 1e6:.1f} MB for a graph holding "
        f"{held / 1e6:.1f} MB ({len(graph.down_pair)} downstream entries)"
    )


def test_batch_beyond_int32_numbering_is_refused(monkeypatch):
    flowset = _flowset(40)
    graph = InterferenceGraph(flowset)
    scenarios = [Scenario(flowset, IBNAnalysis(), graph=graph)] * 2
    monkeypatch.setattr(batch_mod, "_INDEX_MAX", len(graph.pair_i) * 2 - 1)
    with pytest.raises(ValueError, match="batch too large"):
        analyze_batch(scenarios)
    monkeypatch.setattr(batch_mod, "_INDEX_MAX", len(graph.pair_i) * 2)
    analyze_batch(scenarios)


@pytest.mark.parametrize("chunk", [1, 7, 300])
def test_stacking_in_small_chunks_changes_no_result(monkeypatch, chunk):
    """Chunks of one row, of a few entries, and of several scenarios'
    rows all give the scalar engine's answers."""
    monkeypatch.setattr(batch_mod, "_CANDIDATE_CHUNK", chunk)
    scenarios = [
        Scenario(_flowset(num_flows), analysis)
        for num_flows, analysis in (
            (40, IBNAnalysis()), (4, XLWXAnalysis()), (12, IBNAnalysis()),
            (60, XLWXAnalysis()),
        )
    ]
    results = analyze_batch(scenarios, stop_at_deadline=False)
    for scenario, result in zip(scenarios, results):
        expected = analyze(
            scenario.flowset, scenario.analysis, stop_at_deadline=False
        )
        assert result.flows == expected.flows

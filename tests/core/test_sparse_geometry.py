"""Guard: the contention geometry stays sparse.

The interference graph holds one pair table with a row per pair of flows
that share a link, so its memory grows with those pairs, not with n².
These tests walk everything a 1,000-flow graph on 8×8 holds and bound
what its build keeps.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import interference
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.batch import Scenario, analyze_batch
from repro.core.interference import InterferenceGraph
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows

NUM_FLOWS = 1000
#: Half of the 31 MB a graph with n×n tables held at this size (its
#: batch pair tables included).
HELD_LIMIT_BYTES = 15_500_000


def _flowset():
    platform = NoCPlatform(Mesh2D(8, 8), buf=2)
    rng = spawn_rng(1, "sparse-guard", NUM_FLOWS)
    flows = synthetic_flows(
        SyntheticConfig(num_flows=NUM_FLOWS), platform.topology.num_nodes, rng
    )
    flowset = FlowSet(platform, flows)
    for flow in flowset.flows:
        flowset.route(flow.name)  # routes are the flow set's, not the graph's
    return flowset


def _held_arrays(value, seen):
    """Every numpy array reachable from ``value`` through containers and
    the attributes of this package's objects."""
    if id(value) in seen:
        return
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple, set, frozenset)):
        for item in value:
            yield from _held_arrays(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _held_arrays(item, seen)
    elif type(value).__module__.startswith("repro."):
        for name in getattr(type(value), "__slots__", ()):
            yield from _held_arrays(getattr(value, name, None), seen)
        for item in getattr(value, "__dict__", {}).values():
            yield from _held_arrays(item, seen)


def test_graph_holds_no_quadratic_array():
    flowset = _flowset()
    graph = InterferenceGraph(flowset)
    analyze_batch([Scenario(flowset, IBNAnalysis(), graph=graph)],
                  early_exit=True)
    # Touch the scalar views too, so lazily built state is walked.
    graph.updown_by_index(NUM_FLOWS - 1, graph.direct_by_index(NUM_FLOWS - 1)[0])
    seen = {id(flowset)}
    arrays = [
        array
        for name, value in vars(graph).items()
        for array in _held_arrays(value, seen)
    ]
    assert arrays, "the pair table should be numpy arrays"
    assert max(array.size for array in arrays) < NUM_FLOWS ** 2


def test_build_keeps_under_half_the_dense_footprint():
    flowset = _flowset()
    tracemalloc.start()
    try:
        graph = InterferenceGraph(flowset)
        analyze_batch([Scenario(flowset, IBNAnalysis(), graph=graph)],
                      early_exit=True)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < HELD_LIMIT_BYTES, f"graph keeps {held / 1e6:.1f} MB"


def test_pair_table_holds_23_bytes_per_pair_and_4_per_entry():
    """int32 flows and runs, int16 sizes and spans, one upstream flag."""
    flowset = _flowset()
    graph = InterferenceGraph(flowset)
    analyze_batch([Scenario(flowset, IBNAnalysis(), graph=graph)],
                  early_exit=True)
    pairs, entries = len(graph.pair_i), len(graph.down_pair)
    seen = {id(flowset)}
    held = sum(
        array.nbytes
        for value in vars(graph).values()
        for array in _held_arrays(value, seen)
        if len(array) in (pairs, pairs + 1, entries)
    )
    assert held <= 23 * (pairs + 1) + 4 * entries, (
        f"pair table holds {(held - 4 * entries) / pairs:.1f} bytes a pair"
    )


def test_route_longer_than_the_span_columns_is_refused(monkeypatch):
    flowset = _flowset()
    longest = max(len(flowset.route(f.name)) for f in flowset.flows)
    monkeypatch.setattr(interference, "_ORDER_MAX", longest - 1)
    with pytest.raises(ValueError, match=f"the limit is {longest - 1}"):
        InterferenceGraph(flowset)
    monkeypatch.setattr(interference, "_ORDER_MAX", longest)
    InterferenceGraph(flowset)


def test_runs_beyond_int32_offsets_are_refused(monkeypatch):
    flowset = _flowset()
    entries = len(InterferenceGraph(flowset).down_pair)
    assert entries
    monkeypatch.setattr(interference, "_ENTRY_MAX", entries - 1)
    with pytest.raises(ValueError, match="interference graph too large"):
        InterferenceGraph(flowset)
    monkeypatch.setattr(interference, "_ENTRY_MAX", entries)
    InterferenceGraph(flowset)

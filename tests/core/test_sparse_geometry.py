"""Guard: the contention geometry stays sparse.

The interference graph holds one pair table with a row per pair of flows
that share a link, so its memory grows with those pairs, not with n².
These tests walk everything a 1,000-flow graph on 8×8 holds and bound
what its build keeps.
"""

import tracemalloc

import numpy as np

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

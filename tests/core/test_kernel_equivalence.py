"""Kernel equivalence: the optimized hot path vs the seed semantics.

The analysis kernel (bitmask interference graph, shared-graph engine,
bisected verdict chain) promises *byte-identical* results to the plain
implementation it replaced.  These property-style tests enforce that:

* a reference interference graph built the seed way — frozenset
  intersections and dict position lookups — must agree with
  :class:`InterferenceGraph` on every geometry accessor, interference
  set, up/down partition and suffix count, across meshes, seeds and flow
  counts up to Figure 4's, and a set whose contention domain has a gap
  must be rejected;
* :func:`compare`'s shared-graph runs must equal :func:`analyze` runs
  on their own field-for-field (every ``FlowResult``, including
  unconverged iterates and taint flags), across deadline modes, and a
  graph shared with a buffer or timing variant must give the answers of
  the variant's own graph;
* :func:`spec_verdicts`'s bisection/short-circuit chain must equal
  cold per-spec verdicts;
* chunked/parallel sweeps must equal the serial sweep.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlw16 import XLW16Analysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.engine import analyze, compare, is_schedulable
from repro.core.interference import InterferenceGraph
from repro.experiments.schedulability_sweep import (
    fig4_specs,
    schedulability_sweep,
    spec_verdicts,
)
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.routing import RoutingFunction
from repro.noc.topology import Mesh2D
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows


class ReferenceGraph:
    """The seed implementation's geometry, kept as the oracle.

    Plain frozenset intersections and per-route position dicts — O(n²)
    and slow, but obviously faithful to the paper's definitions.
    """

    def __init__(self, flowset):
        flows = flowset.flows
        self.routes = [flowset.route(f.name) for f in flows]
        n = len(flows)
        link_sets = [frozenset(r) for r in self.routes]
        positions = [
            {link: pos + 1 for pos, link in enumerate(route)}
            for route in self.routes
        ]
        self.geometry = {}
        for a in range(n):
            for b in range(a + 1, n):
                shared = link_sets[a] & link_sets[b]
                if not shared:
                    continue
                orders_a = [positions[a][link] for link in shared]
                orders_b = [positions[b][link] for link in shared]
                self.geometry[(a, b)] = (
                    len(shared),
                    min(orders_a), max(orders_a),
                    min(orders_b), max(orders_b),
                )
        self.direct = [
            tuple(j for j in range(i) if self._pair(i, j) is not None)
            for i in range(n)
        ]
        suffix = [set() for _ in range(n)]
        accumulated = set()
        for index in range(n - 1, -1, -1):
            suffix[index] = set(accumulated)
            accumulated.update(self.routes[index])
        self.lower_shared = [
            len(set(self.routes[i]) & suffix[i]) for i in range(n)
        ]

    def _pair(self, i, j):
        return self.geometry.get((i, j) if i < j else (j, i))

    def cd_size(self, i, j):
        pair = self._pair(i, j)
        return 0 if pair is None else pair[0]

    def span_on(self, on, other):
        pair = self._pair(on, other)
        if on < other:
            return pair[1], pair[2]
        return pair[3], pair[4]

    def updown(self, i, j):
        direct_i = set(self.direct[i])
        cd_lo, cd_hi = self.span_on(j, i)
        upstream, downstream = [], []
        for k in self.direct[j]:
            if k in direct_i or k == i:
                continue
            k_lo, k_hi = self.span_on(j, k)
            if k_hi < cd_lo:
                upstream.append(k)
            elif k_lo > cd_hi:
                downstream.append(k)
        return tuple(upstream), tuple(downstream)


def _random_flowset(cols, rows, n, seed, tag="kernel-eq"):
    platform = NoCPlatform(Mesh2D(cols, rows), buf=2)
    rng = spawn_rng(seed, tag, cols, rows, n)
    flows = synthetic_flows(
        SyntheticConfig(num_flows=n), platform.topology.num_nodes, rng
    )
    return FlowSet(platform, flows)


def _assert_graph_matches_reference(flowset):
    graph = InterferenceGraph(flowset)
    reference = ReferenceGraph(flowset)
    n = len(flowset.flows)
    for i in range(n):
        assert graph.direct_by_index(i) == reference.direct[i]
        assert graph.lower_priority_shared_links(i) == reference.lower_shared[i]
        for j in range(n):
            if i == j:
                continue
            assert graph.cd_size_by_index(i, j) == reference.cd_size(i, j)
            if reference.cd_size(i, j):
                assert graph.cd_span_on(i, j) == reference.span_on(i, j)
        for j in graph.direct_by_index(i):
            assert graph.updown_by_index(i, j) == reference.updown(i, j)


class TestGraphEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([(2, 2), (4, 4), (6, 1), (5, 3)]),
        st.integers(3, 40),
        st.integers(0, 10**6),
    )
    def test_matches_reference_graph(self, mesh, n, seed):
        _assert_graph_matches_reference(_random_flowset(*mesh, n, seed))

    @pytest.mark.parametrize(
        "cols, rows, n",
        [(4, 4, 100), (4, 4, 400), (8, 8, 480)],
        ids=["4x4-100", "4x4-400", "8x8-480"],
    )
    def test_matches_reference_graph_at_figure4_sizes(self, cols, rows, n):
        _assert_graph_matches_reference(
            _random_flowset(cols, rows, n, seed=7, tag="fig4-size")
        )

    def test_matches_reference_graph_with_one_flow(self):
        _assert_graph_matches_reference(_random_flowset(4, 4, 1, seed=3))

    def test_matches_reference_graph_with_only_local_flows(self):
        platform = NoCPlatform(Mesh2D(3, 3), buf=2)
        flows = [
            Flow(f"f{node}", priority=node + 1, period=100, length=8,
                 src=node, dst=node)
            for node in range(5)
        ]
        _assert_graph_matches_reference(FlowSet(platform, flows))


class _TableRouting(RoutingFunction):
    """Routes read from a fixed ``(src, dst) -> links`` table.

    Lets a test build routes no dimension-order routing would produce.
    """

    def __init__(self, table):
        super().__init__()
        self.table = table

    def compute_route(self, topology, src, dst):
        return self.table[(src, dst)]

    def next_output(self, topology, router, dst):
        raise NotImplementedError("table routes are never simulated")


class TestNonContiguousDomain:
    @pytest.mark.parametrize(
        "hi_route, lo_route",
        [((0, 1, 2), (3, 0, 4, 2)), ((0, 2), (0, 5, 2)), ((0, 5, 2), (0, 2))],
        ids=["gap-on-both-routes", "gap-on-lower-route", "gap-on-higher-route"],
    )
    def test_gap_in_contention_domain_is_rejected(self, hi_route, lo_route):
        # "mid" shares no link, so the message must name the pair with
        # the gap, not the first two flows.
        routing = _TableRouting({(0, 2): hi_route, (1, 2): lo_route,
                                 (3, 4): (7, 8)})
        platform = NoCPlatform(Mesh2D(3, 2), buf=2, routing=routing)
        flowset = FlowSet(platform, [
            Flow("hi", priority=1, period=100, length=8, src=0, dst=2),
            Flow("mid", priority=2, period=100, length=8, src=3, dst=4),
            Flow("lo", priority=3, period=100, length=8, src=1, dst=2),
        ])
        with pytest.raises(
            ValueError,
            match="flows 'hi' and 'lo' is not a contiguous run of links",
        ):
            InterferenceGraph(flowset)


ANALYSES = [SBAnalysis(), XLWXAnalysis(), IBNAnalysis()]


class TestEngineEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from([(4, 4), (3, 3)]),
        st.integers(10, 80),
        st.integers(0, 10**6),
        st.booleans(),
    )
    def test_compare_equals_cold_analyze(self, mesh, n, seed, stop):
        """Warm-started compare == cold analyze, full FlowResult fields."""
        flowset = _random_flowset(*mesh, n, seed, tag="engine-eq")
        warm_results = compare(flowset, ANALYSES, stop_at_deadline=stop)
        graph = InterferenceGraph(flowset)
        for analysis in ANALYSES:
            cold = analyze(flowset, analysis, graph=graph, stop_at_deadline=stop)
            warm = warm_results[cold.analysis_name]
            assert warm.flows == cold.flows
            assert warm.complete == cold.complete
            assert warm.unsafe == cold.unsafe

    @settings(max_examples=10, deadline=None)
    @given(st.integers(10, 60), st.integers(0, 10**6))
    def test_xlw16_not_warm_chained_but_identical(self, n, seed):
        """XLW16 sits outside the warm-start order yet compare still
        returns its cold result."""
        flowset = _random_flowset(4, 4, n, seed, tag="xlw16")
        results = compare(flowset, [XLW16Analysis(), XLWXAnalysis()])
        graph = InterferenceGraph(flowset)
        cold = analyze(flowset, XLW16Analysis(), graph=graph,
                       stop_at_deadline=False)
        assert results["XLW16"].flows == cold.flows

    @settings(max_examples=12, deadline=None)
    @given(st.integers(10, 60), st.integers(0, 10**6), st.sampled_from([2, 4, 100]))
    def test_buffer_variant_on_a_shared_graph(self, n, seed, large_buf):
        """IBN on a buffer variant, reusing the base set's graph, equals
        the run that builds its own graph."""
        flowset = _random_flowset(4, 4, n, seed, tag="shared-buf")
        graph = InterferenceGraph(flowset)
        variant = flowset.on_platform(flowset.platform.with_buffers(large_buf))
        shared = analyze(variant, IBNAnalysis(), graph=graph)
        own = analyze(variant, IBNAnalysis())
        assert shared.flows == own.flows
        assert shared.complete == own.complete


class TestSharedGraphEdges:
    def test_capped_bound_beyond_the_deadline_is_not_converged(self):
        """A bound that converges beyond the deadline in the exact run is
        stopped at the deadline, unconverged, in the capped run."""
        platform = NoCPlatform(Mesh2D(4, 1), buf=2)
        flowset = FlowSet(
            platform,
            [
                Flow("hi", priority=1, period=110, length=100, src=0, dst=3),
                Flow("lo", priority=2, period=400, length=200, src=1, dst=3),
            ],
        )
        graph = InterferenceGraph(flowset)
        exact = analyze(
            flowset, SBAnalysis(), graph=graph, stop_at_deadline=False
        )
        capped = analyze(flowset, SBAnalysis(), graph=graph)
        assert exact["hi"] == capped["hi"]
        assert exact["lo"].converged
        assert exact["lo"].response_time > exact["lo"].deadline
        assert not capped["lo"].converged

    def test_timing_variant_on_a_shared_graph(self):
        """A graph built under one linkl/routl serves a variant under
        another; the analysis reads the variant's timing."""
        flowset = _random_flowset(4, 4, 20, seed=2, tag="timing")
        slow = flowset.on_platform(NoCPlatform(
            flowset.platform.topology, buf=2, linkl=3, routl=1
        ))
        graph = InterferenceGraph(flowset)
        shared = analyze(slow, SBAnalysis(), graph=graph)
        assert shared.flows == analyze(slow, SBAnalysis()).flows
        assert shared.flows != analyze(flowset, SBAnalysis(), graph=graph).flows


class TestPickling:
    def test_platform_and_flowset_picklable(self):
        """Multiprocessing fan-out needs picklable platforms/flow sets
        despite the weak-keyed route memo on the routing function."""
        import pickle

        flowset = _random_flowset(3, 3, 8, seed=1, tag="pickle")
        clone = pickle.loads(pickle.dumps(flowset))
        for flow in flowset.flows:
            assert clone.route(flow.name) == flowset.route(flow.name)
        platform = pickle.loads(pickle.dumps(flowset.platform))
        assert platform.route(0, 5) == flowset.platform.route(0, 5)


class TestVerdictChainEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        st.sampled_from([(4, 4), (8, 8)]),
        st.integers(20, 150),
        st.integers(0, 10**6),
    )
    def test_bisected_verdicts_equal_cold_verdicts(self, mesh, n, seed):
        flowset = _random_flowset(*mesh, n, seed, tag="verdicts")
        specs = fig4_specs()
        fast = spec_verdicts(flowset, specs)
        graph = InterferenceGraph(flowset)
        for spec in specs:
            if spec.buf is None or spec.buf == flowset.platform.buf:
                variant = flowset
            else:
                variant = flowset.on_platform(
                    flowset.platform.with_buffers(spec.buf)
                )
            assert fast[spec.label] == is_schedulable(
                variant, spec.analysis, graph=graph
            ), spec.label
        assert list(fast) == [spec.label for spec in specs]


class TestSweepInvariance:
    def test_chunked_equals_serial(self):
        serial = schedulability_sweep((4, 4), [60, 200], 6, seed=99)
        chunked = schedulability_sweep(
            (4, 4), [60, 200], 6, seed=99, chunk_size=2
        )
        assert serial.series == chunked.series
        assert serial.x_values == chunked.x_values

    def test_parallel_chunked_equals_serial(self):
        serial = schedulability_sweep((4, 4), [60, 160], 5, seed=41)
        parallel = schedulability_sweep(
            (4, 4), [60, 160], 5, seed=41, workers=2, chunk_size=2
        )
        assert serial.series == parallel.series

    def test_duplicate_flow_counts(self):
        """Duplicate x-axis points keep independent chunk bookkeeping."""
        single = schedulability_sweep((4, 4), [50], 4, seed=13)
        doubled = schedulability_sweep(
            (4, 4), [50, 50], 4, seed=13, workers=2, chunk_size=1
        )
        assert doubled.x_values == [50, 50]
        for label, values in doubled.series.items():
            assert values == single.series[label] * 2

    def test_progress_reported_with_workers(self):
        events = []
        schedulability_sweep(
            (4, 4), [40, 80], 4, seed=11, workers=2, chunk_size=1,
            progress=events.append,
        )
        # One ProgressEvent per job: 2 points x 4 single-set chunks.
        assert len(events) == 8
        assert all(event.total == 8 for event in events)
        assert events[-1].finished == 8
        assert any("n=40" in event.label for event in events)
        assert any("n=80" in event.label for event in events)


class TestMaxGapErrors:
    def test_unknown_label_names_available_curves(self):
        sweep = schedulability_sweep((4, 4), [40], 2, seed=5)
        with pytest.raises(KeyError, match="unknown curve 'IBN7'.*available"):
            sweep.max_gap("IBN7", "XLWX")

    def test_empty_series_message(self):
        from repro.experiments.schedulability_sweep import SweepResult

        empty = SweepResult(x_label="x")
        empty.series = {"A": [], "B": []}
        with pytest.raises(ValueError, match="no data points"):
            empty.max_gap("A", "B")

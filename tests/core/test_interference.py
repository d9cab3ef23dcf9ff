"""Interference sets: didactic oracle plus structural properties."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interference import InterferenceGraph
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.flows.priority import rate_monotonic
from repro.noc.platform import NoCPlatform
from repro.noc.routing import RoutingFunction
from repro.noc.topology import Mesh2D
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows


class TestDidacticSets:
    """Ground truth from the paper's Section V scenario."""

    def test_direct_sets(self, didactic2):
        graph = InterferenceGraph(didactic2)
        assert graph.direct("t1") == ()
        assert graph.direct("t2") == ("t1",)
        assert graph.direct("t3") == ("t2",)

    def test_indirect_sets(self, didactic2):
        graph = InterferenceGraph(didactic2)
        assert graph.indirect("t1") == ()
        assert graph.indirect("t2") == ()
        assert graph.indirect("t3") == ("t1",)

    def test_cd_sizes(self, didactic2):
        graph = InterferenceGraph(didactic2)
        assert graph.cd_size("t2", "t3") == 3  # the 3 router-router links
        assert graph.cd_size("t1", "t2") == 2  # link 4->5 + ejection at f
        assert graph.cd_size("t1", "t3") == 0

    def test_t1_is_downstream_interferer_of_t3_via_t2(self, didactic2):
        graph = InterferenceGraph(didactic2)
        assert graph.downstream("t3", "t2") == ("t1",)
        assert graph.upstream("t3", "t2") == ()

    def test_cd_span_on_route(self, didactic2):
        graph = InterferenceGraph(didactic2)
        i3, j2 = graph.index("t3"), graph.index("t2")
        # cd_23 occupies orders 3..5 of t2's 7-link route
        assert graph.cd_span_on(j2, i3) == (3, 5)

    def test_cd_span_requires_overlap(self, didactic2):
        graph = InterferenceGraph(didactic2)
        with pytest.raises(ValueError, match="share no links"):
            graph.cd_span_on(graph.index("t1"), graph.index("t3"))

    def test_updown_requires_direct_pair(self, didactic2):
        graph = InterferenceGraph(didactic2)
        with pytest.raises(ValueError, match="not a direct interferer"):
            graph.updown_by_index(graph.index("t3"), graph.index("t1"))

    def test_waves(self, didactic2):
        # t1 interferes with t2, t2 with t3: a three-wave chain.
        assert InterferenceGraph(didactic2).waves.tolist() == [0, 1, 2]


class TestUpstreamScenario:
    """A hand-built scenario with *upstream* indirect interference."""

    @pytest.fixture
    def upstream_set(self):
        # Chain a(0) .. f(5).  tk hits tj on tj's first links, before tj
        # meets ti: tk: a->c, tj: a->f, ti: d->f.
        platform = NoCPlatform(Mesh2D(6, 1), buf=2)
        return FlowSet(
            platform,
            [
                Flow("tk", priority=1, period=100, length=5, src=0, dst=2),
                Flow("tj", priority=2, period=1000, length=50, src=0, dst=5),
                Flow("ti", priority=3, period=5000, length=50, src=3, dst=5),
            ],
        )

    def test_partition(self, upstream_set):
        graph = InterferenceGraph(upstream_set)
        assert graph.upstream("ti", "tj") == ("tk",)
        assert graph.downstream("ti", "tj") == ()


class _TableRouting(RoutingFunction):
    """Routes read from a fixed ``(src, dst) -> links`` table."""

    def __init__(self, table):
        super().__init__()
        self.table = table

    def compute_route(self, topology, src, dst):
        return self.table[(src, dst)]

    def next_output(self, topology, router, dst):
        raise NotImplementedError("table routes are never simulated")


class TestSharedInterfererOffTheRoute:
    """τk meets τj downstream of cd_ij but also shares a link with τi
    away from τj's route: it is a direct interferer of τi, so it is
    neither upstream nor downstream of (τi, τj)."""

    @pytest.fixture
    def graph(self):
        routing = _TableRouting({(0, 1): (1, 2, 3, 4), (2, 3): (1, 5),
                                 (4, 5): (5, 3)})
        platform = NoCPlatform(Mesh2D(3, 2), buf=2, routing=routing)
        return InterferenceGraph(FlowSet(platform, [
            Flow("tk", priority=1, period=100, length=8, src=4, dst=5),
            Flow("tj", priority=2, period=100, length=8, src=0, dst=1),
            Flow("ti", priority=3, period=100, length=8, src=2, dst=3),
        ]))

    def test_direct_interferer_is_not_indirect(self, graph):
        assert graph.direct("ti") == ("tk", "tj")
        assert graph.direct("tj") == ("tk",)
        assert graph.indirect("ti") == ()
        assert graph.upstream("ti", "tj") == ()
        assert graph.downstream("ti", "tj") == ()


class TestStructuralProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(1, 4),
        st.integers(3, 25),
        st.integers(0, 10**6),
    )
    def test_partition_covers_indirect_cap_direct(self, cols, rows, n, seed):
        """Every indirect interferer through τj is strictly up or down.

        This is the structural fact the IBN application rule relies on; the
        graph raises AssertionError if it ever fails.
        """
        platform = NoCPlatform(Mesh2D(cols, rows), buf=2)
        rng = spawn_rng(seed, "interference-prop")
        flows = synthetic_flows(
            SyntheticConfig(num_flows=n), platform.topology.num_nodes, rng
        )
        flowset = FlowSet(platform, flows)
        graph = InterferenceGraph(flowset)
        for i, flow in enumerate(flowset.flows):
            indirect = set(graph.indirect_by_index(i))
            direct = set(graph.direct_by_index(i))
            assert not (indirect & direct)
            for j in graph.direct_by_index(i):
                up, down = graph.updown_by_index(i, j)
                members = set(up) | set(down)
                expected = indirect & set(graph.direct_by_index(j))
                assert members == expected
                assert not (set(up) & set(down))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 60), st.integers(0, 10**6))
    def test_any_direct_upstream_flags(self, n, seed):
        """The "any_upstream" ablation's per-pair flags equal a scan of
        every τk ∈ S^D_j for a cd with τj ending before cd_ij starts."""
        platform = NoCPlatform(Mesh2D(4, 4), buf=2)
        rng = spawn_rng(seed, "any-upstream")
        flows = synthetic_flows(
            SyntheticConfig(num_flows=n), platform.topology.num_nodes, rng
        )
        graph = InterferenceGraph(FlowSet(platform, flows))
        for i in range(n):
            for j in graph.direct_by_index(i):
                cd_lo, _ = graph.cd_span_on(j, i)
                expected = any(
                    graph.cd_span_on(j, k)[1] < cd_lo
                    for k in graph.direct_by_index(j)
                )
                row = graph.pair_row(i, j)
                assert bool(graph.any_direct_upstream[row]) == expected

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 5),
        st.integers(1, 4),
        st.integers(1, 80),
        st.integers(0, 10**6),
    )
    def test_waves_match_recursive_reference(self, cols, rows, n, seed):
        """A flow's wave is 0 when S^D_i is empty, else one more than
        the deepest wave among its direct interferers."""
        platform = NoCPlatform(Mesh2D(cols, rows), buf=2)
        rng = spawn_rng(seed, "interference-waves")
        flows = synthetic_flows(
            SyntheticConfig(num_flows=n), platform.topology.num_nodes, rng
        )
        graph = InterferenceGraph(FlowSet(platform, flows))

        @functools.cache
        def wave(i):
            direct = graph.direct_by_index(i)
            return 1 + max(map(wave, direct)) if direct else 0

        assert graph.waves.tolist() == [wave(i) for i in range(n)]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(3, 20), st.integers(0, 10**6))
    def test_direct_sets_only_higher_priority(self, n, seed):
        platform = NoCPlatform(Mesh2D(4, 4), buf=2)
        rng = spawn_rng(seed, "interference-prio")
        flows = synthetic_flows(
            SyntheticConfig(num_flows=n), platform.topology.num_nodes, rng
        )
        flowset = FlowSet(platform, flows)
        graph = InterferenceGraph(flowset)
        for i, flow in enumerate(flowset.flows):
            for j in graph.direct_by_index(i):
                other = flowset.flows[j]
                assert other.priority < flow.priority
                assert graph.cd_size_by_index(i, j) > 0

    def test_rate_monotonic_indices_align(self, platform4x4):
        flows = rate_monotonic(
            [
                Flow("a", priority=9, period=300, length=5, src=0, dst=1),
                Flow("b", priority=9, period=100, length=5, src=0, dst=2),
            ]
        )
        graph = InterferenceGraph(FlowSet(platform4x4, flows))
        assert graph.name(0) == "b"  # shortest period = highest priority
        assert graph.index("a") == 1

    def test_compatible_with_buffer_variant(self, didactic2, didactic10):
        graph = InterferenceGraph(didactic2)
        assert graph.compatible_with(didactic2)
        # didactic10 has the same flows but a *different* topology object,
        # so it is not compatible; the on_platform route shares topology.
        rebased = didactic2.on_platform(didactic2.platform.with_buffers(10))
        assert graph.compatible_with(rebased)

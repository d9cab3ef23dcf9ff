"""FlowSet binding, validation and metrics."""

import pytest

from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D


def flows_pair():
    return [
        Flow("lo", priority=5, period=1000, length=10, src=0, dst=3),
        Flow("hi", priority=1, period=100, length=5, src=1, dst=2),
    ]


class TestConstruction:
    def test_orders_by_priority(self, platform4x4):
        fs = FlowSet(platform4x4, flows_pair())
        assert [f.name for f in fs] == ["hi", "lo"]

    def test_rejects_empty(self, platform4x4):
        with pytest.raises(ValueError):
            FlowSet(platform4x4, [])

    def test_rejects_duplicate_names(self, platform4x4):
        flows = [
            Flow("x", priority=1, period=10, length=1, src=0, dst=1),
            Flow("x", priority=2, period=10, length=1, src=0, dst=1),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            FlowSet(platform4x4, flows)

    def test_rejects_shared_priorities(self, platform4x4):
        flows = [
            Flow("a", priority=1, period=10, length=1, src=0, dst=1),
            Flow("b", priority=1, period=10, length=1, src=0, dst=2),
        ]
        with pytest.raises(ValueError, match="priority"):
            FlowSet(platform4x4, flows)

    def test_rejects_nodes_outside_topology(self, platform4x4):
        with pytest.raises(ValueError, match="outside"):
            FlowSet(
                platform4x4,
                [Flow("a", priority=1, period=10, length=1, src=0, dst=99)],
            )

    def test_vc_count_enforced(self):
        platform = NoCPlatform(Mesh2D(2, 2), buf=2, vc_count=1)
        flows = [
            Flow("a", priority=1, period=10, length=1, src=0, dst=1),
            Flow("b", priority=2, period=10, length=1, src=1, dst=2),
        ]
        with pytest.raises(ValueError, match="vc_count"):
            FlowSet(platform, flows)

    def test_local_flows_do_not_consume_vcs(self):
        platform = NoCPlatform(Mesh2D(2, 2), buf=2, vc_count=1)
        flows = [
            Flow("a", priority=1, period=10, length=1, src=0, dst=1),
            Flow("local", priority=2, period=10, length=1, src=1, dst=1),
        ]
        FlowSet(platform, flows)  # must not raise

    def test_zero_load_latency_bounded_at_response_cap(self):
        """C = 2**60 is accepted and one cycle more is rejected, so the
        batch engine's int64 columns always hold it."""
        platform = NoCPlatform(Mesh2D(2, 2), buf=2)
        at_cap = 2**60 - len(platform.route(0, 3)) + 1  # C = |route| + L - 1
        fs = FlowSet(platform, [Flow("hi", 1, 100, at_cap, src=0, dst=3)])
        assert fs.c("hi") == 2**60
        with pytest.raises(ValueError, match=r"hi: zero-load .* 2\*\*60"):
            FlowSet(platform, [Flow("hi", 1, 100, at_cap + 1, src=0, dst=3)])


class TestDerivedData:
    def test_c_matches_equation_one(self, platform4x4):
        fs = FlowSet(platform4x4, flows_pair())
        route = fs.route("lo")
        assert fs.c("lo") == platform4x4.zero_load_latency(len(route), 10)

    def test_local_flow_c_zero(self, platform4x4):
        fs = FlowSet(
            platform4x4,
            [Flow("l", priority=1, period=10, length=9, src=5, dst=5)],
        )
        assert fs.c("l") == 0
        assert fs.route("l") == ()

    def test_higher_priority(self, platform4x4):
        fs = FlowSet(platform4x4, flows_pair())
        assert [f.name for f in fs.higher_priority("lo")] == ["hi"]
        assert fs.higher_priority("hi") == ()

    def test_contains_len_getters(self, platform4x4):
        fs = FlowSet(platform4x4, flows_pair())
        assert len(fs) == 2
        assert "hi" in fs and "nope" not in fs
        assert fs.flow("hi").priority == 1

    def test_total_utilization(self, platform4x4):
        fs = FlowSet(platform4x4, flows_pair())
        expected = fs.c("hi") / 100 + fs.c("lo") / 1000
        assert fs.total_utilization() == pytest.approx(expected)

    def test_max_link_utilization_positive(self, platform4x4):
        fs = FlowSet(platform4x4, flows_pair())
        assert 0 < fs.max_link_utilization() <= fs.total_utilization()

    def test_on_platform_rebinds(self, platform4x4):
        fs = FlowSet(platform4x4, flows_pair())
        moved = fs.on_platform(platform4x4.with_buffers(50))
        assert moved.platform.buf == 50
        assert moved.flows == fs.flows
        assert moved.c("lo") == fs.c("lo")  # buf does not affect Eq. 1

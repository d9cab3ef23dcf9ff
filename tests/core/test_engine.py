"""The response-time engine: convergence, verdicts, caching, edge cases."""

import pytest

from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.engine import analyze, compare, is_schedulable
from repro.core.interference import InterferenceGraph
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D


def make_set(platform, *flows):
    return FlowSet(platform, flows)


class TestBasics:
    def test_single_flow_has_zero_interference(self, platform4x4):
        fs = make_set(
            platform4x4, Flow("only", priority=1, period=100, length=5, src=0, dst=3)
        )
        result = analyze(fs, SBAnalysis())
        assert result.response_time("only") == fs.c("only")
        assert result.schedulable

    def test_local_flow_trivially_schedulable(self, platform4x4):
        fs = make_set(
            platform4x4,
            Flow("local", priority=1, period=10, length=500, src=2, dst=2),
            Flow("net", priority=2, period=1000, length=5, src=0, dst=3),
        )
        result = analyze(fs, XLWXAnalysis())
        assert result.response_time("local") == 0
        assert result["local"].schedulable
        # the local flow causes no interference on the networked one
        assert result.response_time("net") == fs.c("net")

    def test_direct_interference_two_flows(self, two_flow_set):
        result = analyze(two_flow_set, SBAnalysis())
        c_hi = two_flow_set.c("hi")
        c_lo = two_flow_set.c("lo")
        r_lo = result.response_time("lo")
        # lo suffers ceil(r/T_hi) hits of c_hi
        assert r_lo == c_lo + -(-r_lo // 1000) * c_hi

    def test_disjoint_flows_do_not_interact(self, platform4x4):
        fs = make_set(
            platform4x4,
            Flow("top", priority=1, period=100, length=5, src=0, dst=1),
            Flow("bottom", priority=2, period=100, length=5, src=14, dst=15),
        )
        result = analyze(fs, XLWXAnalysis())
        assert result.response_time("bottom") == fs.c("bottom")


class TestVerdicts:
    @pytest.fixture
    def overloaded(self, platform4x4):
        # hi almost saturates the shared link; lo cannot fit.
        return make_set(
            platform4x4,
            Flow("hi", priority=1, period=110, length=100, src=0, dst=3),
            Flow("lo", priority=2, period=400, length=200, src=1, dst=3),
        )

    def test_deadline_miss_detected(self, overloaded):
        result = analyze(overloaded, SBAnalysis())
        assert not result["lo"].schedulable
        assert not result.schedulable
        assert result["hi"].schedulable

    def test_stop_at_deadline_stops_early(self, overloaded):
        capped = analyze(overloaded, SBAnalysis())
        exact = analyze(overloaded, SBAnalysis(), stop_at_deadline=False)
        # the capped run gives up just past the deadline, with no bound
        assert capped.response_time("lo") is None
        # the exact run converges beyond D
        assert exact["lo"].converged
        assert exact.response_time("lo") > 400

    def test_early_exit_marks_incomplete(self, overloaded):
        result = analyze(overloaded, SBAnalysis(), early_exit=True)
        assert not result.complete
        assert not result.schedulable

    def test_is_schedulable_fast_path(self, overloaded, two_flow_set):
        assert not is_schedulable(overloaded, SBAnalysis())
        assert is_schedulable(two_flow_set, SBAnalysis())

    def test_taint_propagates(self, platform4x4):
        fs = make_set(
            platform4x4,
            Flow("hi", priority=1, period=110, length=100, src=0, dst=3),
            Flow("mid", priority=2, period=400, length=200, src=1, dst=3),
            Flow("lo", priority=3, period=10**6, length=5, src=2, dst=3),
        )
        result = analyze(fs, SBAnalysis())
        assert not result["mid"].converged
        assert result["lo"].tainted
        assert not result["hi"].tainted

    def test_num_schedulable(self, overloaded):
        result = analyze(overloaded, SBAnalysis())
        assert result.num_schedulable == 1


class TestGraphSharing:
    def test_incompatible_graph_rejected(self, two_flow_set, platform4x4):
        other = make_set(
            platform4x4,
            Flow("different", priority=1, period=50, length=2, src=0, dst=2),
        )
        graph = InterferenceGraph(other)
        with pytest.raises(ValueError, match="different flow set"):
            analyze(two_flow_set, SBAnalysis(), graph=graph)

    def test_buffer_variant_graph_accepted(self, didactic2):
        graph = InterferenceGraph(didactic2)
        variant = didactic2.on_platform(didactic2.platform.with_buffers(10))
        result = analyze(variant, IBNAnalysis(), graph=graph,
                         stop_at_deadline=False)
        assert result.response_time("t3") == 396  # the buf=10 value

    def test_compare_shares_graph_and_labels(self, didactic2):
        results = compare(
            didactic2, [SBAnalysis(), XLWXAnalysis(), IBNAnalysis()]
        )
        assert set(results) == {"SB", "XLWX", "IBN2"}
        assert results["IBN2"].response_time("t3") == 348


class TestBreakdown:
    def test_breakdown_off_by_default(self, two_flow_set):
        result = analyze(two_flow_set, SBAnalysis())
        assert result["lo"].breakdown == ()

    def test_breakdown_totals_reconstruct_bound(self, didactic2):
        result = analyze(
            didactic2, XLWXAnalysis(), stop_at_deadline=False,
            collect_breakdown=True,
        )
        for name in ("t2", "t3"):
            flow_result = result[name]
            total = flow_result.c + sum(t.total for t in flow_result.breakdown)
            assert total == flow_result.response_time

    def test_slack(self, didactic2):
        result = analyze(didactic2, IBNAnalysis(), stop_at_deadline=False)
        assert result["t3"].slack == 6000 - 348


class TestNonPreemptiveBlocking:
    """The linkl > 1 blocking extension (engine docstring)."""

    def make(self, linkl):
        platform = NoCPlatform(Mesh2D(4, 1), buf=4, linkl=linkl)
        return FlowSet(
            platform,
            [
                Flow("hi", priority=1, period=3000, length=12, src=0, dst=3),
                Flow("lo", priority=2, period=9000, length=24, src=1, dst=3),
            ],
        )

    def test_no_blocking_at_unit_link_latency(self):
        fs = self.make(linkl=1)
        result = analyze(fs, SBAnalysis())
        assert result.response_time("hi") == fs.c("hi")

    def test_highest_priority_flow_pays_blocking(self):
        fs = self.make(linkl=2)
        result = analyze(fs, SBAnalysis())
        # hi shares 3 links with the lower-priority lo (r1->r2, r2->r3,
        # ejection at 3): one (linkl-1)-cycle stall possible on each.
        assert result.response_time("hi") == fs.c("hi") + 3

    def test_lowest_priority_flow_pays_none(self):
        fs = self.make(linkl=2)
        with_blocking = analyze(fs, SBAnalysis(), stop_at_deadline=False)
        # lo has no lower-priority traffic below it: its bound is the
        # plain recurrence (C_lo + hits * C_hi).
        r_lo = with_blocking.response_time("lo")
        assert r_lo == fs.c("lo") + -(-r_lo // 3000) * fs.c("hi")

    def test_blocked_link_count(self):
        from repro.core.interference import InterferenceGraph

        fs = self.make(linkl=2)
        graph = InterferenceGraph(fs)
        assert graph.lower_priority_shared_links(0) == 3
        assert graph.lower_priority_shared_links(1) == 0


class TestUnsafeFlag:
    def test_labels_and_flags(self, didactic2):
        sb = analyze(didactic2, SBAnalysis())
        ibn = analyze(didactic2, IBNAnalysis())
        assert sb.unsafe and not ibn.unsafe
        assert ibn.analysis_name == "IBN2"
        assert sb.analysis_name == "SB"

"""Engine behaviour on pathological inputs: divergence and caps."""

import pytest

from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.engine import RESPONSE_CAP, analyze
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import chain


@pytest.fixture
def overloaded_link():
    """Flows whose combined demand exceeds the shared link bandwidth
    (0.6 + 0.6 > 1): the lowest-priority recurrence has no fixed point."""
    platform = NoCPlatform(chain(3), buf=2)
    return FlowSet(
        platform,
        [
            Flow("hi", priority=1, period=100, length=57, src=0, dst=2),
            Flow("mid", priority=2, period=100, length=57, src=0, dst=2),
            Flow("lo", priority=3, period=10**6, length=50, src=0, dst=2),
        ],
    )


class TestDivergence:
    def test_stop_at_deadline_terminates_quickly(self, overloaded_link):
        result = analyze(overloaded_link, SBAnalysis())
        assert not result["lo"].converged
        assert not result["lo"].schedulable
        assert result["lo"].response_time is None
        # its interferer mid gave up at its deadline, so lo is cut
        assert result["lo"].tainted

    def test_exact_mode_reports_divergence(self, overloaded_link):
        result = analyze(overloaded_link, SBAnalysis(), stop_at_deadline=False)
        lo = result["lo"]
        assert not lo.converged
        assert not lo.schedulable
        # The hard cap was passed (or the iteration budget ran out): no
        # bound, and no made-up iterate in its place.
        assert lo.response_time is None

    def test_higher_priority_flow_unaffected(self, overloaded_link):
        result = analyze(overloaded_link, SBAnalysis())
        assert result["hi"].converged
        assert result["hi"].schedulable

    def test_mid_converges_beyond_deadline(self, overloaded_link):
        # mid's recurrence converges (at 180 > D = 100): a miss that is
        # NOT a divergence — the two outcomes stay distinguishable.
        result = analyze(overloaded_link, SBAnalysis(), stop_at_deadline=False)
        assert result["mid"].converged
        assert not result["mid"].schedulable
        assert result["mid"].response_time == 180

    def test_xlwx_equally_diagnoses(self, overloaded_link):
        result = analyze(overloaded_link, XLWXAnalysis())
        assert not result.schedulable

    def test_response_cap_is_enormous(self):
        # guards against accidentally shrinking the cap below real bounds
        assert RESPONSE_CAP > 10**18


class TestDeterminism:
    def test_analyze_is_pure(self, didactic2):
        from repro.core.analyses.ibn import IBNAnalysis

        first = analyze(didactic2, IBNAnalysis(), stop_at_deadline=False)
        second = analyze(didactic2, IBNAnalysis(), stop_at_deadline=False)
        assert {n: r.response_time for n, r in first.flows.items()} == {
            n: r.response_time for n, r in second.flows.items()
        }

    def test_breakdown_flag_does_not_change_bounds(self, didactic2):
        from repro.core.analyses.ibn import IBNAnalysis

        plain = analyze(didactic2, IBNAnalysis(), stop_at_deadline=False)
        detailed = analyze(
            didactic2, IBNAnalysis(), stop_at_deadline=False,
            collect_breakdown=True,
        )
        for name in plain.flows:
            assert (
                plain[name].response_time == detailed[name].response_time
            )

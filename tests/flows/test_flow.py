"""Flow value-object validation and helpers."""

import pytest

from repro.flows.flow import Flow


def make(**overrides):
    defaults = dict(
        name="f", priority=1, period=100, length=10, src=0, dst=1
    )
    defaults.update(overrides)
    return Flow(**defaults)


class TestValidation:
    def test_deadline_defaults_to_period(self):
        assert make().deadline == 100

    def test_explicit_deadline(self):
        assert make(deadline=50).deadline == 50

    def test_rejects_deadline_beyond_period(self):
        with pytest.raises(ValueError, match="constrained"):
            make(deadline=101)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("priority", 0),
            ("period", 0),
            ("length", 0),
            ("jitter", -1),
            ("deadline", 0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            make(**{field: value})

    def test_error_messages_name_the_flow(self):
        with pytest.raises(ValueError, match="f:"):
            make(period=0)


class TestTimingLimit:
    """Periods and jitters are bounded by 2**60, the response cap."""

    @pytest.mark.parametrize("field", ["period", "jitter"])
    def test_limit_itself_is_accepted(self, field):
        assert getattr(make(**{field: 2**60}), field) == 2**60

    @pytest.mark.parametrize("field", ["period", "jitter"])
    def test_beyond_the_limit_raises_naming_it(self, field):
        with pytest.raises(ValueError, match=r"<= 2\*\*60"):
            make(**{field: 2**60 + 1})

    def test_limit_is_the_response_cap(self):
        from repro.core.engine import RESPONSE_CAP
        from repro.flows.flow import RESPONSE_CAP as FLOW_LIMIT

        assert RESPONSE_CAP == FLOW_LIMIT == 2**60


class TestHelpers:
    def test_with_priority_copies(self):
        flow = make()
        changed = flow.with_priority(7)
        assert changed.priority == 7
        assert flow.priority == 1
        assert changed.period == flow.period

    def test_with_mapping(self):
        changed = make().with_mapping(3, 4)
        assert (changed.src, changed.dst) == (3, 4)

    def test_is_local(self):
        assert make(src=2, dst=2).is_local
        assert not make().is_local

    def test_utilization(self):
        assert make(period=200).utilization(50) == 0.25

    def test_str_mentions_route_endpoints(self):
        assert "0→1" in str(make())

    def test_flows_are_hashable_value_objects(self):
        assert make() == make()
        assert hash(make()) == hash(make())
        assert make() != make(length=11)

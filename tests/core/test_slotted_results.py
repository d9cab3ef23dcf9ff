"""Guard: the slotted value classes stay drop-in.

``Flow`` and ``FlowResult`` are frozen dataclasses with ``__slots__``:
no per-instance ``__dict__``.  Pool workers and the serving tier ship
them by pickle, callers copy flows with ``dataclasses.replace``, and the
batch engine builds its results through ``_flow_result_fast``, which
must stay equal to the dataclass constructor.
"""

import dataclasses
import pickle

from repro.core.analyses.ibn import IBNAnalysis
from repro.core.batch import Scenario, analyze_batch
from repro.core.engine import AnalysisResult, FlowResult, _flow_result_fast, analyze
from repro.flows.flow import Flow


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def test_instances_carry_no_dict():
    flow = Flow("f", priority=1, period=100, length=4, src=0, dst=3)
    result = FlowResult("f", 1, 5, 100, 20, True, False)
    for value in (flow, result):
        assert not hasattr(value, "__dict__")
        assert type(value).__slots__


def test_flow_survives_pickle_and_copies():
    flow = Flow("f", priority=2, period=100, length=4, src=0, dst=3,
                jitter=7)
    assert flow.deadline == 100  # filled in by __post_init__
    clone = _roundtrip(flow)
    assert clone == flow and hash(clone) == hash(flow)
    assert flow.with_priority(5) == dataclasses.replace(flow, priority=5)
    moved = flow.with_mapping(4, 9)
    assert (moved.src, moved.dst, moved.jitter) == (4, 9, 7)
    assert dataclasses.replace(flow, deadline=50).deadline == 50


def test_fast_constructor_equals_the_dataclass_field_for_field():
    args = ("f3", 3, 17, 400, 123, True, False)
    fast = _flow_result_fast(*args)
    slow = FlowResult(*args)
    assert type(fast) is FlowResult
    for field in dataclasses.fields(FlowResult):
        assert getattr(fast, field.name) == getattr(slow, field.name), field
    assert fast == slow and hash(fast) == hash(slow)
    assert fast.schedulable and fast.slack == 277


def _same_result(a: AnalysisResult, b: AnalysisResult) -> None:
    assert a.analysis_name == b.analysis_name
    assert (a.unsafe, a.complete) == (b.unsafe, b.complete)
    assert a.flowset.flows == b.flowset.flows
    assert a.flows == b.flows


def test_analysis_results_survive_pickle(didactic2):
    scalar = analyze(didactic2, IBNAnalysis(), collect_breakdown=True)
    [batched] = analyze_batch([Scenario(didactic2, IBNAnalysis())])
    for result in (scalar, batched):
        clone = _roundtrip(result)
        _same_result(clone, result)
        assert all(type(r) is FlowResult for r in clone.flows.values())
    _same_result(batched, analyze(didactic2, IBNAnalysis()))
    breakdowns = [r.breakdown for r in _roundtrip(scalar).flows.values()]
    assert breakdowns == [r.breakdown for r in scalar.flows.values()]
    assert any(breakdowns)

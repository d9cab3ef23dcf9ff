"""Design-space tools built on the buffer-aware analysis.

The paper establishes that IBN's bounds — and therefore schedulability —
degrade monotonically as per-VC buffers grow.  That monotonicity (property
tested in the suite) turns two practical design questions into binary
searches:

* :func:`max_schedulable_buffer_depth` — the deepest buffer a platform
  can afford while the traffic stays provably schedulable.  Deeper
  buffers improve average-case throughput, so designers want the largest
  depth that still passes the worst-case test;
* :func:`length_scaling_margin` — how much every packet could grow (or
  must shrink) before the schedulability verdict flips: a robustness
  metric for a given deployment.

Both return exact integers/ratios under the chosen analysis, and both
accept any analysis object (defaulting to IBN, the tightest safe one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.analyses.base import Analysis
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.engine import is_schedulable
from repro.flows.flowset import FlowSet


@dataclass(frozen=True)
class BufferSizingResult:
    """Outcome of :func:`max_schedulable_buffer_depth`."""

    #: deepest schedulable depth in [lo, hi], or None if even ``lo`` fails.
    max_depth: int | None
    #: True when ``hi`` itself was schedulable — the verdict is then
    #: "at least hi", not a maximum (for buffer-independent analyses this
    #: is the common case).
    unbounded_within_range: bool = False


def max_schedulable_buffer_depth(
    flowset: FlowSet,
    *,
    analysis: Analysis | None = None,
    lo: int = 1,
    hi: int = 1024,
) -> BufferSizingResult:
    """Largest per-VC buffer depth in ``[lo, hi]`` keeping the set schedulable.

    Relies on schedulability being monotone non-increasing in the depth,
    which holds for IBN (Equation 6 grows with ``buf``) and trivially for
    the buffer-independent analyses.

    >>> from repro.workloads.didactic import didactic_flowset
    >>> result = max_schedulable_buffer_depth(didactic_flowset())
    >>> result.unbounded_within_range   # didactic set holds at any depth
    True
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if analysis is None:
        analysis = IBNAnalysis()

    def schedulable_at(depth: int) -> bool:
        variant = flowset.on_platform(flowset.platform.with_buffers(depth))
        return is_schedulable(variant, analysis)

    if not schedulable_at(lo):
        return BufferSizingResult(max_depth=None)
    if schedulable_at(hi):
        return BufferSizingResult(max_depth=hi, unbounded_within_range=True)
    # invariant: schedulable at `low`, not schedulable at `high`
    low, high = lo, hi
    while high - low > 1:
        mid = (low + high) // 2
        if schedulable_at(mid):
            low = mid
        else:
            high = mid
    return BufferSizingResult(max_depth=low)


def length_scaling_margin(
    flowset: FlowSet,
    *,
    analysis: Analysis | None = None,
    hi: float = 64.0,
    resolution: float = 0.01,
) -> float:
    """Largest factor λ such that scaling every packet length by λ keeps
    the flow set schedulable.

    λ > 1 means headroom (payloads could grow); λ < 1 means the set is
    only schedulable after shrinking packets; 0.0 means not schedulable
    even with single-flit packets (the header path alone misses a
    deadline).  Scaled lengths are ``max(1, round(λ·L_i))``, so the
    verdict is monotone in λ and binary search applies.
    """
    if hi <= 0:
        raise ValueError(f"hi must be positive, got {hi}")
    if resolution <= 0:
        raise ValueError(f"resolution must be positive, got {resolution}")
    if analysis is None:
        analysis = IBNAnalysis()

    def schedulable_at(scale: float) -> bool:
        scaled = [
            replace(flow, length=max(1, round(flow.length * scale)))
            for flow in flowset.flows
        ]
        variant = FlowSet(flowset.platform, scaled)
        return is_schedulable(variant, analysis)

    tiny = resolution
    if not schedulable_at(tiny):
        return 0.0
    if schedulable_at(hi):
        return hi
    low, high = tiny, hi
    while high - low > resolution:
        mid = (low + high) / 2
        if schedulable_at(mid):
            low = mid
        else:
            high = mid
    return low


def sizing_summary(
    flowset: FlowSet,
    *,
    analysis: Analysis | None = None,
    max_depth: int = 1024,
) -> dict:
    """JSON-able design-space summary: buffer headroom + payload margin.

    The request-friendly face of :func:`max_schedulable_buffer_depth` and
    :func:`length_scaling_margin`, shared by ``python -m repro sizing
    --json`` and the ``POST /sizing`` endpoint of :mod:`repro.serve`.

    >>> from repro.workloads.didactic import didactic_flowset
    >>> summary = sizing_summary(didactic_flowset(), max_depth=16)
    >>> summary["max_schedulable_buffer_depth"]["unbounded_within_range"]
    True
    """
    depth = max_schedulable_buffer_depth(flowset, analysis=analysis, hi=max_depth)
    margin = length_scaling_margin(flowset, analysis=analysis)
    return {
        "max_schedulable_buffer_depth": {
            "max_depth": depth.max_depth,
            "searched_up_to": max_depth,
            "unbounded_within_range": depth.unbounded_within_range,
        },
        "length_scaling_margin": round(margin, 4),
    }


def contention_pressure(flowset: FlowSet, *, graph=None) -> dict[int, int]:
    """How many contention domains each router's buffers participate in.

    For every direct-interference pair (τi, τj), every link of their
    contention domain contributes one count to the router whose buffer
    backs that link.  High-pressure routers are where deep buffers inflate
    Equation 6 — and therefore where the paper's insight says to keep
    buffers shallow.  Pass ``graph`` to reuse a pre-built interference
    graph (the geometry is buffer-independent).
    """
    from repro.core.interference import InterferenceGraph

    if graph is None:
        graph = InterferenceGraph(flowset)
    platform = flowset.platform
    topology = platform.topology
    pressure = {router: 0 for router in range(topology.num_routers)}
    for i, flow in enumerate(flowset.flows):
        for j in graph.direct_by_index(i):
            for link_id in graph.cd_links_by_index(i, j):
                link = topology.link(link_id)
                owner = link.src if link.kind.value == "ejection" else link.dst
                pressure[owner] += 1
    return pressure


def allocate_buffers(
    flowset: FlowSet,
    *,
    shallow: int = 2,
    deep: int = 16,
    analysis: Analysis | None = None,
) -> FlowSet | None:
    """Contention-aware heterogeneous buffer allocation.

    Greedy application of the paper's insight: start with ``deep`` buffers
    everywhere (good for average-case throughput), then — while the set is
    not provably schedulable — shrink the highest-pressure router to
    ``shallow``.  Returns the first schedulable heterogeneous variant, or
    ``None`` when even all-shallow fails.
    """
    if not 1 <= shallow <= deep:
        raise ValueError(f"need 1 <= shallow <= deep, got {shallow}, {deep}")
    if analysis is None:
        analysis = IBNAnalysis()
    pressure = contention_pressure(flowset)
    order = sorted(pressure, key=lambda r: pressure[r], reverse=True)
    buf_map: dict[int, int] = {}
    candidates = [None, *range(1, len(order) + 1)]
    for shrink_count in candidates:
        if shrink_count is not None:
            buf_map = {r: shallow for r in order[:shrink_count]}
        variant = flowset.on_platform(
            flowset.platform.with_buffers(deep, buf_map=buf_map)
        )
        if is_schedulable(variant, analysis):
            return variant
    return None


def slack_table(flowset: FlowSet, *, analysis: Analysis | None = None) -> str:
    """Per-flow slack report (deadline − bound): unbounded, then tightest."""
    from repro.core.engine import analyze
    from repro.core.report import bound_cell

    if analysis is None:
        analysis = IBNAnalysis()
    result = analyze(flowset, analysis, stop_at_deadline=False)
    rows = sorted(
        result.flows.values(),
        key=lambda r: (r.slack is not None, r.slack or 0),
    )
    lines = [f"slack under {result.analysis_name} (tightest first):"]
    for row in rows:
        verdict = "ok" if row.schedulable else "MISS"
        lines.append(
            f"  {row.name:<12} R={bound_cell(row.response_time):>8}"
            f"  D={row.deadline:>8}  slack={bound_cell(row.slack):>8}"
            f"  {verdict}"
        )
    return "\n".join(lines)

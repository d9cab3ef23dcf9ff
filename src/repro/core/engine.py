"""Priority-ordered fixed-point engine for the response-time analyses.

All analyses in this family share the outer recurrence (paper Equation 5
shape); this module owns that recurrence, the priority-ordered scheduling
of per-flow computations, convergence/divergence handling and result
book-keeping, so each analysis class only contributes its interference
terms.

Flows are processed from highest to lowest priority.  Every quantity an
analysis needs about other flows (their response time ``R_j``, the per-hit
cost ``C_k + I^down_kj`` and total contribution ``I_kj`` of *their*
interferers) refers strictly up the priority order, so a single pass
suffices and no global fixed point across flows is required.

The give-up rule, kept by the batch engine and its C kernel too: a
recurrence that passes its deadline (:data:`RESPONSE_CAP` without
``stop_at_deadline``) or exhausts ``MAX_ITERATIONS`` has no bound
(``response_time=None``), and a flow with an unconverged direct
interferer is *cut* (``tainted``, no bound, not iterated): Equation 5's
window jitter ``R_j − C_j`` needs ``R_j``.  No made-up iterate is ever
reported or used as another flow's jitter.

Pointwise order
---------------
Every recurrence starts cold at ``C_i``.  All recurrences in this family
are monotone non-decreasing integer maps, and the analyses are pointwise
ordered: with shared flows/routes/timing,
``R^SB_i ≤ R^IBN(b)_i ≤ R^IBN(b')_i ≤ R^XLWX_i`` for buffer depths
``b ≤ b'`` (each looser analysis evaluates a pointwise-larger recurrence
given pointwise-larger inputs, by induction up the priority order).
:func:`analysis_pointwise_le` encodes the provable pairs; the sweep
campaigns bisect their verdict chains along it, since a deadline missed
under a tighter analysis is missed under every looser one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping

from repro.core.analyses.base import Analysis, AnalysisContext
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.interference import InterferenceGraph
from repro.flows.flow import RESPONSE_CAP
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.util.mathx import FixedPointDiverged, ceil_div, fixed_point


@dataclass(frozen=True)
class InterferenceTerm:
    """One direct interferer's contribution to a flow's bound (breakdown)."""

    interferer: str
    hits: int
    hit_cost: int
    downstream_term: int
    window_jitter: int

    @property
    def total(self) -> int:
        """This interferer's total contribution (hits x per-hit cost)."""
        return self.hits * self.hit_cost


@dataclass(frozen=True, slots=True)
class FlowResult:
    """Outcome of one analysis for one flow.

    ``response_time`` is the converged bound when ``converged`` is True,
    and ``None`` otherwise: the recurrence passed its give-up (the
    deadline, by default) or ran out of iterations, or the flow was cut.
    ``tainted`` marks a *cut* flow: one with an unconverged direct
    interferer, which is not iterated at all (see the module docstring).
    """

    name: str
    priority: int
    c: int
    deadline: int
    response_time: int | None
    converged: bool
    tainted: bool
    breakdown: tuple[InterferenceTerm, ...] = field(default=())

    @property
    def schedulable(self) -> bool:
        """True when the flow's converged bound meets its deadline."""
        return self.converged and self.response_time <= self.deadline

    @property
    def slack(self) -> int | None:
        """Deadline minus bound (negative when missed), ``None`` without
        a bound."""
        bound = self.response_time
        return None if bound is None else self.deadline - bound


#: The slot descriptors' setters of :class:`FlowResult`, in field order.
_FLOW_RESULT_SETTERS = tuple(
    FlowResult.__dict__[f.name].__set__ for f in fields(FlowResult)
)


def _flow_result_fast(
    name: str, priority: int, c: int, deadline: int,
    response_time: int | None, converged: bool, tainted: bool,
) -> FlowResult:
    """Breakdown-free :class:`FlowResult` without the frozen-dataclass
    ``__init__`` overhead (``object.__setattr__`` per field): it fills
    the slots through their descriptors.  The batch engine materialises
    tens of thousands of these per call; a test keeps it equal to
    ``FlowResult(...)``.
    """
    (set_name, set_priority, set_c, set_deadline, set_response,
     set_converged, set_tainted, set_breakdown) = _FLOW_RESULT_SETTERS
    result = object.__new__(FlowResult)
    set_name(result, name)
    set_priority(result, priority)
    set_c(result, c)
    set_deadline(result, deadline)
    set_response(result, response_time)
    set_converged(result, converged)
    set_tainted(result, tainted)
    set_breakdown(result, ())
    return result


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one analysis over a whole flow set."""

    analysis_name: str
    unsafe: bool
    flowset: FlowSet
    flows: Mapping[str, FlowResult]
    complete: bool = True
    #: internal computation context, kept only when the caller asked for
    #: breakdowns; powers :func:`repro.core.report.explain_flow`.
    context: "AnalysisContext | None" = None

    @property
    def schedulable(self) -> bool:
        """True when every analysed flow meets its deadline.

        Only meaningful when ``complete`` is True (no early exit).
        """
        return self.complete and all(r.schedulable for r in self.flows.values())

    @property
    def num_schedulable(self) -> int:
        """How many analysed flows meet their deadline."""
        return sum(1 for r in self.flows.values() if r.schedulable)

    def response_time(self, name: str) -> int | None:
        """Worst-case bound of one flow (see :class:`FlowResult`)."""
        return self.flows[name].response_time

    def __getitem__(self, name: str) -> FlowResult:
        return self.flows[name]


def analyze(
    flowset: FlowSet,
    analysis: Analysis,
    *,
    graph: InterferenceGraph | None = None,
    stop_at_deadline: bool = True,
    early_exit: bool = False,
    collect_breakdown: bool = False,
) -> AnalysisResult:
    """Compute worst-case response times for every flow of ``flowset``.

    Parameters
    ----------
    graph:
        A pre-built interference graph for this flow set.  Pass one when
        running several analyses over the same flows (see :func:`compare`)
        to share the O(n²) contention geometry.
    stop_at_deadline:
        Give a flow's recurrence up as soon as it exceeds its deadline
        (the verdict can no longer change).  Disable to obtain the exact
        fixed point beyond the deadline, e.g. for latency tables; the
        give-up is then :data:`RESPONSE_CAP`.
    early_exit:
        Abandon the whole run at the first deadline miss; the result then
        has ``complete=False`` and covers only the flows processed so far.
        This is the fast path for large schedulability sweeps.
    collect_breakdown:
        Record per-interferer terms on each
        :class:`FlowResult` (memory-heavy on large sets; off by default).
    """
    if graph is None:
        graph = InterferenceGraph(flowset)
    elif not graph.compatible_with(flowset):
        raise ValueError("interference graph was built for a different flow set")
    ctx = AnalysisContext(flowset=flowset, graph=graph)
    results: dict[str, FlowResult] = {}
    complete = True
    # Most analyses keep the default interference jitter J^I_j = R_j − C_j;
    # recognising that up front lets the term loop read the arrays
    # directly instead of making two method calls per interferer.
    default_jitter = type(analysis).indirect_jitter is Analysis.indirect_jitter
    # Unconverged flows as an index bitmask: flow i is cut when S^D_i
    # intersects it — one `&` instead of a scan over the direct set.
    direct_masks = graph.direct_masks
    unconverged_mask = 0
    for i, flow in enumerate(ctx.flows):
        c_i = ctx.c[i]
        if flow.is_local:
            ctx.response[i] = 0
            results[flow.name] = FlowResult(
                flow.name, flow.priority, c=0, deadline=flow.deadline,
                response_time=0, converged=True, tainted=False,
            )
            continue
        if unconverged_mask and direct_masks[i] & unconverged_mask:  # cut
            unconverged_mask |= 1 << i
            results[flow.name] = FlowResult(
                flow.name, flow.priority, c=c_i, deadline=flow.deadline,
                response_time=None, converged=False, tainted=True,
            )
            if early_exit:
                complete = False
                break
            continue

        # Non-preemptive blocking (extension beyond the paper, which uses
        # linkl = 1 throughout): with multi-cycle links, arbitration only
        # switches at flit boundaries, so τi can stall up to linkl−1 cycles
        # behind an in-flight lower-priority flit on every route link that
        # lower-priority traffic also uses — once at the start and once
        # after every preemption (each hit can force a re-acquisition of
        # those links).  Zero when linkl == 1, keeping the paper's
        # equations (and the Table II oracle) byte-identical.
        linkl = flowset.platform.linkl
        blocking_unit = 0
        if linkl > 1:
            blocking_unit = (linkl - 1) * graph.lower_priority_shared_links(i)

        # The recurrence body is the innermost loop of every campaign:
        # evaluate it over parallel per-term arrays with the ceiling
        # inlined as floor division, all per-iteration invariants
        # (blocking, per-hit costs) folded in up front.
        terms: list[tuple[int, int, int, int]] = []  # (j, period, window_jitter, hit_cost)
        for j in graph.direct_by_index(i):
            downstream_term = analysis.downstream_term(ctx, i, j)
            if downstream_term < 0:
                raise ValueError(
                    f"{analysis.name}: negative downstream term for pair "
                    f"({flow.name!r}, {ctx.flows[j].name!r})"
                )
            hit_cost = ctx.c[j] + downstream_term
            ctx.hit_term[(i, j)] = hit_cost
            if default_jitter:
                window_jitter = ctx.jitter[j] + ctx.response[j] - ctx.c[j]
            else:
                window_jitter = ctx.jitter[j] + analysis.indirect_jitter(ctx, i, j)
            terms.append((j, ctx.period[j], window_jitter, hit_cost))

        base = c_i + blocking_unit
        if blocking_unit:
            term_array = [
                (j, period, window_jitter, hit_cost + blocking_unit)
                for j, period, window_jitter, hit_cost in terms
            ]
        else:
            # linkl == 1 (the paper's setting): per-hit cost is hit_cost
            # itself, so the recurrence reads the terms list directly.
            term_array = terms

        def recurrence(r: int) -> int:
            total = base
            for _, period, window_jitter, cost in term_array:
                total += -(-(r + window_jitter) // period) * cost
            return total

        give_up = flow.deadline if stop_at_deadline else RESPONSE_CAP
        try:
            response, converged = fixed_point(
                recurrence, c_i, give_up_above=give_up
            )
        except FixedPointDiverged:
            converged = False

        if converged:
            ctx.response[i] = response
            total = ctx.total
            for j, period, window_jitter, hit_cost in terms:
                total[(i, j)] = (
                    -(-(response + window_jitter) // period) * hit_cost
                )
        else:
            response = None
            unconverged_mask |= 1 << i
        breakdown: tuple[InterferenceTerm, ...] = ()
        if collect_breakdown and converged:
            breakdown = tuple(
                InterferenceTerm(
                    interferer=ctx.flows[j].name,
                    hits=ceil_div(response + window_jitter, period),
                    hit_cost=hit_cost,
                    downstream_term=hit_cost - ctx.c[j],
                    window_jitter=window_jitter,
                )
                for j, period, window_jitter, hit_cost in terms
            )
        results[flow.name] = FlowResult(
            name=flow.name,
            priority=flow.priority,
            c=c_i,
            deadline=flow.deadline,
            response_time=response,
            converged=converged,
            tainted=False,
            breakdown=breakdown,
        )
        if early_exit and not results[flow.name].schedulable:
            complete = False
            break

    return AnalysisResult(
        analysis_name=analysis.label(flowset.platform.buf),
        unsafe=analysis.unsafe,
        flowset=flowset,
        flows=results,
        complete=complete,
        context=ctx if collect_breakdown else None,
    )


def is_schedulable(
    flowset: FlowSet,
    analysis: Analysis,
    *,
    graph: InterferenceGraph | None = None,
) -> bool:
    """Fast set-level verdict: does every flow meet its deadline?"""
    result = analyze(flowset, analysis, graph=graph, early_exit=True)
    return result.complete and result.schedulable


def _timing_equal(a: NoCPlatform, b: NoCPlatform) -> bool:
    """Do two platforms agree on everything the recurrences read except
    the buffer depth (topology, routing, link/routing latencies)?"""
    return (
        a is b
        or (
            a.topology is b.topology
            and type(a.routing) is type(b.routing)
            and a.linkl == b.linkl
            and a.routl == b.routl
        )
    )


def analysis_pointwise_le(
    tight: Analysis,
    loose: Analysis,
    tight_platform: NoCPlatform,
    loose_platform: NoCPlatform,
) -> bool:
    """Is ``tight`` guaranteed pointwise ≤ ``loose`` on shared flows?

    True only for pairs with a proof (see the module docstring's ordering
    argument); the safe default is False.  The recognised chain, for
    platforms differing at most in buffer depth:

    * SB ≤ {SB, IBN (any knobs/depth), XLWX} — SB's terms are the common
      floor: zero downstream cost, default interference jitter;
    * IBN(buf b) ≤ IBN(buf b') for ``b ≤ b'`` on homogeneous platforms
      with the same knobs (Equation 6's cap grows with the depth), and
      IBN with the buffer cap ≤ the same-rule variant without it;
      ``upstream_rule="pairwise"`` ≤ ``"any_upstream"`` (the conservative
      rule falls back to the larger XLWX term on more pairs);
    * IBN (any knobs/depth) ≤ XLWX — the application rule's fallback *is*
      XLWX's term, and the non-fallback term recounts hits without the
      ``J^I_k`` inflation and caps them;
    * XLWX ≤ XLWX.

    XLW16 (and other unsafe analyses beyond SB) are deliberately absent:
    its upstream-jitter replacement is not comparable term-by-term.
    """
    if not _timing_equal(tight_platform, loose_platform):
        return False
    if isinstance(tight, SBAnalysis):
        return isinstance(loose, (SBAnalysis, IBNAnalysis, XLWXAnalysis))
    if isinstance(tight, IBNAnalysis):
        if isinstance(loose, XLWXAnalysis):
            return True
        if not isinstance(loose, IBNAnalysis):
            return False
        rule_le = tight.upstream_rule == loose.upstream_rule or (
            tight.upstream_rule == "pairwise"
            and loose.upstream_rule == "any_upstream"
        )
        if not rule_le:
            return False
        if not loose.use_buffer_bound:
            return True
        if not tight.use_buffer_bound:
            return False
        return (
            tight_platform.is_homogeneous
            and loose_platform.is_homogeneous
            and tight_platform.buf <= loose_platform.buf
        )
    if isinstance(tight, XLWXAnalysis):
        return isinstance(loose, XLWXAnalysis)
    return False


def tightness_rank(analysis: Analysis, platform: NoCPlatform) -> tuple[int, int]:
    """Position in the tightness chain that verdict bisection sorts by
    (:func:`repro.experiments.schedulability_sweep.spec_verdicts`).
    Validity is always re-checked with :func:`analysis_pointwise_le`;
    this only orders the attempts.  Analysis subclasses unknown to this
    module get the last rank — they take no part in verdict inference,
    which is always safe."""
    if isinstance(analysis, SBAnalysis):
        return (0, 0)
    if isinstance(analysis, IBNAnalysis):
        if analysis.use_buffer_bound:
            return (1, platform.buf)
        return (2, 0)
    if isinstance(analysis, XLWXAnalysis):
        return (3, 0)
    return (4, 0)


def compare(
    flowset: FlowSet,
    analyses: Iterable[Analysis],
    *,
    stop_at_deadline: bool = False,
    collect_breakdown: bool = False,
) -> dict[str, AnalysisResult]:
    """Run several analyses over one flow set, sharing the contention graph.

    Returns a dict keyed by each analysis' display label, in the order the
    analyses were given.  The default ``stop_at_deadline=False`` yields
    exact fixed points (suitable for latency tables like the paper's
    Table II).
    """
    graph = InterferenceGraph(flowset)
    results: dict[str, AnalysisResult] = {}
    for analysis in analyses:
        result = analyze(
            flowset,
            analysis,
            graph=graph,
            stop_at_deadline=stop_at_deadline,
            collect_breakdown=collect_breakdown,
        )
        results[result.analysis_name] = result
    return results

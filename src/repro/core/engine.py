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

Warm-started fixed points
-------------------------
All recurrences in this family are monotone non-decreasing integer maps,
and the analyses are pointwise ordered: with shared flows/routes/timing,
``R^SB_i ≤ R^IBN(b)_i ≤ R^IBN(b')_i ≤ R^XLWX_i`` for buffer depths
``b ≤ b'`` (each looser analysis evaluates a pointwise-larger recurrence
given pointwise-larger inputs, by induction up the priority order).  A
*converged* bound of a tighter analysis is therefore a valid starting
iterate for a looser one: it is ≤ the looser fixed point, and iterating a
monotone map from any point between the cold start and the least fixed
point reaches that same fixed point.  :func:`analyze` accepts such a
result via ``warm_from`` and typically collapses most iterations;
:func:`compare` (and the sweep campaigns) chain the analyses along
:func:`analysis_pointwise_le` automatically.  Results are identical to
cold runs in every field — when a warm-started iteration fails to
converge, the cold iteration is replayed so even the reported
beyond-deadline iterate matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping

from repro.core.analyses.base import Analysis, AnalysisContext
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.interference import InterferenceGraph
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.util.mathx import FixedPointDiverged, ceil_div, fixed_point

#: Hard ceiling for response times when ``stop_at_deadline`` is disabled.
#: Any response time beyond this is reported as diverged; it exists only to
#: keep pathological recurrences (overloaded links) from looping forever.
RESPONSE_CAP = 1 << 62


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

    ``response_time`` is the converged bound when ``converged`` is True;
    otherwise it is the first iterate beyond the give-up threshold (the
    deadline, by default) and only its *unschedulable* verdict is
    meaningful.  ``tainted`` marks flows whose bound depends (transitively)
    on an unconverged higher-priority flow.
    """

    name: str
    priority: int
    c: int
    deadline: int
    response_time: int
    converged: bool
    tainted: bool
    breakdown: tuple[InterferenceTerm, ...] = field(default=())

    @property
    def schedulable(self) -> bool:
        """True when the flow's converged bound meets its deadline."""
        return self.converged and self.response_time <= self.deadline

    @property
    def slack(self) -> int:
        """Deadline minus bound (negative or meaningless when missed)."""
        return self.deadline - self.response_time


#: The slot descriptors' setters of :class:`FlowResult`, in field order.
_FLOW_RESULT_SETTERS = tuple(
    FlowResult.__dict__[f.name].__set__ for f in fields(FlowResult)
)


def _flow_result_fast(
    name: str, priority: int, c: int, deadline: int,
    response_time: int, converged: bool, tainted: bool,
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

    def response_time(self, name: str) -> int:
        """Worst-case bound of one flow (see :class:`FlowResult`)."""
        return self.flows[name].response_time

    def __getitem__(self, name: str) -> FlowResult:
        return self.flows[name]


def _solve_recurrence(
    recurrence: Callable[[int], int],
    cold_start: int,
    warm_start: int,
    give_up: int,
) -> tuple[int, bool]:
    """Fixed point of ``recurrence``, byte-identical to a cold start.

    When ``cold_start < warm_start ≤ give_up`` the iteration begins
    there; a valid warm start (≤ the least fixed point above
    ``cold_start``) converges to exactly the cold result.  A warm start
    already beyond ``give_up`` is ignored outright — a cold run can never
    *converge* above the cut-off, only report the first iterate crossing
    it, so starting there could fabricate a converged verdict (e.g. an
    exact ``stop_at_deadline=False`` bound warm-starting a capped run).
    If the warm iteration fails to converge — it overran ``give_up``,
    hit the iteration budget, or the start was invalid (the recurrence
    dipped below it) — the cold iteration is replayed so the reported
    iterate matches a cold run bit for bit.
    """
    if cold_start < warm_start <= give_up:
        try:
            response, converged = fixed_point(
                recurrence, warm_start, give_up_above=give_up
            )
            if converged:
                return response, True
        except (FixedPointDiverged, ValueError):
            pass
    try:
        return fixed_point(recurrence, cold_start, give_up_above=give_up)
    except FixedPointDiverged as diverged:
        return diverged.last_value, False


def analyze(
    flowset: FlowSet,
    analysis: Analysis,
    *,
    graph: InterferenceGraph | None = None,
    stop_at_deadline: bool = True,
    early_exit: bool = False,
    collect_breakdown: bool = False,
    warm_from: "AnalysisResult | None" = None,
) -> AnalysisResult:
    """Compute worst-case response times for every flow of ``flowset``.

    Parameters
    ----------
    graph:
        A pre-built interference graph for this flow set.  Pass one when
        running several analyses over the same flows (see :func:`compare`)
        to share the O(n²) contention geometry.
    stop_at_deadline:
        Stop iterating a flow's recurrence as soon as it exceeds its
        deadline (the verdict can no longer change).  Disable to obtain the
        exact fixed point beyond the deadline, e.g. for latency tables.
    early_exit:
        Abandon the whole run at the first deadline miss; the result then
        has ``complete=False`` and covers only the flows processed so far.
        This is the fast path for large schedulability sweeps.
    collect_breakdown:
        Record per-interferer terms on each
        :class:`FlowResult` (memory-heavy on large sets; off by default).
    warm_from:
        Result of a *pointwise tighter or equal* analysis over the same
        flows/routes/timing (see :func:`analysis_pointwise_le` and the
        module docstring) used to warm-start each flow's fixed point.
        Only converged, untainted per-flow bounds are used; the returned
        result is identical to a cold run in every field.  The caller is
        responsible for the ordering — an invalid source can silently
        produce a larger fixed point.
    """
    if graph is None:
        graph = InterferenceGraph(flowset)
    elif not graph.compatible_with(flowset):
        raise ValueError("interference graph was built for a different flow set")
    warm_flows: Mapping[str, FlowResult] | None = None
    if (
        warm_from is not None
        and graph.compatible_with(warm_from.flowset)
        and _timing_equal(flowset.platform, warm_from.flowset.platform)
    ):
        # Both checks matter: the graph check ignores linkl/routl (the
        # geometry is latency-agnostic), but a warm source computed under
        # different timing could exceed this recurrence's fixed point and
        # silently inflate it.  Incompatible sources degrade to cold runs.
        warm_flows = warm_from.flows
    ctx = AnalysisContext(flowset=flowset, graph=graph)
    results: dict[str, FlowResult] = {}
    complete = True
    # Most analyses keep the default interference jitter J^I_j = R_j − C_j;
    # recognising that up front lets the term loop read the arrays
    # directly instead of making two method calls per interferer.
    default_jitter = type(analysis).indirect_jitter is Analysis.indirect_jitter
    # Taint state as an index bitmask: flow i is tainted when S^D_i
    # intersects the mask of unconverged-or-tainted flows — one `&`
    # instead of a scan over the direct set.
    direct_masks = graph.direct_masks
    tainted_mask = 0
    for i, flow in enumerate(ctx.flows):
        c_i = ctx.c[i]
        if flow.is_local:
            ctx.response[i] = 0
            ctx.converged[i] = True
            results[flow.name] = FlowResult(
                flow.name, flow.priority, c=0, deadline=flow.deadline,
                response_time=0, converged=True, tainted=False,
            )
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
        warm_start = 0
        if warm_flows is not None:
            warm = warm_flows.get(flow.name)
            # Only a converged, untainted bound is a true fixed point of a
            # pointwise-smaller recurrence, hence a safe starting iterate.
            if warm is not None and warm.converged and not warm.tainted:
                warm_start = warm.response_time
        response, converged = _solve_recurrence(
            recurrence, c_i, warm_start, give_up
        )

        ctx.response[i] = response
        ctx.converged[i] = converged
        total = ctx.total
        for j, period, window_jitter, hit_cost in terms:
            total[(i, j)] = (
                -(-(response + window_jitter) // period) * hit_cost
            )
        tainted = bool(tainted_mask and direct_masks[i] & tainted_mask)
        if not converged or tainted:
            tainted_mask |= 1 << i
        breakdown: tuple[InterferenceTerm, ...] = ()
        if collect_breakdown:
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
            tainted=tainted,
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
    warm_from: AnalysisResult | None = None,
) -> bool:
    """Fast set-level verdict: does every flow meet its deadline?"""
    result = analyze(
        flowset, analysis, graph=graph, early_exit=True, warm_from=warm_from
    )
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
    """Heuristic execution order so tighter analyses run first and their
    results are available as warm starts.  Validity is always re-checked
    with :func:`analysis_pointwise_le`; this only orders the attempts.
    Analysis subclasses unknown to this module get the last rank — they
    simply run cold, with no warm-start or verdict-inference
    participation, which is always safe."""
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

    Internally the analyses execute tightest-first so each can warm-start
    from the closest pointwise-tighter result already computed (module
    docstring); every returned result is identical to a cold run.
    """
    graph = InterferenceGraph(flowset)
    ordered = sorted(
        enumerate(analyses),
        key=lambda item: (tightness_rank(item[1], flowset.platform), item[0]),
    )
    computed: dict[int, AnalysisResult] = {}
    sources: list[tuple[Analysis, AnalysisResult]] = []
    for index, analysis in ordered:
        warm = None
        for src_analysis, src_result in reversed(sources):
            if analysis_pointwise_le(
                src_analysis, analysis, flowset.platform, flowset.platform
            ):
                warm = src_result
                break
        result = analyze(
            flowset,
            analysis,
            graph=graph,
            stop_at_deadline=stop_at_deadline,
            collect_breakdown=collect_breakdown,
            warm_from=warm,
        )
        computed[index] = result
        sources.append((analysis, result))
    return {
        computed[index].analysis_name: computed[index]
        for index in sorted(computed)
    }

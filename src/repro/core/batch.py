"""Batched columnar analysis engine: many scenarios, one array program.

The scalar engine (:mod:`repro.core.engine`) solves one flow set per
call; campaign sweeps evaluate thousands of (flow set, analysis, buffer
depth) points, so the per-call interpreter overhead — term assembly,
the fixed-point loop, result bookkeeping — is paid once per grid cell.
This module stacks B such *scenarios* into flat numpy arrays and runs
the ceiling-recurrence fixed point for SB/IBN/XLWX across the whole
batch at once:

* flows of every scenario occupy **slots** of one flat array, grouped
  by dependency **wave** (:attr:`~repro.core.interference
  .InterferenceGraph.waves`: 0 without direct interferers, else one more
  than the deepest direct interferer's).  A flow's recurrence reads only
  what its direct interferers produced, so waves are processed in order,
  each step solving the recurrences of *all* scenarios' flows in that
  wave simultaneously, whatever their priority levels;
* the pair structure (direct interference sets, downstream runs,
  upstream flags, contention-domain sizes) is the interference graph's
  own sparse pair table (:class:`~repro.core.interference
  .InterferenceGraph`), stacked as it is, so buffer variants and
  repeated analyses of the same flows share it;
* per-iteration masking retires converged (scenario, flow) cells: rows
  leave the working arrays the moment their recurrence converges,
  overruns its give-up cut-off, or (for warm starts) must replay cold;
* scenarios may be **ragged** (different flow counts) and **mixed**
  (different analyses, buffer maps, payloads, periods, priorities);
  a scenario simply stops contributing rows beyond its own depth;
* early exit and scalar diversion keep per-scenario level frontiers:
  a flow may be solved before a higher-priority flow of a later wave
  misses, so rows above a scenario's first miss or valve trip are
  skipped or, if already solved, discarded.

Equivalence contract: :func:`analyze_batch` returns
:class:`~repro.core.engine.AnalysisResult` objects **byte-identical**
to scalar :func:`~repro.core.engine.analyze` calls — same iterates,
same convergence/taint flags, same early-exit truncation, same
warm-start acceptance rules (a failed warm attempt replays cold).  The
scalar engine stays the oracle; `tests/core/test_batch_equivalence.py`
enforces the contract on randomized platforms.

Scalar fallback: a scenario is handed back to :func:`analyze` when

* its analysis is not exactly SB/XLWX/IBN (subclasses may override the
  strategy points, which the array program cannot see),
* a response iterate approaches the int64 safety bound or the
  iteration budget (Python's unbounded ints take over), or
* the caller asked for breakdowns (:func:`analyze_batch` never
  collects them; use the scalar engine for explanation workflows).
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as _np

from repro.core import backend as _backend
from repro.core.analyses.base import Analysis
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.engine import (
    RESPONSE_CAP,
    AnalysisResult,
    FlowResult,
    _flow_result_fast,
    _timing_equal,
    analyze,
)
from repro.core.interference import (
    _CANDIDATE_CHUNK,
    InterferenceGraph,
    _gather_segments,
)
from repro.flows.flowset import FlowSet

#: Iterates beyond this divert the scenario to the scalar engine before
#: int64 products could overflow (Python ints are unbounded there).
_SAFE_RESPONSE = 1 << 59
#: Largest flow slot or pair row a batch may number: both are int32.
_INDEX_MAX = _np.iinfo(_np.int32).max
#: Per-recurrence iteration budget; must match
#: :func:`repro.util.mathx.fixed_point` so diverted scenarios report the
#: same ``FixedPointDiverged`` outcome through the scalar replay.
_MAX_ITERATIONS = 100_000

_MODE_SB = 0
_MODE_XLWX = 1
_MODE_IBN = 2

#: Analyses the array program implements.  ``type`` comparison is exact
#: on purpose: a subclass may override ``downstream_term`` or
#: ``indirect_jitter`` in ways the batched terms cannot reproduce.
_MODES = {SBAnalysis: _MODE_SB, XLWXAnalysis: _MODE_XLWX, IBNAnalysis: _MODE_IBN}


@dataclass
class Scenario:
    """One cell of a batch: a flow set analysed by one analysis.

    ``graph`` optionally shares a pre-built interference graph (as with
    scalar :func:`~repro.core.engine.analyze`); ``warm_from`` optionally
    warm-starts each flow's fixed point from a pointwise-tighter result
    under the same rules as the scalar engine.
    """

    flowset: FlowSet
    analysis: Analysis
    graph: InterferenceGraph | None = None
    warm_from: AnalysisResult | None = None


def batchable(analysis: Analysis) -> bool:
    """Can the array program run this analysis (else: scalar fallback)?"""
    return type(analysis) in _MODES


#: Stacked-flow count beneath which batch consumers take the scalar
#: engine instead: array-program setup costs more than it saves on tiny
#: rounds.  Both engines are byte-identical, so it moves only the
#: crossover, never a result.
MIN_BATCH_FLOWS = 1024


# ---------------------------------------------------------------------------
# Per-scenario plan: numeric arrays + analysis mode.
# ---------------------------------------------------------------------------

class _Plan:
    """Everything one batched scenario contributes to the composition."""

    __slots__ = (
        "scenario", "graph", "mode", "n", "c", "period", "jitter",
        "deadline", "blocking", "warm", "use_bound", "any_upstream",
    )


#: Per-flow-set numeric arrays, keyed by instance identity like the
#: simulator's table cache: entries die with their flow set and never
#: ride along in pickles (workers rebuild them once).
_NUMERIC_CACHE: "weakref.WeakKeyDictionary[FlowSet, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _numeric_arrays(flowset: FlowSet):
    """(c, period, jitter, deadline) int64 arrays, shared per FlowSet."""
    found = _NUMERIC_CACHE.get(flowset)
    if found is None:
        flows = flowset.flows
        found = (
            _np.asarray([flowset.c(f.name) for f in flows], dtype=_np.int64),
            _np.asarray([f.period for f in flows], dtype=_np.int64),
            _np.asarray([f.jitter for f in flows], dtype=_np.int64),
            _np.asarray([f.deadline for f in flows], dtype=_np.int64),
        )
        _NUMERIC_CACHE[flowset] = found
    return found


def _build_plan(scenario: Scenario) -> _Plan:
    flowset = scenario.flowset
    graph = scenario.graph
    plan = _Plan()
    plan.scenario = scenario
    plan.graph = graph
    plan.mode = _MODES[type(scenario.analysis)]
    plan.n = n = len(flowset.flows)
    plan.c, plan.period, plan.jitter, plan.deadline = _numeric_arrays(
        flowset
    )
    platform = flowset.platform
    if platform.linkl > 1:
        plan.blocking = (platform.linkl - 1) * graph.lower_counts
    else:
        plan.blocking = _np.zeros(n, dtype=_np.int64)
    plan.warm = _warm_array(scenario, plan)
    ibn, analysis = plan.mode == _MODE_IBN, scenario.analysis
    plan.use_bound = ibn and analysis.use_buffer_bound
    plan.any_upstream = ibn and analysis.upstream_rule == "any_upstream"
    return plan


def _pair_bi(platform, graph):
    """Equation 6's buffered-interference bound per pair row, int64."""
    if platform.is_homogeneous:  # widen first: int16 products stay int16
        size = graph.pair_size.astype(_np.int64)
        return platform.buf * platform.linkl * size
    # Per-link depths (Equation 6 generalised): rare enough that a
    # per-pair Python sum is fine.
    linkl = platform.linkl
    return _np.asarray(
        [
            linkl * sum(
                platform.buf_of_link(link)
                for link in graph.cd_links_by_index(int(i), int(j))
            )
            for i, j in zip(graph.pair_i, graph.pair_j)
        ],
        dtype=_np.int64,
    )


def _warm_array(scenario: Scenario, plan: _Plan):
    """Per-flow warm-start values (0 = cold), scalar-engine rules."""
    warm = _np.zeros(plan.n, dtype=_np.int64)
    source = scenario.warm_from
    if source is None:
        return warm
    graph = scenario.graph
    if not (
        graph.compatible_with(source.flowset)
        and _timing_equal(
            scenario.flowset.platform, source.flowset.platform
        )
    ):
        return warm
    source_flows = source.flows
    for index, flow in enumerate(scenario.flowset.flows):
        record = source_flows.get(flow.name)
        if record is not None and record.converged and not record.tainted:
            warm[index] = record.response_time
    return warm


# ---------------------------------------------------------------------------
# Segment helpers (int64-exact, empty-segment-safe).
# ---------------------------------------------------------------------------

def _segment_sums(values, counts):
    """Sum ``values`` per contiguous segment of the given lengths.

    Empty segments sum to 0 wherever they appear.  ``reduceat`` handles
    empty *interior* segments via its repeated-index quirk (masked back
    to 0 below); a trailing empty segment would need an out-of-range
    index, so a zero sentinel is appended for that case only.
    """
    sums = _np.zeros(len(counts), dtype=_np.int64)
    if values.size == 0:
        return sums
    starts = _np.zeros(len(counts), dtype=_np.int64)
    _np.cumsum(counts[:-1], out=starts[1:])
    if counts[len(counts) - 1] == 0:
        values = _np.append(values, 0)
    sums = _np.add.reduceat(values, starts)
    sums[counts == 0] = 0
    return sums


def _ceil_div(numer, denom):
    """Vector ``⌈numer/denom⌉`` matching the engine's inlined form."""
    return -((-numer) // denom)


# ---------------------------------------------------------------------------
# The batched fixed point.
# ---------------------------------------------------------------------------

def _solve_rows(start, warm_active, base, give, cold, wj, period, cost,
                counts):
    """Solve one wave's recurrences for all rows simultaneously.

    Returns ``(response, converged, iterations, unsafe)`` per row, with
    the exact iterate sequence of the scalar engine: converged rows keep
    the fixed point, overrun rows keep the first iterate beyond their
    give-up, failed warm attempts replay from the cold start.  Rows
    whose iterate approaches the int64 safety bound (or the iteration
    budget) are flagged ``unsafe`` for scalar diversion.
    """
    nrows = len(start)
    out_r = _np.zeros(nrows, dtype=_np.int64)
    out_conv = _np.zeros(nrows, dtype=bool)
    out_iters = _np.zeros(nrows, dtype=_np.int64)
    out_unsafe = _np.zeros(nrows, dtype=bool)
    idx = _np.arange(nrows, dtype=_np.int64)
    r = start.copy()
    warm = warm_active.copy()
    iteration = 0
    while len(idx):
        iteration += 1
        expanded = _np.repeat(r, counts)
        contrib = _ceil_div(expanded + wj, period) * cost
        r_new = base + _segment_sums(contrib, counts)
        out_iters[idx] += 1
        conv = r_new == r
        over = r_new > give
        dec = r_new < r
        unsafe = (r_new > _SAFE_RESPONSE) | (r_new < base)
        if iteration >= _MAX_ITERATIONS:
            unsafe |= ~conv
        # Failed warm attempts (overran the cut-off or the start was
        # invalid and the map dipped) restart from the cold start.
        restart = warm & ~conv & (dec | over) & ~unsafe
        finish_ok = conv & ~unsafe
        finish_fail = over & ~conv & ~warm & ~unsafe
        done = finish_ok | finish_fail | unsafe
        out_r[idx[finish_ok]] = r[finish_ok]
        out_conv[idx[finish_ok]] = True
        out_r[idx[finish_fail]] = r_new[finish_fail]
        out_unsafe[idx[unsafe]] = True
        cont = ~done
        if not cont.any():
            break
        r = _np.where(restart, cold, r_new)[cont]
        warm = (warm & ~restart)[cont]
        idx = idx[cont]
        if not cont.all():
            keep_pairs = _np.repeat(cont, counts)
            wj = wj[keep_pairs]
            period = period[keep_pairs]
            cost = cost[keep_pairs]
            counts = counts[cont]
            base = base[cont]
            give = give[cont]
            cold = cold[cont]
    return out_r, out_conv, out_iters, out_unsafe


# ---------------------------------------------------------------------------
# Batch composition and the wave loop.
# ---------------------------------------------------------------------------

class BatchReport:
    """Diagnostics of one :func:`analyze_batch` call."""

    __slots__ = ("iterations", "scalar_fallbacks")

    def __init__(self, size: int) -> None:
        #: recurrence iterations spent per scenario (0 for fallbacks).
        self.iterations = [0] * size
        #: indices of scenarios answered by the scalar engine.
        self.scalar_fallbacks: list[int] = []


def analyze_batch(
    scenarios: Sequence[Scenario],
    *,
    stop_at_deadline: bool = True,
    early_exit: bool = False,
    report: BatchReport | None = None,
) -> list[AnalysisResult]:
    """Analyse B scenarios as one array program.

    Results are byte-identical to calling scalar
    :func:`~repro.core.engine.analyze` per scenario with the same
    ``stop_at_deadline``/``early_exit``/``warm_from`` arguments, in the
    input order.  Scenarios whose analysis the array program cannot
    express are transparently answered by the scalar engine (see the
    module docstring for the triggers); pass ``report`` to observe
    which path served each scenario.
    """
    scenarios = list(scenarios)
    if report is None:
        report = BatchReport(len(scenarios))
    elif len(report.iterations) != len(scenarios):
        raise ValueError("report size does not match the scenario count")
    # Mirror the scalar engine's graph handling (build or validate).
    for scenario in scenarios:
        if scenario.graph is None:
            scenario.graph = InterferenceGraph(scenario.flowset)
        elif not scenario.graph.compatible_with(scenario.flowset):
            raise ValueError(
                "interference graph was built for a different flow set"
            )
    results: list[AnalysisResult | None] = [None] * len(scenarios)
    batched = [i for i, s in enumerate(scenarios) if batchable(s.analysis)]
    needs_scalar: set[int] = set(range(len(scenarios))) - set(batched)
    if batched:
        solved = _run_batch(
            [scenarios[i] for i in batched],
            stop_at_deadline=stop_at_deadline,
            early_exit=early_exit,
        )
        for position, index in enumerate(batched):
            outcome = solved[position]
            if outcome is None:
                needs_scalar.add(index)
            else:
                results[index], report.iterations[index] = outcome
    for index in sorted(needs_scalar):
        scenario = scenarios[index]
        results[index] = analyze(
            scenario.flowset,
            scenario.analysis,
            graph=scenario.graph,
            stop_at_deadline=stop_at_deadline,
            early_exit=early_exit,
            warm_from=scenario.warm_from,
        )
        report.scalar_fallbacks.append(index)
    report.scalar_fallbacks.sort()
    return results  # type: ignore[return-value]


def _stack_down_runs(plans, pair_bases, inv_pperm, down_offsets):
    """Every scenario's downstream runs, stacked wave-major as int32.

    An entry holds the wave-major row of its (τj, τk) pair.  Rows are
    taken scenario-major in chunks of at most
    :data:`~repro.core.interference._CANDIDATE_CHUNK` entries (a chunk
    may span scenarios), and each scenario's share of a chunk is copied
    from its graph straight to its wave-major place, so no index or
    value array spans the whole batch.
    """
    graphs = [p.graph for p in plans]
    entry_bases = _np.cumsum([0] + [len(g.down_pair) for g in graphs]).tolist()
    down_pair = _np.empty(entry_bases[-1], dtype=_np.int32)
    bases = pair_bases.tolist()
    s = stop = 0
    while stop < bases[-1]:
        start = stop
        while bases[s + 1] <= start:
            s += 1
        # The last row boundary at most a chunk's entries past ``start``.
        limit = (entry_bases[s] + int(graphs[s].down_offsets[start - bases[s]])
                 + _CANDIDATE_CHUNK)
        t = bisect_right(entry_bases, limit) - 1
        stop = bases[-1] if t == len(graphs) else bases[t] + int(
            _np.searchsorted(graphs[t].down_offsets,
                             limit - entry_bases[t], side="right")
        ) - 1
        stop = min(max(stop, start + 1), bases[-1])
        for b in range(s, len(graphs)):
            base = bases[b]
            if base >= stop:
                break
            graph = graphs[b]
            lo, hi = max(start, base) - base, min(stop, bases[b + 1]) - base
            runs = graph.down_offsets[lo:hi + 1]
            dest, _ = _gather_segments(
                down_offsets[inv_pperm[base + lo:base + hi]], _np.diff(runs)
            )
            down_pair[dest] = inv_pperm[base:][
                graph.down_pair[runs[0]:runs[-1]]
            ]
            del dest  # before the next share's, not alongside it
    return down_pair


class _Composed:
    """One composed batch: the wave loop's static arrays and slot sizes."""

    __slots__ = ("arrays", "sizes")

    def __init__(self, arrays: dict, sizes) -> None:
        #: ``run_levels``' static keyword arguments.
        self.arrays = arrays
        #: flows per scenario; scenario b owns slots ``sum(sizes[:b])`` on.
        self.sizes = sizes

    def fresh_state(self) -> dict:
        """``run_levels``' dynamic keyword arguments, as a run starts them.

        ``fail_level``/``unsafe_level`` start at each scenario's size:
        past its last level, "nothing missed, nothing tripped".
        """
        total_slots = len(self.arrays["C"])
        total_pairs = len(self.arrays["pair_j_slot"])
        return {
            "R": _np.zeros(total_slots, dtype=_np.int64),
            "CONV": _np.zeros(total_slots, dtype=bool),
            "TAINT": _np.zeros(total_slots, dtype=bool),
            "BAD": _np.zeros(total_slots, dtype=_np.int64),  # ~conv | taint
            "totals": _np.zeros(total_pairs, dtype=_np.int64),
            "hitcost": _np.zeros(total_pairs, dtype=_np.int64),
            "fail_level": self.sizes.copy(),
            "unsafe_level": self.sizes.copy(),
            "slot_iters": _np.zeros(total_slots, dtype=_np.int64),
        }


def _compose(plans, *, stop_at_deadline) -> _Composed:
    """Stack the plans' flows and pair rows, wave-major, as flat arrays.

    Slots (flows) and pair rows are regrouped so each dependency wave
    (:attr:`~repro.core.interference.InterferenceGraph.waves`) is one
    contiguous slice of both, scenarios ascending within it and levels
    ascending within a scenario.
    """
    B = len(plans)
    sizes = _np.asarray([p.n for p in plans], dtype=_np.int64)
    slot_base = _np.zeros(B + 1, dtype=_np.int64)
    _np.cumsum(sizes, out=slot_base[1:])
    total_slots = int(slot_base[-1])

    # ---- flat per-slot arrays (scenario-major) ------------------------
    C = _np.concatenate([p.c for p in plans])
    D = _np.concatenate([p.deadline for p in plans])
    GIVE = D if stop_at_deadline else _np.full(
        total_slots, RESPONSE_CAP, dtype=_np.int64
    )
    slot_level = _np.concatenate(
        [_np.arange(p.n, dtype=_np.int64) for p in plans]
    )
    slot_wave = _np.concatenate([p.graph.waves for p in plans])
    num_waves = int(slot_wave.max()) + 1 if total_slots else 0
    # Wave-major views: a stable sort keeps scenario, then level, order
    # within each wave.
    slot_perm = _np.argsort(slot_wave, kind="stable")
    wave_slot_bounds = _np.searchsorted(
        slot_wave[slot_perm], _np.arange(num_waves + 1)
    )
    del slot_wave

    # ---- flat pair arrays, wave-major --------------------------------
    # Each scenario's pair-table rows, offset into the flat arrays.  Slot
    # and row indices stay int32, as in the graph, so the batch must
    # number its slots and rows below 2**31.
    pair_bases = _np.cumsum([0] + [len(p.graph.pair_i) for p in plans])
    total_pairs = int(pair_bases[-1])
    if max(total_slots, total_pairs) > _INDEX_MAX:
        raise ValueError(
            f"batch too large: {total_slots} flows and {total_pairs} "
            f"interfering pairs, the limit is {_INDEX_MAX} of each"
        )
    pair_wave = _np.concatenate(
        [p.graph.waves[p.graph.pair_i] for p in plans]
    )
    pperm = _np.argsort(pair_wave, kind="stable")
    wave_pair_bounds = _np.searchsorted(
        pair_wave[pperm], _np.arange(num_waves + 1)
    )
    del pair_wave
    inv_pperm = _np.empty(total_pairs, dtype=_np.int32)
    inv_pperm[pperm] = _np.arange(total_pairs, dtype=_np.int32)
    del pperm
    # Each column is allocated once, wave-major, and written scenario by
    # scenario through the inverse permutation: no scenario-major copy.
    # ``down_offsets`` takes the run lengths, then its prefix sum.
    pair_j_slot = _np.empty(total_pairs, dtype=_np.int32)
    pair_mode = _np.empty(total_pairs, dtype=_np.int8)
    pair_use_bound = _np.empty(total_pairs, dtype=bool)
    pair_fallback = _np.zeros(total_pairs, dtype=bool)
    pair_bi = _np.zeros(total_pairs, dtype=_np.int64)
    down_offsets = _np.zeros(total_pairs + 1, dtype=_np.int64)
    for b, plan in enumerate(plans):
        graph = plan.graph
        rows = inv_pperm[pair_bases[b]:pair_bases[b + 1]]
        pair_j_slot[rows] = graph.pair_j + int(slot_base[b])
        pair_mode[rows] = plan.mode
        pair_use_bound[rows] = plan.use_bound
        runs = _np.diff(graph.down_offsets)
        down_offsets[1:][rows] = runs
        if plan.mode == _MODE_IBN:
            fallback = graph.up_nonempty
            if plan.any_upstream:
                fallback = fallback | graph.any_direct_upstream
            pair_fallback[rows] = (runs > 0) & fallback
            pair_bi[rows] = _pair_bi(plan.scenario.flowset.platform, graph)
    _np.cumsum(down_offsets, out=down_offsets)
    # Per-slot direct-set sizes, wave-major (row segmentation).
    slot_counts = _np.concatenate(
        [_np.diff(p.graph.pair_offsets) for p in plans]
    )[slot_perm]

    # ---- flat downstream runs, wave-major -----------------------------
    down_pair = _stack_down_runs(plans, pair_bases, inv_pperm, down_offsets)
    del inv_pperm

    return _Composed(
        {
            "num_waves": num_waves,
            "wave_slot_bounds": wave_slot_bounds, "slot_perm": slot_perm,
            "slot_scn": _np.repeat(_np.arange(B, dtype=_np.int64), sizes),
            "slot_level": slot_level, "slot_counts": slot_counts,
            "wave_pair_bounds": wave_pair_bounds,
            "pair_j_slot": pair_j_slot, "pair_mode": pair_mode,
            "pair_fallback": pair_fallback, "pair_bi": pair_bi,
            "pair_use_bound": pair_use_bound,
            "down_offsets": down_offsets, "down_pair": down_pair,
            "C": C,
            "T": _np.concatenate([p.period for p in plans]),
            "J": _np.concatenate([p.jitter for p in plans]),
            "D": D,
            "BLK": _np.concatenate([p.blocking for p in plans]),
            "WARM": _np.concatenate([p.warm for p in plans]),
            "GIVE": GIVE,
        },
        sizes,
    )


def _run_levels(*, num_waves, early_exit, wave_slot_bounds, slot_perm,
                slot_scn, slot_level, slot_counts, wave_pair_bounds,
                pair_j_slot, pair_mode, pair_fallback, pair_bi,
                pair_use_bound, down_offsets, down_pair,
                C, T, J, D, BLK, WARM, GIVE,
                R, CONV, TAINT, BAD, totals, hitcost,
                fail_level, unsafe_level, slot_iters):
    """The numpy wave loop: one vectorised step per dependency wave.

    The twin of a compiled backend's ``run_levels`` (same keywords, same
    in-place updates of the dynamic state).  Each step solves every live
    slot of one wave, of all scenarios and levels at once.  A slot is
    live while its level is at most its scenario's ``fail_level`` (the
    lowest level that missed, under early exit) and ``unsafe_level``
    (the lowest level whose iterate tripped the int64/iteration valve).
    A slot solved before a lower level's failure is found is discarded
    afterwards: everything that reads it lies above that level too.
    """
    # Batch-wide fast-path flags: skip whole term families no pair
    # needs, and skip the liveness selection until a scenario retires
    # (early exit or scalar diversion).
    modes = _np.bincount(pair_mode, minlength=3) > 0
    sb_present = bool(modes[_MODE_SB])
    xlwx_present = bool(modes[_MODE_XLWX])
    need_eq8 = bool(modes[_MODE_IBN])
    need_sum = xlwx_present or need_eq8
    has_blocking = bool(BLK.any())
    any_warm = bool(WARM.any())
    frontier = None  # per scenario: min(fail_level, unsafe_level)

    for wave in range(num_waves):
        s0, s1 = int(wave_slot_bounds[wave]), int(wave_slot_bounds[wave + 1])
        slots_all = slot_perm[s0:s1]
        counts_all = slot_counts[s0:s1]
        p0, p1 = int(wave_pair_bounds[wave]), int(wave_pair_bounds[wave + 1])
        live_all = True
        if frontier is not None:
            live = slot_level[slots_all] <= frontier[slot_scn[slots_all]]
            live_all = bool(live.all())
            if not live_all and not live.any():
                continue
        if live_all:
            # The common case is one contiguous slice per wave: no
            # index arrays, and the wave's downstream entries are one
            # contiguous run of the flat arrays.
            slots, counts = slots_all, counts_all
            sel = slice(p0, p1)
            dlen = _np.diff(down_offsets[p0:p1 + 1])
            d0, d1 = int(down_offsets[p0]), int(down_offsets[p1])
            dp = down_pair[d0:d1].astype(_np.intp)
        else:
            slots = slots_all[live]
            counts = counts_all[live]
            # Select the live slots' pair runs without touching the
            # retired ones: one prefix sum over the wave, then gathers
            # proportional to the *surviving* pairs only.
            prefix = _np.zeros(len(counts_all) + 1, dtype=_np.int64)
            _np.cumsum(counts_all, out=prefix[1:])
            sel, _ = _gather_segments(p0 + prefix[:-1][live], counts)
            dstart = down_offsets[sel]
            dlen = down_offsets[sel + 1] - dstart
            gidx, _ = _gather_segments(dstart, dlen)
            dp = down_pair[gidx].astype(_np.intp)
        # The stored int32 indices widen once per wave: numpy would
        # otherwise convert them again inside every gather below.
        pj = pair_j_slot[sel].astype(_np.intp)
        r_j = R[pj]
        wj = J[pj] + r_j - C[pj]

        # Downstream terms, evaluated per family over the wave's flat
        # downstream run (empty per-pair segments naturally sum to 0):
        # the totals sum feeds XLWX pairs and IBN's application-rule
        # fallback, Equation 8's recounted-and-capped hits feed the
        # remaining IBN pairs, SB pairs take 0.
        sums = eq8 = None
        if need_sum and dp.size:
            sums = _segment_sums(totals[dp], dlen)
        if need_eq8 and dp.size:
            # Each entry's τk is the τj column of its own (τj, τk) row.
            dk = pair_j_slot[dp].astype(_np.intp)
            hits = _ceil_div(_np.repeat(r_j, dlen) + J[dk], T[dk])
            per_hit = hitcost[dp]
            capped = _np.repeat(pair_use_bound[sel], dlen)
            bi_exp = _np.repeat(pair_bi[sel], dlen)
            per_hit = _np.where(capped & (bi_exp < per_hit), bi_exp, per_hit)
            eq8 = _segment_sums(hits * per_hit, dlen)
        if sums is None:
            cost = C[pj]
        else:
            if eq8 is None:
                down_term = sums
                if sb_present:
                    down_term = _np.where(
                        pair_mode[sel] == _MODE_XLWX, sums, 0
                    )
            else:
                takes_sum = pair_fallback[sel]
                if xlwx_present:
                    takes_sum = takes_sum | (pair_mode[sel] == _MODE_XLWX)
                down_term = _np.where(takes_sum, sums, eq8)
                if sb_present:
                    down_term = _np.where(
                        pair_mode[sel] == _MODE_SB, 0, down_term
                    )
            cost = C[pj] + down_term
        hitcost[sel] = cost

        cold = C[slots]
        give = GIVE[slots]
        if has_blocking:
            blocking = BLK[slots]
            base = cold + blocking
            iter_cost = cost + _np.repeat(blocking, counts)
        else:
            base = cold
            iter_cost = cost
        if any_warm:
            warm = WARM[slots]
            warm_ok = (cold < warm) & (warm <= give)
            start = _np.where(warm_ok, warm, cold)
        else:
            warm_ok = _np.zeros(len(slots), dtype=bool)
            start = cold
        r_fin, conv_fin, iters, unsafe = _solve_rows(
            start, warm_ok, base, give, cold, wj, T[pj], iter_cost, counts
        )
        slot_iters[slots] = iters
        if unsafe.any():
            tripped = slots[unsafe]
            _np.minimum.at(
                unsafe_level, slot_scn[tripped], slot_level[tripped]
            )
            frontier = _np.minimum(fail_level, unsafe_level)
            keep = ~unsafe
            if not keep.any():
                continue
            if isinstance(sel, slice):
                sel = _np.arange(p0, p1, dtype=_np.int64)
            slots = slots[keep]
            pair_keep = _np.repeat(keep, counts)
            sel, pj, wj = sel[pair_keep], pj[pair_keep], wj[pair_keep]
            cost = cost[pair_keep]
            counts = counts[keep]
            r_fin, conv_fin = r_fin[keep], conv_fin[keep]

        R[slots] = r_fin
        CONV[slots] = conv_fin
        # Totals (the I_kj cache) use the final iterate and the per-hit
        # cost *without* the non-preemptive blocking term, as scalar.
        totals[sel] = (
            _ceil_div(_np.repeat(r_fin, counts) + wj, T[pj]) * cost
        )
        tainted = _segment_sums(BAD[pj], counts) > 0
        TAINT[slots] = tainted
        BAD[slots] = (~conv_fin | tainted).astype(_np.int64)
        if early_exit:
            failed = ~(conv_fin & (r_fin <= D[slots]))
            if failed.any():
                missed = slots[failed]
                _np.minimum.at(
                    fail_level, slot_scn[missed], slot_level[missed]
                )
                frontier = _np.minimum(fail_level, unsafe_level)


def _run_batch(scenarios, *, stop_at_deadline, early_exit):
    """The array program proper; ``None`` entries mean "divert"."""
    plans = [_build_plan(s) for s in scenarios]
    batch = _compose(plans, stop_at_deadline=stop_at_deadline)
    state = batch.fresh_state()
    # The backend seam: a compiled backend may take the whole wave loop
    # under a byte-identical dynamic-state contract; numpy registers no
    # kernel and runs the in-module loop.
    kernel = _backend.get_backend()
    (kernel.run_levels or _run_levels)(
        early_exit=early_exit, **batch.arrays, **state
    )

    # ---- outcomes, the same for every backend --------------------------
    # A scenario whose valve tripped below its first miss goes to the
    # scalar engine; one that missed first stops at that level, as the
    # scalar early exit does, and counts only the levels up to it.
    sizes = batch.sizes
    fail_level, unsafe_level = state["fail_level"], state["unsafe_level"]
    diverted = unsafe_level < fail_level
    stopped = (fail_level < sizes) & ~diverted
    last_level = _np.where(stopped, fail_level, sizes - 1)
    counted = batch.arrays["slot_level"] <= _np.repeat(last_level, sizes)
    iterations = _segment_sums(
        _np.where(counted, state["slot_iters"], 0), sizes
    )

    # ---- materialise --------------------------------------------------
    # Plain-list views once, then the __init__-free constructor: frozen
    # dataclass construction and numpy scalar boxing dominate this loop
    # otherwise (one result per slot, all backends share this path).
    # The composed arrays and the loop state go first: the results need
    # only the lists, and would otherwise peak on top of the arrays.
    C_l, D_l = batch.arrays["C"].tolist(), batch.arrays["D"].tolist()
    R_l = state["R"].tolist()
    CONV_l, TAINT_l = state["CONV"].tolist(), state["TAINT"].tolist()
    slot_base = (_np.cumsum(sizes) - sizes).tolist()
    del batch, state, counted
    outcomes: list = []
    for b, plan in enumerate(plans):
        if diverted[b]:
            outcomes.append(None)
            continue
        flowset = plan.scenario.flowset
        analysis = plan.scenario.analysis
        flows: dict[str, FlowResult] = {}
        upto = int(last_level[b])
        for slot, flow in enumerate(flowset.flows[:upto + 1], slot_base[b]):
            flows[flow.name] = _flow_result_fast(
                flow.name, flow.priority, C_l[slot], D_l[slot], R_l[slot],
                CONV_l[slot], TAINT_l[slot],
            )
        outcomes.append(
            (
                AnalysisResult(
                    analysis_name=analysis.label(flowset.platform.buf),
                    unsafe=analysis.unsafe,
                    flowset=flowset,
                    flows=flows,
                    complete=not bool(stopped[b]),
                ),
                int(iterations[b]),
            )
        )
    return outcomes

"""Figure 4: schedulability versus load for the competing analyses.

The campaign: for each flow count on the x-axis, generate ``sets_per_point``
random flow sets (Section VI parameters), decide full-set schedulability
under every analysis, and report the percentage of schedulable sets.

The four paper curves are SB (unsafe reference), XLWX (safe baseline),
IBN2 and IBN100 (the contribution with 2- and 100-flit buffers).  Buffer
size only matters to IBN, so each flow set is analysed on buffer-variant
copies of the platform while sharing one interference graph (the O(n²)
part of the cost).

Per-set verdict chain: the analyses are pointwise ordered
(``R^SB ≤ R^IBN2 ≤ R^IBN100 ≤ R^XLWX``, see :mod:`repro.core.engine`),
which makes the verdict vector along the chain monotone — True prefix,
False suffix.  :func:`spec_verdicts` bisects that boundary, typically
deciding all four curves with two analysis runs.  Verdicts are
identical to running each analysis on its own; only the work changes.

Orchestration: this experiment runs on the campaign engine
(:mod:`repro.campaigns`).  :func:`schedulability_spec` describes the
whole sweep declaratively; it expands into deterministic
``(point, set-chunk)`` jobs whose per-set seed derivation keeps the
outcome identical for any worker/chunk configuration, and identical
chunks (duplicate x-axis points) share one content-addressed result.
Workers reuse a process-local platform per mesh — and with it the
memoized route table — via
:func:`repro.campaigns.scheduler.worker_platform`.

Batched hot lane: the scheduler ships same-kind jobs in *blocks*, and
the registered block executor (:func:`run_sched_chunk_block`) feeds
every set of every chunk in a block into :func:`spec_verdicts_batch`
— the bisection rounds then run as mixed-analysis
:func:`repro.core.batch.analyze_batch` calls, one vectorized solve per
round instead of one per set.  Per-job results (and hence job hashes,
stores and goldens) are identical to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.campaigns.progress import Progress
from repro.campaigns.registry import CampaignKind, Plan, register_kind
from repro.campaigns.scheduler import worker_platform
from repro.campaigns.spec import (
    CampaignSpec,
    Job,
    chunk_size_param,
    spec_param,
)
from repro.campaigns import registry as _registry
from repro.core.analyses.base import Analysis
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.engine import analysis_pointwise_le, analyze, tightness_rank
from repro.core.interference import InterferenceGraph
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows
from repro.util.rng import spawn_rng


@dataclass(frozen=True)
class AnalysisSpec:
    """One curve of the figure: an analysis plus the buffer depth it sees.

    ``buf=None`` analyses on the base platform (buffer size irrelevant to
    SB/XLWX, which predate buffer-aware bounds).
    """

    label: str
    analysis: Analysis
    buf: int | None = None


def fig4_specs(
    small_buf: int = 2,
    large_buf: int = 100,
    *,
    include_sb: bool = True,
) -> tuple[AnalysisSpec, ...]:
    """The paper's Figure 4 curves: SB, XLWX, IBN2, IBN100."""
    specs = []
    if include_sb:
        specs.append(AnalysisSpec("SB", SBAnalysis()))
    specs.append(AnalysisSpec("XLWX", XLWXAnalysis()))
    specs.append(AnalysisSpec(f"IBN{small_buf}", IBNAnalysis(), buf=small_buf))
    specs.append(AnalysisSpec(f"IBN{large_buf}", IBNAnalysis(), buf=large_buf))
    return tuple(specs)


@dataclass
class SweepResult:
    """Percentage of schedulable flow sets per x-axis point and curve."""

    x_label: str
    x_values: list = field(default_factory=list)
    #: label -> list of percentages aligned with ``x_values``.
    series: dict[str, list[float]] = field(default_factory=dict)
    sets_per_point: int = 0

    def add_point(self, x, percentages: dict[str, float]) -> None:
        """Append one x-axis point with its per-curve percentages."""
        self.x_values.append(x)
        for label, value in percentages.items():
            self.series.setdefault(label, []).append(value)

    def max_gap(self, upper: str, lower: str) -> float:
        """Largest pointwise difference ``upper − lower`` (paper's "up to
        58%" style statements)."""
        for label in (upper, lower):
            if label not in self.series:
                available = ", ".join(sorted(self.series)) or "none"
                raise KeyError(
                    f"unknown curve {label!r}; available curves: {available}"
                )
        if not self.series[upper]:
            raise ValueError(
                f"curves {upper!r} and {lower!r} have no data points; "
                "the sweep has not recorded any x-axis values yet"
            )
        return max(
            u - l
            for u, l in zip(self.series[upper], self.series[lower])
        )


class _VerdictState:
    """Bisection bookkeeping for one flow set's verdict chain.

    Encapsulates exactly the decision sequence of the original
    ``spec_verdicts`` loop — midpoint selection over the
    tightness-sorted undecided list, verdict propagation along the
    pointwise partial order — so the scalar path and the batched path
    (:func:`spec_verdicts_batch`) provably make identical decisions;
    only who computes each analysis differs.
    """

    __slots__ = ("specs", "flowsets", "graph", "by_tightness", "verdicts")

    def __init__(
        self,
        base_flowset: FlowSet,
        specs: Sequence[AnalysisSpec],
        graph: InterferenceGraph,
    ) -> None:
        base_platform = base_flowset.platform
        self.specs = specs
        self.graph = graph
        self.flowsets: list[FlowSet] = []
        for spec in specs:
            if spec.buf is None or spec.buf == base_platform.buf:
                self.flowsets.append(base_flowset)
            else:
                self.flowsets.append(
                    base_flowset.on_platform(
                        base_platform.with_buffers(spec.buf)
                    )
                )
        self.by_tightness = sorted(
            range(len(specs)),
            key=lambda idx: (
                tightness_rank(specs[idx].analysis, self.flowsets[idx].platform),
                idx,
            ),
        )
        self.verdicts: dict[int, bool] = {}

    @property
    def done(self) -> bool:
        return len(self.verdicts) >= len(self.specs)

    def pick(self) -> tuple[int, FlowSet, Analysis]:
        """Next (spec index, flowset, analysis) to run."""
        undecided = [
            idx for idx in self.by_tightness if idx not in self.verdicts
        ]
        idx = undecided[len(undecided) // 2]
        return idx, self.flowsets[idx], self.specs[idx].analysis

    def absorb(self, idx: int, result) -> None:
        """Record one analysis result and propagate its verdict."""
        spec, flowset = self.specs[idx], self.flowsets[idx]
        verdict = result.complete and result.schedulable
        self.verdicts[idx] = verdict
        for other in self.by_tightness:
            if other in self.verdicts:
                continue
            if verdict and analysis_pointwise_le(
                self.specs[other].analysis,
                spec.analysis,
                self.flowsets[other].platform,
                flowset.platform,
            ):
                self.verdicts[other] = True
            elif not verdict and analysis_pointwise_le(
                spec.analysis,
                self.specs[other].analysis,
                flowset.platform,
                self.flowsets[other].platform,
            ):
                self.verdicts[other] = False

    def labelled(self) -> dict[str, bool]:
        return {
            self.specs[idx].label: self.verdicts[idx]
            for idx in range(len(self.specs))
        }


def spec_verdicts(
    base_flowset: FlowSet,
    specs: Sequence[AnalysisSpec],
    *,
    graph: InterferenceGraph | None = None,
) -> dict[str, bool]:
    """Schedulability verdict of one flow set under every spec.

    Shares a single interference graph across all specs (platform copies
    differ only in buffer depth, which the graph is agnostic to), and
    exploits the pointwise ordering of the analyses
    (:func:`~repro.core.engine.analysis_pointwise_le`) twice over:

    * a **True** verdict decides every pointwise-*tighter* spec (its
      bounds are smaller still), a **False** verdict decides every
      pointwise-*looser* one (the missed deadline only gets worse);
    * the verdict vector along the tightness-sorted chain is therefore
      monotone — True prefix, False suffix — so the undecided boundary is
      located by **bisection**, typically running 2 of the 4 Figure-4
      analyses per set instead of all of them.

    Verdicts are identical to running every spec on its own; the dict
    order follows ``specs``.
    """
    if graph is None:
        graph = InterferenceGraph(base_flowset)
    state = _VerdictState(base_flowset, specs, graph)
    while not state.done:
        idx, flowset, analysis = state.pick()
        result = analyze(flowset, analysis, graph=graph, early_exit=True)
        state.absorb(idx, result)
    return state.labelled()


def spec_verdicts_batch(
    entries: Sequence[tuple[FlowSet, Sequence[AnalysisSpec]]],
    *,
    graphs: Sequence[InterferenceGraph | None] | None = None,
) -> list[dict[str, bool]]:
    """Verdicts for many flow sets, batched through the columnar kernel.

    Each entry is one ``(base flow set, analysis specs)`` pair; the
    return list is aligned with the input.  Per set, the decision
    sequence is *identical* to :func:`spec_verdicts` — the bisection
    over the verdict chain runs in lock-stepped rounds, and each
    round's pending analyses across all sets form one mixed-analysis
    :func:`~repro.core.batch.analyze_batch` call (scalar for rounds
    stacking fewer than :data:`repro.core.batch.MIN_BATCH_FLOWS` flows,
    where array assembly would cost more than it saves).
    """
    from repro.core.batch import MIN_BATCH_FLOWS, Scenario, analyze_batch

    states: list[_VerdictState] = []
    for position, (base_flowset, specs) in enumerate(entries):
        graph = graphs[position] if graphs is not None else None
        if graph is None:
            graph = InterferenceGraph(base_flowset)
        states.append(_VerdictState(base_flowset, specs, graph))
    pending = [state for state in states if not state.done]
    while pending:
        picked = [(state, state.pick()) for state in pending]
        scenarios = [
            Scenario(flowset, analysis, graph=state.graph)
            for state, (_, flowset, analysis) in picked
        ]
        if sum(len(s.flowset) for s in scenarios) >= MIN_BATCH_FLOWS:
            results = analyze_batch(scenarios, early_exit=True)
        else:
            results = [
                analyze(s.flowset, s.analysis, graph=s.graph, early_exit=True)
                for s in scenarios
            ]
        for (state, (idx, _, _)), result in zip(picked, results):
            state.absorb(idx, result)
        pending = [state for state in pending if not state.done]
    return [state.labelled() for state in states]


def analyse_set(
    flows: Sequence,
    base_platform: NoCPlatform,
    specs: Sequence[AnalysisSpec],
) -> dict[str, bool]:
    """Schedulability verdict of one flow set under every spec."""
    return spec_verdicts(FlowSet(base_platform, flows), specs)


# ---------------------------------------------------------------------------
# Campaign kind: declarative spec, job executor, aggregation, rendering.
# ---------------------------------------------------------------------------

def default_chunk_size(sets_per_point: int) -> int:
    """Deterministic chunk width: at most 8 chunks per x-axis point.

    Depends only on the spec (never on worker counts) so a spec always
    expands to the same content-addressed job set — the property resume
    relies on.
    """
    return max(1, -(-sets_per_point // 8))


def _chunk_sets(params: Mapping) -> tuple[tuple[AnalysisSpec, ...], list[FlowSet]]:
    """One chunk's analysis specs and generated flow sets, in set order."""
    cols, rows = params["mesh"]
    platform = worker_platform(cols, rows, params["small_buf"])
    specs = fig4_specs(
        params["small_buf"],
        params["large_buf"],
        include_sb=params["include_sb"],
    )
    num_flows = params["num_flows"]
    config = SyntheticConfig(num_flows=num_flows, **params["config"])
    flowsets = []
    set_start = params["set_start"]
    for set_index in range(set_start, set_start + params["set_count"]):
        rng = spawn_rng(params["seed"], "synthetic", num_flows, set_index)
        flows = synthetic_flows(config, platform.topology.num_nodes, rng)
        flowsets.append(FlowSet(platform, flows))
    return specs, flowsets


@_registry.job_executor("sched_chunk")
def run_sched_chunk(params: Mapping) -> dict:
    """Worker: one contiguous chunk of a point's flow sets.

    Returns raw schedulable counts (not percentages); the per-set seed
    depends only on the campaign seed and the set index, making results
    independent of the chunking.
    """
    return run_sched_chunk_block([params])[0]


@_registry.block_executor("sched_chunk")
def run_sched_chunk_block(params_list: Sequence[Mapping]) -> list[dict]:
    """Worker: a whole block of chunk jobs as one scenario batch.

    All sets of all chunks in the block feed one
    :func:`spec_verdicts_batch` call — the columnar kernel solves each
    bisection round across the entire block at once.  Per-job results
    are identical to running :func:`run_sched_chunk` per chunk (so job
    content addresses, resume, and the campaign goldens are unaffected);
    only the throughput changes.
    """
    entries: list[tuple[FlowSet, Sequence[AnalysisSpec]]] = []
    spans: list[tuple[int, int, tuple[AnalysisSpec, ...]]] = []
    for params in params_list:
        specs, flowsets = _chunk_sets(params)
        start = len(entries)
        entries.extend((flowset, specs) for flowset in flowsets)
        spans.append((start, len(entries), specs))
    verdict_rows = spec_verdicts_batch(entries)
    results = []
    for params, (start, stop, specs) in zip(params_list, spans):
        counts = {spec.label: 0 for spec in specs}
        for verdicts in verdict_rows[start:stop]:
            for label, ok in verdicts.items():
                counts[label] += ok
        results.append({"counts": counts, "sets": params["set_count"]})
    return results


def schedulability_spec(
    mesh: tuple[int, int],
    flow_counts: Sequence[int],
    sets_per_point: int,
    *,
    seed: int,
    name: str = "schedulability",
    small_buf: int = 2,
    large_buf: int = 100,
    include_sb: bool = True,
    config_kwargs: dict | None = None,
    chunk_size: int | None = None,
    title: str | None = None,
    gap_notes: Sequence[Mapping] = (),
) -> CampaignSpec:
    """Declare one Figure-4-style sweep as a campaign spec.

    ``gap_notes`` entries (``{"label", "upper", "lower", "paper"}``)
    render the paper's "up to N%" gap statements under the chart.
    """
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return CampaignSpec(
        kind="schedulability",
        name=name,
        params={
            "mesh": list(mesh),
            "flow_counts": list(flow_counts),
            "sets_per_point": sets_per_point,
            "seed": seed,
            "small_buf": small_buf,
            "large_buf": large_buf,
            "include_sb": include_sb,
            "config": dict(config_kwargs or {}),
            "chunk_size": chunk_size,
            "title": title,
            "gap_notes": [dict(note) for note in gap_notes],
        },
    )


def _sched_params(spec: CampaignSpec) -> dict:
    """Validated spec parameters with kind defaults (JSON specs too)."""
    return {
        "mesh": spec_param(spec, "mesh"),
        "flow_counts": spec_param(spec, "flow_counts"),
        "sets_per_point": spec_param(spec, "sets_per_point"),
        "seed": spec_param(spec, "seed"),
        "small_buf": spec_param(spec, "small_buf", 2),
        "large_buf": spec_param(spec, "large_buf", 100),
        "include_sb": spec_param(spec, "include_sb", True),
        "config": spec_param(spec, "config", {}),
        "chunk_size": chunk_size_param(spec),
    }


def _sched_plan(spec: CampaignSpec) -> Plan:
    """Expand a sweep spec into (point, set-chunk) jobs, point-major.

    Jobs are listed heaviest point (most flows) first, so the last
    blocks a pool hands out are the cheap ones and no worker idles
    behind a straggler; ``context`` keeps the points in x-axis order
    for aggregation.
    """
    p = _sched_params(spec)
    cols, rows = p["mesh"]
    sets_per_point = p["sets_per_point"]
    chunk_size = p["chunk_size"] or default_chunk_size(sets_per_point)
    point_jobs: list[list[Job]] = []
    for num_flows in p["flow_counts"]:
        chunks = []
        for set_start in range(0, sets_per_point, chunk_size):
            set_count = min(chunk_size, sets_per_point - set_start)
            chunks.append(
                Job(
                    kind="sched_chunk",
                    params={
                        "mesh": [cols, rows],
                        "num_flows": num_flows,
                        "set_start": set_start,
                        "set_count": set_count,
                        "seed": p["seed"],
                        "config": p["config"],
                        "small_buf": p["small_buf"],
                        "large_buf": p["large_buf"],
                        "include_sb": p["include_sb"],
                    },
                    label=(
                        f"{spec.name} {cols}x{rows} n={num_flows} "
                        f"sets {set_start}+{set_count}"
                    ),
                )
            )
        point_jobs.append(chunks)
    heaviest_first = sorted(
        range(len(point_jobs)), key=lambda point: -p["flow_counts"][point]
    )
    return Plan(
        jobs=[job for point in heaviest_first for job in point_jobs[point]],
        context=point_jobs,
    )


def _sched_aggregate(
    spec: CampaignSpec, plan: Plan, results: Mapping[str, Mapping]
) -> SweepResult:
    """Fold chunk counts into per-point percentages, in x-axis order."""
    p = _sched_params(spec)
    labels = [
        s.label
        for s in fig4_specs(
            p["small_buf"], p["large_buf"], include_sb=p["include_sb"]
        )
    ]
    result = SweepResult(
        x_label="# flows per flow set", sets_per_point=p["sets_per_point"]
    )
    for num_flows, chunks in zip(p["flow_counts"], plan.context):
        totals = {label: 0 for label in labels}
        for job in chunks:
            for label, count in results[job.job_id]["counts"].items():
                totals[label] += count
        result.add_point(
            num_flows,
            {
                label: 100.0 * totals[label] / p["sets_per_point"]
                for label in labels
            },
        )
    return result


def render_gap_notes(result: SweepResult, notes: Sequence[Mapping]) -> list[str]:
    """The "max A->B gap: X% (paper: up to Y%)" lines under a chart."""
    return [
        f"max {note['label']} gap: "
        f"{result.max_gap(note['upper'], note['lower']):.1f}% "
        f"(paper: up to {note['paper']}%)"
        for note in notes
    ]


def _sched_render(spec: CampaignSpec, result: SweepResult) -> str:
    from repro.experiments.report import render_sweep

    cols, rows = spec_param(spec, "mesh")
    title = spec.params.get("title") or (
        f"% schedulable flow sets on {cols}x{rows}"
    )
    lines = [render_sweep(result, title=title)]
    notes = spec.params.get("gap_notes") or []
    if notes:
        lines.append("")
        lines.extend(render_gap_notes(result, notes))
    return "\n".join(lines)


def sweep_to_jsonable(spec: CampaignSpec, result: SweepResult) -> dict:
    """Structured payload shared by every sweep-shaped campaign."""
    return {
        "x_label": result.x_label,
        "x_values": list(result.x_values),
        "series": {k: list(v) for k, v in result.series.items()},
        "sets_per_point": result.sets_per_point,
    }


def sweep_csv_export(spec: CampaignSpec, result: SweepResult) -> str:
    """The ``to_csv`` hook shared by every sweep-shaped campaign kind."""
    from repro.experiments.report import sweep_csv

    return sweep_csv(result)


SCHEDULABILITY_KIND = register_kind(
    CampaignKind(
        name="schedulability",
        plan=_sched_plan,
        aggregate=_sched_aggregate,
        render=_sched_render,
        to_csv=sweep_csv_export,
        to_jsonable=sweep_to_jsonable,
    )
)


def schedulability_sweep(
    mesh: tuple[int, int],
    flow_counts: Sequence[int],
    sets_per_point: int,
    *,
    seed: int,
    small_buf: int = 2,
    large_buf: int = 100,
    include_sb: bool = True,
    config_kwargs: dict | None = None,
    workers: int = 1,
    chunk_size: int | None = None,
    progress: Progress | None = None,
) -> SweepResult:
    """Run one Figure 4 panel (an ephemeral campaign-engine run).

    ``config_kwargs`` override :class:`SyntheticConfig` fields (e.g.
    ``clock_hz``); ``workers > 1`` distributes the spec's
    ``(point, set-chunk)`` jobs over the shared scheduler pool —
    ``chunk_size`` (default: a deterministic function of
    ``sets_per_point``) trades scheduling overhead against load balance.
    ``progress`` receives one
    :class:`~repro.campaigns.progress.ProgressEvent` per completed job.
    Results are identical for every workers/chunking choice thanks to
    the per-set seed derivation.
    """
    from repro.campaigns.engine import run_campaign

    spec = schedulability_spec(
        mesh,
        flow_counts,
        sets_per_point,
        seed=seed,
        small_buf=small_buf,
        large_buf=large_buf,
        include_sb=include_sb,
        config_kwargs=config_kwargs,
        chunk_size=chunk_size,
    )
    return run_campaign(spec, workers=workers, progress=progress).result

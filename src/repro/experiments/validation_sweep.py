"""Bound-vs-observed validation: simulated worst cases against the bounds.

The paper validates its analytical story with cycle-accurate simulation
(Section V, Table II): the worst latency observed under a release-offset
sweep must sit below every *safe* bound (IBN, XLWX) and — in MPB
scenarios with deep buffers — **above** the optimistic SB bound.  This
campaign generalises that check across buffer depths and workloads:

* the **didactic** Table I scenario, swept over τ1 release phases
  exactly like the paper's simulation columns, at every depth of the
  scale preset (not just the paper's 2 and 10);
* small **synthetic** flow sets (Section VI generator parameters scaled
  down to simulation-friendly periods), each swept over the phases of
  its two highest-priority flows — the dominant interferers.

Per (workload, depth, flow) row the campaign records the observed worst
latency next to the SB / IBN(depth) / XLWX bounds, flags safe-bound
violations (there must be none — this is the reproduction's strongest
end-to-end evidence) and MPB sightings (observed > SB), and renders the
usual text table + ASCII chart + CSV.

Runs on the campaign engine: :func:`validation_spec` expands every
(workload, depth) offset search into content-addressed ``sim_chunk``
jobs running on the fast-lane simulator, with the shift-dominance
pruning of :func:`repro.sim.worstcase.enumerate_phasings` applied at
expansion time — which is what makes the paper-scale phasing grids
affordable, and interrupted sweeps resumable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.campaigns.progress import Progress
from repro.campaigns.registry import CampaignKind, Plan, register_kind
from repro.campaigns.spec import (
    CampaignSpec,
    Job,
    chunk_size_param,
    spec_param,
)
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.analyses.xlwx import XLWXAnalysis
from repro.core.engine import analyze
from repro.core.interference import InterferenceGraph
from repro.experiments.sim_jobs import expand_sim_chunks, fold_worst
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.util.ascii_chart import ascii_chart
from repro.util.csvout import series_to_csv
from repro.util.rng import spawn_rng
from repro.workloads.didactic import didactic_flowset
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows

#: Column order of the per-row bounds.
BOUND_LABELS = ("SB", "IBN", "XLWX")


@dataclass(frozen=True)
class ValidationRow:
    """Observed worst latency vs. the three bounds for one flow."""

    workload: str
    buf: int
    flow: str
    observed: int
    #: label -> bound; None when that analysis did not converge.
    bounds: dict[str, int | None]

    @property
    def safe_ok(self) -> bool:
        """Observed within every *converged* safe bound (IBN, XLWX)."""
        return all(
            self.bounds[label] is None or self.observed <= self.bounds[label]
            for label in ("IBN", "XLWX")
        )

    @property
    def shows_mpb(self) -> bool:
        """Observed beyond SB's optimistic bound (the MPB phenomenon)."""
        sb = self.bounds["SB"]
        return sb is not None and self.observed > sb


@dataclass
class ValidationResult:
    """All rows of one validation campaign."""

    buffer_depths: tuple[int, ...]
    rows: list[ValidationRow] = field(default_factory=list)
    #: simulator runs executed / phasings pruned across all searches.
    runs: int = 0
    pruned: int = 0

    def violations(self) -> list[ValidationRow]:
        """Rows where the observation exceeds a safe bound (must be [])."""
        return [row for row in self.rows if not row.safe_ok]

    def mpb_rows(self) -> list[ValidationRow]:
        """Rows demonstrating multi-point progressive blocking."""
        return [row for row in self.rows if row.shows_mpb]

    def flow_series(
        self, workload: str, flow: str
    ) -> dict[str, list[float]]:
        """Observed + bounds across buffer depths for one flow."""
        picked = {
            row.buf: row for row in self.rows
            if row.workload == workload and row.flow == flow
        }
        series: dict[str, list[float]] = {"sim": []}
        for label in BOUND_LABELS:
            series[label] = []
        for buf in self.buffer_depths:
            row = picked[buf]
            series["sim"].append(float(row.observed))
            for label in BOUND_LABELS:
                bound = row.bounds[label]
                series[label].append(
                    float(bound) if bound is not None else float("nan")
                )
        return series

    def max_gap(self, workload: str, flow: str, label: str) -> int:
        """Largest bound-minus-observed gap for one flow and bound."""
        gaps = [
            row.bounds[label] - row.observed
            for row in self.rows
            if row.workload == workload and row.flow == flow
            and row.bounds[label] is not None
        ]
        if not gaps:
            raise ValueError(
                f"no converged {label!r} rows for {workload!r}/{flow!r}"
            )
        return max(gaps)

    def to_csv(self) -> str:
        """One CSV row per (workload, buf, flow)."""
        x_values = [
            f"{row.workload}/b{row.buf}/{row.flow}" for row in self.rows
        ]
        series = {"observed": [float(r.observed) for r in self.rows]}
        for label in BOUND_LABELS:
            series[label] = [
                float(r.bounds[label])
                if r.bounds[label] is not None else float("nan")
                for r in self.rows
            ]
        return series_to_csv("scenario", x_values, series)


#: The Section VI generator, rescaled for simulation: with a 1 MHz clock
#: the paper's wall-clock shape maps onto periods of 600–3000 cycles and
#: packets of 4–40 flits, so a multi-period release-offset sweep drains
#: in milliseconds while keeping the generator itself (uniform draws,
#: random endpoints, rate-monotonic priorities) the paper's.
VALIDATION_CONFIG = dict(
    period_min_s=0.6e-3,
    period_max_s=3e-3,
    length_min=4,
    length_max=40,
    clock_hz=1e6,
)


def synthetic_validation_flowset(
    platform: NoCPlatform, seed: int, set_index: int, num_flows: int
) -> FlowSet:
    """One simulation-scale random flow set from the Section VI generator."""
    rng = spawn_rng(seed, "validation", set_index)
    config = SyntheticConfig(num_flows=num_flows, **VALIDATION_CONFIG)
    flows = synthetic_flows(config, platform.topology.num_nodes, rng)
    return FlowSet(platform, flows)


def _flow_bounds(flowset: FlowSet, graph: InterferenceGraph, analysis):
    """One analysis' response time per flow (None when unconverged)."""
    result = analyze(flowset, analysis, graph=graph, stop_at_deadline=False)
    return _bounds_of(result)


def _bounds_of(result) -> dict[str, int | None]:
    """Per-flow exact bounds out of one result (None when unconverged)."""
    return {name: fr.response_time for name, fr in result.flows.items()}


def validation_spec(
    buffer_depths: Sequence[int],
    *,
    seed: int,
    name: str = "validation",
    didactic_offset_step: int = 20,
    didactic_horizon: int = 6001,
    synthetic_sets: int = 2,
    synthetic_flows: int = 6,
    synthetic_mesh: tuple[int, int] = (3, 3),
    chunk_size: int | None = None,
    title: str | None = None,
) -> CampaignSpec:
    """Declare one bound-vs-observed validation sweep as a campaign spec."""
    depths = list(buffer_depths)
    if not depths:
        raise ValueError("need at least one buffer depth")
    return CampaignSpec(
        kind="validation",
        name=name,
        params={
            "buffer_depths": depths,
            "seed": seed,
            "didactic_offset_step": didactic_offset_step,
            "didactic_horizon": didactic_horizon,
            "synthetic_sets": synthetic_sets,
            "synthetic_flows": synthetic_flows,
            "synthetic_mesh": list(synthetic_mesh),
            "chunk_size": chunk_size,
            "title": title,
        },
    )


@dataclass
class _SearchGroup:
    """One (workload, depth) offset search expanded into chunk jobs."""

    workload: str
    workload_params: dict
    buf: int
    jobs: list[Job]
    pruned: int


def _chunked_search(
    spec_name: str,
    workload: str,
    workload_params: dict,
    flowset: FlowSet,
    vary: Mapping[str, Sequence[int]],
    horizon: int,
    chunk_size: int | None,
) -> _SearchGroup:
    """Expand one offset search into ``sim_chunk`` jobs."""
    jobs, pruned = expand_sim_chunks(
        spec_name,
        f"{workload} buf={workload_params['buf']}",
        workload_params,
        flowset,
        vary,
        horizon,
        chunk_size,
    )
    return _SearchGroup(
        workload=workload,
        workload_params=workload_params,
        buf=workload_params["buf"],
        jobs=jobs,
        pruned=pruned,
    )


def _validation_params(spec: CampaignSpec) -> dict:
    """Validated spec parameters with kind defaults (JSON specs too)."""
    return {
        "buffer_depths": spec_param(spec, "buffer_depths"),
        "seed": spec_param(spec, "seed"),
        "didactic_offset_step": spec_param(spec, "didactic_offset_step", 20),
        "didactic_horizon": spec_param(spec, "didactic_horizon", 6001),
        "synthetic_sets": spec_param(spec, "synthetic_sets", 2),
        "synthetic_flows": spec_param(spec, "synthetic_flows", 6),
        "synthetic_mesh": spec_param(spec, "synthetic_mesh", [3, 3]),
        "chunk_size": chunk_size_param(spec),
    }


def _validation_plan(spec: CampaignSpec) -> Plan:
    """Expand the didactic and synthetic searches, depth-major."""
    p = _validation_params(spec)
    depths = p["buffer_depths"]
    chunk_size = p["chunk_size"]
    groups: list[_SearchGroup] = []

    base_didactic = didactic_flowset(buf=depths[0])
    t1_period = base_didactic.flow("t1").period
    for buf in depths:
        flowset = base_didactic.on_platform(
            base_didactic.platform.with_buffers(buf)
        )
        groups.append(
            _chunked_search(
                spec.name,
                "didactic",
                {"kind": "didactic", "buf": buf},
                flowset,
                {"t1": range(0, t1_period, p["didactic_offset_step"])},
                p["didactic_horizon"],
                chunk_size,
            )
        )

    base_platform = NoCPlatform(Mesh2D(*p["synthetic_mesh"]), buf=depths[0])
    for set_index in range(p["synthetic_sets"]):
        base_flowset = synthetic_validation_flowset(
            base_platform, p["seed"], set_index, p["synthetic_flows"]
        )
        # Sweep the phases of the two fastest (highest-priority) flows —
        # the interference sources the bounds reason about.
        interferers = [f for f in base_flowset.flows][:2]
        vary = {
            f.name: range(0, f.period, max(1, f.period // 6))
            for f in interferers
        }
        horizon = 3 * max(f.period for f in base_flowset.flows)
        for buf in depths:
            flowset = base_flowset.on_platform(
                base_platform.with_buffers(buf)
            )
            groups.append(
                _chunked_search(
                    spec.name,
                    f"synthetic-{set_index}",
                    {
                        "kind": "validation_synthetic",
                        "mesh": p["synthetic_mesh"],
                        "buf": buf,
                        "seed": p["seed"],
                        "set_index": set_index,
                        "num_flows": p["synthetic_flows"],
                    },
                    flowset,
                    vary,
                    horizon,
                    chunk_size,
                )
            )
    return Plan(
        jobs=[job for group in groups for job in group.jobs],
        context=groups,
    )


def _validation_aggregate(
    spec: CampaignSpec, plan: Plan, results: Mapping[str, Mapping]
) -> ValidationResult:
    """Rebuild the bounds and fold the simulated maxima into rows."""
    p = _validation_params(spec)
    depths = tuple(p["buffer_depths"])
    result = ValidationResult(buffer_depths=depths)

    # The interference graph and the SB/XLWX bounds are all
    # buffer-independent: build them once per workload and rebind the
    # flow set per depth, recomputing only IBN.
    base_flowsets: dict[str, FlowSet] = {
        "didactic": didactic_flowset(buf=depths[0])
    }
    base_platform = NoCPlatform(Mesh2D(*p["synthetic_mesh"]), buf=depths[0])
    for set_index in range(p["synthetic_sets"]):
        base_flowsets[f"synthetic-{set_index}"] = (
            synthetic_validation_flowset(
                base_platform, p["seed"], set_index, p["synthetic_flows"]
            )
        )
    graphs = {
        name: InterferenceGraph(flowset)
        for name, flowset in base_flowsets.items()
    }
    # Every bound of the whole campaign — SB and XLWX once per workload
    # (buffer-independent), IBN once per (workload, depth) — is one
    # mixed-analysis batch through the columnar kernel; results are
    # byte-identical to the per-call scalar runs they replace.
    from repro.core.batch import Scenario, analyze_batch

    scenarios: list[Scenario] = []
    keys: list[tuple] = []
    for name, flowset in base_flowsets.items():
        for label, analysis in (("SB", SBAnalysis()), ("XLWX", XLWXAnalysis())):
            scenarios.append(Scenario(flowset, analysis, graph=graphs[name]))
            keys.append((name, label))
    depth_flowsets: dict[tuple[str, int], FlowSet] = {}
    for group in plan.context:
        key = (group.workload, group.buf)
        if key in depth_flowsets:
            continue
        base_flowset = base_flowsets[group.workload]
        variant = base_flowset.on_platform(
            base_flowset.platform.with_buffers(group.buf)
        )
        depth_flowsets[key] = variant
        scenarios.append(
            Scenario(variant, IBNAnalysis(), graph=graphs[group.workload])
        )
        keys.append((group.workload, ("IBN", group.buf)))
    solved = analyze_batch(scenarios, stop_at_deadline=False)
    bound_table = {
        key: _bounds_of(result) for key, result in zip(keys, solved)
    }

    for group in plan.context:
        flowset = depth_flowsets[(group.workload, group.buf)]
        bounds = {
            "SB": bound_table[(group.workload, "SB")],
            "XLWX": bound_table[(group.workload, "XLWX")],
            "IBN": bound_table[(group.workload, ("IBN", group.buf))],
        }
        worst = fold_worst([results[job.job_id] for job in group.jobs])
        result.runs += sum(results[job.job_id]["runs"] for job in group.jobs)
        result.pruned += group.pruned
        if group.workload == "didactic":
            flow_names = ["t1", "t2", "t3"]
        else:
            flow_names = [flow.name for flow in flowset.flows]
        for flow_name in flow_names:
            result.rows.append(
                ValidationRow(
                    workload=group.workload,
                    buf=group.buf,
                    flow=flow_name,
                    observed=worst.get(flow_name, 0),
                    bounds={
                        label: bounds[label][flow_name]
                        for label in BOUND_LABELS
                    },
                )
            )
    return result


def render_validation(result: ValidationResult, *, title: str) -> str:
    """Full text report: per-row table plus the didactic τ3 chart."""
    lines = [title, ""]
    header = f"{'workload':<14} {'buf':>4} {'flow':<6} {'sim':>7} " + " ".join(
        f"{label:>7}" for label in BOUND_LABELS
    )
    lines.append(header + "  flags")
    lines.append("-" * len(header))
    for row in result.rows:
        cells = " ".join(
            f"{row.bounds[label]:>7}" if row.bounds[label] is not None
            else f"{'—':>7}"
            for label in BOUND_LABELS
        )
        flags = []
        if row.shows_mpb:
            flags.append("MPB>SB")
        if not row.safe_ok:
            flags.append("VIOLATION")
        lines.append(
            f"{row.workload:<14} {row.buf:>4} {row.flow:<6} "
            f"{row.observed:>7} {cells}  {' '.join(flags)}".rstrip()
        )
    lines.append("")
    lines.append(
        f"{result.runs} simulated phasings ({result.pruned} pruned as "
        f"time-shifts), {len(result.mpb_rows())} MPB rows, "
        f"{len(result.violations())} safe-bound violations"
    )
    series = result.flow_series("didactic", "t3")
    values = [
        v for vs in series.values() for v in vs if v == v  # drop NaNs
    ]
    lines.append("")
    lines.append(
        ascii_chart(
            [str(b) for b in result.buffer_depths],
            series,
            height=12,
            y_min=min(values) - 1.0,
            y_max=max(values) + 1.0,
            y_label="cycles",
            title="didactic τ3: observed vs bounds across buffer depths",
        )
    )
    return "\n".join(lines)


def _validation_render(spec: CampaignSpec, result: ValidationResult) -> str:
    title = spec.params.get("title") or (
        "Validation: worst observed latency vs bounds"
    )
    lines = [render_validation(result, title=title), ""]
    violations = result.violations()
    if violations:
        lines.append(f"WARNING: {len(violations)} safe-bound violations!")
    else:
        lines.append(
            "All observations within the safe IBN/XLWX bounds; "
            f"{len(result.mpb_rows())} rows exceed SB (MPB)."
        )
    return "\n".join(lines)


def _validation_csv(spec: CampaignSpec, result: ValidationResult) -> str:
    return result.to_csv()


def _validation_jsonable(spec: CampaignSpec, result: ValidationResult) -> dict:
    return {
        "buffer_depths": list(result.buffer_depths),
        "runs": result.runs,
        "pruned": result.pruned,
        "rows": [
            {
                "workload": row.workload,
                "buf": row.buf,
                "flow": row.flow,
                "observed": row.observed,
                "bounds": row.bounds,
                "safe_ok": row.safe_ok,
                "shows_mpb": row.shows_mpb,
            }
            for row in result.rows
        ],
    }


VALIDATION_KIND = register_kind(
    CampaignKind(
        name="validation",
        plan=_validation_plan,
        aggregate=_validation_aggregate,
        render=_validation_render,
        to_csv=_validation_csv,
        to_jsonable=_validation_jsonable,
    )
)


def validation_sweep(
    buffer_depths: Sequence[int],
    *,
    seed: int,
    didactic_offset_step: int = 20,
    didactic_horizon: int = 6001,
    synthetic_sets: int = 2,
    synthetic_flows: int = 6,
    synthetic_mesh: tuple[int, int] = (3, 3),
    workers: int = 1,
    progress: Progress | None = None,
) -> ValidationResult:
    """Sweep observed worst case vs. bounds across buffer depths.

    An ephemeral campaign-engine run: the didactic workload replays the
    paper's τ1 phase sweep per depth; each synthetic set sweeps the
    phases of its two highest-priority flows.  ``workers`` fans the
    spec's simulation chunks out over the shared scheduler pool (pool
    start-up is paid once for the whole campaign); the per-set seed
    derivation makes results identical for any worker count.
    """
    from repro.campaigns.engine import run_campaign

    spec = validation_spec(
        buffer_depths,
        seed=seed,
        didactic_offset_step=didactic_offset_step,
        didactic_horizon=didactic_horizon,
        synthetic_sets=synthetic_sets,
        synthetic_flows=synthetic_flows,
        synthetic_mesh=synthetic_mesh,
    )
    return run_campaign(spec, workers=workers, progress=progress).result

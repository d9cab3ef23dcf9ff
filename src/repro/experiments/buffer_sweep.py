"""Buffer-size ablation (Section VI claim).

The paper: "We have performed the same experiments with a range of
different buffer sizes between 2 and 100 [...] in every case, the analysis
was able to guarantee schedulability of a smaller number of flow sets when
considering routers with larger buffers."

This experiment fixes one Figure 4 load point and sweeps the buffer depth,
reporting the percentage of flow sets IBN deems schedulable per depth —
expected to be monotonically non-increasing in the depth (a property test
asserts this on top of the benchmark output).

Runs on the campaign engine: one content-addressed job per
``(depth, set-chunk)``; every depth sees byte-identical traffic because
the per-set RNG derivation depends only on the campaign seed and the set
index, never on the depth.
"""

from __future__ import annotations

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
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.engine import is_schedulable
from repro.core.interference import InterferenceGraph
from repro.experiments.schedulability_sweep import (
    SweepResult,
    default_chunk_size,
    sweep_csv_export,
    sweep_to_jsonable,
)
from repro.flows.flowset import FlowSet
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows


#: Worker-local (flows, graph) cache keyed by the depth-independent part
#: of a chunk's identity.  Traffic and interference geometry do not
#: depend on the buffer depth, so the chunks of different depths share
#: one generation + graph build per set whenever they land on the same
#: worker (always, in serial runs — restoring the pre-engine
#: "generate the flow sets once" behaviour).  Bounded FIFO so paper-scale
#: campaigns with many distinct chunks cannot grow it without limit.
_CHUNK_CACHE: dict[tuple, list] = {}
_CHUNK_CACHE_LIMIT = 64


def _chunk_flows_and_graphs(
    platform, params: Mapping
) -> list[tuple[list, InterferenceGraph]]:
    """The chunk's flow sets with their buffer-independent graphs."""
    num_flows = params["num_flows"]
    key = (
        params["seed"],
        num_flows,
        params["set_start"],
        params["set_count"],
        tuple(params["mesh"]),
        tuple(sorted(params["config"].items())),
    )
    cached = _CHUNK_CACHE.get(key)
    if cached is None:
        config = SyntheticConfig(num_flows=num_flows, **params["config"])
        cached = []
        set_start = params["set_start"]
        for set_index in range(set_start, set_start + params["set_count"]):
            rng = spawn_rng(params["seed"], "synthetic", num_flows, set_index)
            flows = synthetic_flows(config, platform.topology.num_nodes, rng)
            cached.append((flows, InterferenceGraph(FlowSet(platform, flows))))
        while len(_CHUNK_CACHE) >= _CHUNK_CACHE_LIMIT:
            _CHUNK_CACHE.pop(next(iter(_CHUNK_CACHE)))
        _CHUNK_CACHE[key] = cached
    return cached


@_registry.job_executor("buffer_chunk")
def run_buffer_chunk(params: Mapping) -> dict:
    """Worker: IBN verdicts for one depth over one chunk of flow sets."""
    return run_buffer_chunk_block([params])[0]


@_registry.block_executor("buffer_chunk")
def run_buffer_chunk_block(params_list: Sequence[Mapping]) -> list[dict]:
    """Worker: a block of depth-chunks as one mixed-depth scenario batch.

    Every (depth, set) cell of the block becomes one scenario of a
    single :func:`~repro.core.batch.analyze_batch` call; the cells of
    different depths share their flow sets and buffer-agnostic graphs
    through the worker-local chunk cache exactly as the per-job path
    does.  Per-job results are identical to :func:`run_buffer_chunk`.
    """
    from repro.core.batch import MIN_BATCH_FLOWS, Scenario, analyze_batch

    scenarios: list[Scenario] = []
    spans: list[tuple[int, int]] = []
    for params in params_list:
        cols, rows = params["mesh"]
        platform = worker_platform(cols, rows, params["depth"])
        analysis = IBNAnalysis()
        start = len(scenarios)
        for flows, graph in _chunk_flows_and_graphs(platform, params):
            scenarios.append(
                Scenario(FlowSet(platform, flows), analysis, graph=graph)
            )
        spans.append((start, len(scenarios)))
    if sum(len(s.flowset) for s in scenarios) >= MIN_BATCH_FLOWS:
        batch = analyze_batch(scenarios, early_exit=True)
        verdicts = [r.complete and r.schedulable for r in batch]
    else:
        verdicts = [
            is_schedulable(s.flowset, s.analysis, graph=s.graph)
            for s in scenarios
        ]
    return [
        {
            "schedulable": sum(verdicts[start:stop]),
            "sets": params["set_count"],
        }
        for params, (start, stop) in zip(params_list, spans)
    ]


def buffer_sweep_spec(
    mesh: tuple[int, int],
    buffer_depths: Sequence[int],
    num_flows: int,
    sets: int,
    *,
    seed: int,
    name: str = "buffer_sweep",
    config_kwargs: dict | None = None,
    chunk_size: int | None = None,
    title: str | None = None,
) -> CampaignSpec:
    """Declare the buffer-depth ablation as a campaign spec."""
    return CampaignSpec(
        kind="buffer_sweep",
        name=name,
        params={
            "mesh": list(mesh),
            "buffer_depths": list(buffer_depths),
            "num_flows": num_flows,
            "sets": sets,
            "seed": seed,
            "config": dict(config_kwargs or {}),
            "chunk_size": chunk_size,
            "title": title,
        },
    )


def _buffer_params(spec: CampaignSpec) -> dict:
    """Validated spec parameters with kind defaults (JSON specs too)."""
    return {
        "mesh": spec_param(spec, "mesh"),
        "buffer_depths": spec_param(spec, "buffer_depths"),
        "num_flows": spec_param(spec, "num_flows"),
        "sets": spec_param(spec, "sets"),
        "seed": spec_param(spec, "seed"),
        "config": spec_param(spec, "config", {}),
        "chunk_size": chunk_size_param(spec),
    }


def _buffer_plan(spec: CampaignSpec) -> Plan:
    p = _buffer_params(spec)
    cols, rows = p["mesh"]
    chunk_size = p["chunk_size"] or default_chunk_size(p["sets"])
    depth_jobs: list[list[Job]] = []
    for depth in p["buffer_depths"]:
        chunks = []
        for set_start in range(0, p["sets"], chunk_size):
            set_count = min(chunk_size, p["sets"] - set_start)
            chunks.append(
                Job(
                    kind="buffer_chunk",
                    params={
                        "mesh": [cols, rows],
                        "depth": depth,
                        "num_flows": p["num_flows"],
                        "set_start": set_start,
                        "set_count": set_count,
                        "seed": p["seed"],
                        "config": p["config"],
                    },
                    label=(
                        f"{spec.name} buf={depth} "
                        f"sets {set_start}+{set_count}"
                    ),
                )
            )
        depth_jobs.append(chunks)
    return Plan(
        jobs=[job for chunks in depth_jobs for job in chunks],
        context=depth_jobs,
    )


def _buffer_aggregate(
    spec: CampaignSpec, plan: Plan, results: Mapping[str, Mapping]
) -> SweepResult:
    p = _buffer_params(spec)
    result = SweepResult(
        x_label="per-VC buffer depth (flits)", sets_per_point=p["sets"]
    )
    for depth, chunks in zip(p["buffer_depths"], plan.context):
        schedulable = sum(
            results[job.job_id]["schedulable"] for job in chunks
        )
        result.add_point(depth, {"IBN": 100.0 * schedulable / p["sets"]})
    return result


def _buffer_render(spec: CampaignSpec, result: SweepResult) -> str:
    from repro.experiments.report import render_sweep

    p = _buffer_params(spec)
    title = spec.params.get("title") or (
        f"Buffer-depth ablation (IBN, {p['num_flows']} flows on "
        f"{p['mesh'][0]}x{p['mesh'][1]})"
    )
    return render_sweep(result, title=title)


BUFFER_SWEEP_KIND = register_kind(
    CampaignKind(
        name="buffer_sweep",
        plan=_buffer_plan,
        aggregate=_buffer_aggregate,
        render=_buffer_render,
        to_csv=sweep_csv_export,
        to_jsonable=sweep_to_jsonable,
    )
)


def buffer_sweep(
    mesh: tuple[int, int],
    buffer_depths: Sequence[int],
    num_flows: int,
    sets: int,
    *,
    seed: int,
    config_kwargs: dict | None = None,
    workers: int = 1,
    progress: Progress | None = None,
) -> SweepResult:
    """IBN schedulability versus per-VC buffer depth at a fixed load."""
    from repro.campaigns.engine import run_campaign

    spec = buffer_sweep_spec(
        mesh,
        buffer_depths,
        num_flows,
        sets,
        seed=seed,
        config_kwargs=config_kwargs,
    )
    return run_campaign(spec, workers=workers, progress=progress).result

"""Request normalisation and job executors for the serving layer.

The service never computes anything itself: every ``POST /analyze`` and
``POST /sizing`` request is normalised into the parameters of a
content-addressed job (the exact machinery campaigns run on —
:func:`repro.campaigns.spec.job_hash` over canonical JSON), so

* two requests meaning the same computation hash identically no matter
  how their JSON was spelled (key order, tuples vs lists), which is
  what lets the service coalesce in-flight duplicates and answer
  repeats from the LRU/result-store cache;
* the executors registered here (``serve_analyze``, ``serve_sizing``,
  ``serve_allocate``) are ordinary registry job kinds, runnable by any scheduler worker
  process — the server's process pool resolves them by name exactly
  like campaign jobs.

Validation happens in the ``*_params`` builders at request time (they
raise ``ValueError`` with a client-addressable message, mapped to HTTP
400), so by the time a job reaches a worker its inputs are known-good.
"""

from __future__ import annotations

import threading
from typing import Any, Mapping, Sequence

from repro.campaigns.registry import block_executor, job_executor
from repro.campaigns.spec import canonical_json
from repro.core.analyses import (
    ALL_COMPARISON,
    ANALYSES_BY_NAME,
    analysis_by_name,
)
from repro.core.engine import analyze, compare
from repro.core.sizing import sizing_summary
from repro.flows.flowset import FlowSet
from repro.io import flowset_from_dict, platform_from_dict, result_to_dict
from repro.noc.platform import NoCPlatform

#: ``analysis`` selector values accepted by ``POST /analyze``.
ANALYZE_CHOICES = (*sorted(ANALYSES_BY_NAME), "all")

#: Worker-local platform/topology caches, keyed by the canonical JSON
#: of the document's platform section (respectively the mesh size).
#: Buffer-depth variants of one mesh share a single Mesh2D, and all
#: cached platforms share one routing instance — whose per-topology
#: route memo therefore carries across requests, the analogue of the
#: campaign workers' :func:`repro.campaigns.scheduler.worker_platform`.
#: Bounded FIFO so adversarial topology churn cannot grow worker
#: memory without limit.
_PLATFORMS: dict[str, NoCPlatform] = {}
_MESHES: dict[tuple, Any] = {}
_PLATFORM_CACHE_LIMIT = 64
_SHARED_ROUTING = None
#: ``workers=0`` servers run these executors on concurrent threads, so
#: cache fills and evictions must be serialised (worker processes are
#: single-threaded — the lock is uncontended there).
_CACHE_LOCK = threading.Lock()


def _cached_platform(platform_data: Mapping[str, Any]) -> NoCPlatform:
    global _SHARED_ROUTING
    key = canonical_json(platform_data)
    platform = _PLATFORMS.get(key)
    if platform is not None:
        return platform
    with _CACHE_LOCK:
        platform = _PLATFORMS.get(key)
        if platform is None:
            if _SHARED_ROUTING is None:
                from repro.noc.routing import XYRouting

                _SHARED_ROUTING = XYRouting()
            topology_data = platform_data.get("topology") or {}
            mesh_key = (topology_data.get("cols"), topology_data.get("rows"))
            platform = platform_from_dict(
                dict(platform_data),
                topology=_MESHES.get(mesh_key),
                routing=_SHARED_ROUTING,
            )
            _MESHES.setdefault(mesh_key, platform.topology)
            while len(_PLATFORMS) >= _PLATFORM_CACHE_LIMIT:
                _PLATFORMS.pop(next(iter(_PLATFORMS)))
            while len(_MESHES) > _PLATFORM_CACHE_LIMIT:
                _MESHES.pop(next(iter(_MESHES)))
            _PLATFORMS[key] = platform
    return platform


def _positive_int(data: Mapping[str, Any], key: str) -> int | None:
    value = data.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{key!r} must be a positive integer, got {value!r}")
    return value


def _flowset_doc(data: Mapping[str, Any]) -> dict:
    """Validate and return the request's embedded flow-set document."""
    doc = data.get("flowset")
    if not isinstance(doc, dict):
        raise ValueError(
            "request needs a 'flowset' object in repro-flowset JSON format "
            "(see repro.io)"
        )
    try:
        flowset_from_dict(doc)  # full structural validation, result unused
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # AttributeError covers structurally wrong shapes (e.g. a string
        # where the topology object belongs) — still a client error.
        raise ValueError(f"invalid flowset document: {exc}") from None
    return doc


def _materialise(params: Mapping[str, Any]) -> FlowSet:
    """Worker side: rebuild the flow set, applying any buffer override.

    The platform comes from the worker-local cache, so repeat
    topologies reuse one Mesh2D and its memoized route table instead of
    recomputing every route per request.
    """
    doc = params["flowset"]
    platform = _cached_platform(doc["platform"])
    buf = params.get("buf")
    if buf is not None:
        platform = _cached_platform({**doc["platform"], "buf": buf,
                                     "buf_map": None})
    return flowset_from_dict(doc, platform=platform)


def analyze_params(data: Mapping[str, Any]) -> dict:
    """Normalise one ``POST /analyze`` body into ``serve_analyze`` params.

    Accepted fields: ``flowset`` (required, a repro-flowset document),
    ``analysis`` (one of :data:`ANALYZE_CHOICES`, default ``"ibn"``) and
    ``buf`` (optional per-VC buffer-depth override).
    """
    analysis = data.get("analysis", "ibn")
    if analysis not in ANALYZE_CHOICES:
        raise ValueError(
            f"unknown analysis {analysis!r}; "
            f"choose from {', '.join(ANALYZE_CHOICES)}"
        )
    return {
        "flowset": _flowset_doc(data),
        "analysis": analysis,
        "buf": _positive_int(data, "buf"),
    }


def allocate_params(data: Mapping[str, Any]) -> dict:
    """Normalise one ``POST /allocate`` body into ``serve_allocate`` params.

    Accepted fields: ``flowset`` (required), ``analysis`` (any selector
    name, default ``"ibn"``), ``lo``/``hi`` (depth range, defaults 1/8),
    ``budget`` (total-depth cap), ``cost_model`` (``{"kind": "depth" |
    "shallowness", "target": ..., "weights": {...}}``) and
    ``max_evaluations``.  The cost model is stored in canonical form so
    two spellings of one spec hash — and therefore cache, coalesce and
    shard — identically.
    """
    from repro.core.allocate import cost_model_from_dict

    doc = _flowset_doc(data)
    analysis = data.get("analysis", "ibn")
    if analysis not in ANALYSES_BY_NAME:
        raise ValueError(
            f"unknown analysis {analysis!r}; "
            f"choose from {', '.join(sorted(ANALYSES_BY_NAME))}"
        )
    lo = _positive_int(data, "lo") or 1
    hi = _positive_int(data, "hi") or 8
    if lo > hi:
        raise ValueError(f"need lo <= hi, got depth range [{lo}, {hi}]")
    num_routers = _cached_platform(doc["platform"]).topology.num_routers
    model = cost_model_from_dict(
        data.get("cost_model"), hi=hi, num_routers=num_routers
    )
    return {
        "flowset": doc,
        "analysis": analysis,
        "lo": lo,
        "hi": hi,
        "budget": _positive_int(data, "budget"),
        "cost_model": model.to_dict(),
        "max_evaluations": _positive_int(data, "max_evaluations"),
    }


def sizing_params(data: Mapping[str, Any]) -> dict:
    """Normalise one ``POST /sizing`` body into ``serve_sizing`` params.

    Accepted fields: ``flowset`` (required), ``buf`` (optional override
    applied before sizing) and ``max_depth`` (search ceiling, default
    1024).
    """
    return {
        "flowset": _flowset_doc(data),
        "buf": _positive_int(data, "buf"),
        "max_depth": _positive_int(data, "max_depth") or 1024,
    }


@job_executor("serve_analyze")
def run_analyze(params: Mapping[str, Any]) -> dict:
    """Execute one analyze job: bounds + verdict for one flow set.

    Returns the response body: ``results`` maps each analysis display
    label (``IBN2``, ``XLWX``...) to a ``repro-result/1`` document, and
    ``schedulable`` is the verdict of the tightest *safe* analysis run
    (IBN when ``analysis == "all"``).
    """
    flowset = _materialise(params)
    name = params["analysis"]
    if name == "all":
        results = compare(
            flowset, [analysis_by_name(n) for n in ALL_COMPARISON]
        )
        verdict = results[f"IBN{flowset.platform.buf}"]
    else:
        verdict = analyze(
            flowset, analysis_by_name(name), stop_at_deadline=False
        )
        results = {verdict.analysis_name: verdict}
    return {
        "analysis": verdict.analysis_name,
        "schedulable": verdict.schedulable,
        "results": {
            label: result_to_dict(result) for label, result in results.items()
        },
    }


@block_executor("serve_analyze")
def run_analyze_many(params_list: Sequence[Mapping[str, Any]]) -> list[dict]:
    """Execute a block of analyze jobs as one batched kernel call.

    Single-analysis requests become scenarios of one
    :func:`~repro.core.batch.analyze_batch` call (mixed analyses,
    topologies and buffer depths welcome); ``analysis == "all"``
    requests keep the scalar :func:`~repro.core.engine.compare`, which
    shares one interference graph across the analyses.  Each returned
    body is byte-identical to what :func:`run_analyze` produces for that
    request, so cache entries from either path are interchangeable.
    """
    from repro.core.batch import Scenario, analyze_batch

    bodies: list[dict | None] = [None] * len(params_list)
    scenarios: list[Scenario] = []
    positions: list[int] = []
    for index, params in enumerate(params_list):
        if params["analysis"] == "all":
            bodies[index] = run_analyze(params)
            continue
        scenarios.append(
            Scenario(
                _materialise(params), analysis_by_name(params["analysis"])
            )
        )
        positions.append(index)
    if scenarios:
        for index, verdict in zip(
            positions, analyze_batch(scenarios, stop_at_deadline=False)
        ):
            bodies[index] = {
                "analysis": verdict.analysis_name,
                "schedulable": verdict.schedulable,
                "results": {verdict.analysis_name: result_to_dict(verdict)},
            }
    return bodies  # type: ignore[return-value]


@job_executor("serve_sizing")
def run_sizing(params: Mapping[str, Any]) -> dict:
    """Execute one sizing job: buffer-depth and payload headroom."""
    flowset = _materialise(params)
    return sizing_summary(flowset, max_depth=params["max_depth"])


@job_executor("serve_allocate")
def run_allocate(params: Mapping[str, Any]) -> dict:
    """Execute one allocation job: the minimum-cost schedulable buf_map.

    Delegates to :func:`repro.core.allocate.allocation_summary`, the
    same document the CLI's ``--json`` mode and the ``allocation``
    campaign kind emit — one spec, one answer, on every surface.
    """
    from repro.core.allocate import allocation_summary

    flowset = _materialise(params)
    return allocation_summary(
        flowset,
        analysis_name=params["analysis"],
        lo=params["lo"],
        hi=params["hi"],
        cost_model=params["cost_model"],
        budget=params["budget"],
        max_evaluations=params["max_evaluations"],
    )

"""The campaign engine: declarative specs, shared scheduler, resumable store.

Every paper artefact (Tables I-II, Figures 4-5, the validation sweep)
is a Monte-Carlo campaign; this package is the one orchestration layer
they all run on:

* :mod:`repro.campaigns.spec` — declarative :class:`CampaignSpec` (grid
  of topology × flow count × buffer depth × seed × analysis points),
  expressible from Python and from JSON via
  ``python -m repro campaign spec.json``, plus content-addressed jobs;
* :mod:`repro.campaigns.scheduler` — deterministic job expansion fanned
  out over one shared process pool with worker-local platform reuse;
* :mod:`repro.campaigns.pool` — the self-healing process pool
  (:class:`~repro.campaigns.pool.ResilientPool`) under the scheduler
  and the serving tier;
* :mod:`repro.campaigns.store` — a JSONL :class:`ResultStore` keyed by
  stable job hashes, making every campaign resumable;
* :mod:`repro.campaigns.export` — shared ``text`` / ``csv`` / ``json``
  exporters replacing the experiments' duplicated output plumbing;
* :mod:`repro.campaigns.progress` — the one progress protocol
  (jobs done / total, ETA) every campaign reports through.
"""

from repro.campaigns.engine import (
    CampaignError,
    CampaignRun,
    QuarantinedJob,
    expand_jobs,
    run_campaign,
)
from repro.campaigns.export import CsvExporter, JsonExporter, TextExporter
from repro.campaigns.progress import Progress, ProgressEvent, stderr_progress
from repro.campaigns.registry import (
    CampaignKind,
    Plan,
    job_executor,
    kind_names,
    register_kind,
)
from repro.campaigns.scheduler import (
    FaultPolicy,
    RunStats,
    Scheduler,
    worker_platform,
)
from repro.campaigns.spec import (
    CampaignSpec,
    Job,
    canonical_json,
    job_hash,
    load_spec,
    save_spec,
)
from repro.campaigns.store import MemoryStore, ResultStore, open_store

__all__ = [
    "CampaignError",
    "CampaignKind",
    "CampaignRun",
    "CampaignSpec",
    "CsvExporter",
    "FaultPolicy",
    "Job",
    "JsonExporter",
    "MemoryStore",
    "Plan",
    "Progress",
    "ProgressEvent",
    "QuarantinedJob",
    "ResultStore",
    "RunStats",
    "Scheduler",
    "TextExporter",
    "canonical_json",
    "expand_jobs",
    "job_executor",
    "job_hash",
    "kind_names",
    "load_spec",
    "open_store",
    "register_kind",
    "run_campaign",
    "save_spec",
    "stderr_progress",
    "worker_platform",
]

"""Analysis-as-a-service: an async batch server over the campaign engine.

``python -m repro serve`` turns the library into a long-running JSON
service for interactive design-space exploration — the buffer-depth
vs. schedulability questions of the paper, answered per request:

* ``POST /analyze`` — flow set + analysis kind -> bounds and verdict;
* ``POST /sizing``  — flow set -> deepest schedulable buffer and
  payload scaling margin;
* ``POST /campaign`` / ``GET /campaign/<id>`` — submit a declarative
  :class:`~repro.campaigns.CampaignSpec` and poll its progress
  (:class:`~repro.campaigns.ProgressEvent` numbers) and result;
* ``GET /healthz`` / ``GET /stats`` — liveness and the cache /
  coalescing counters.

Requests are normalised into the campaign engine's content-addressed
jobs, so identical queries — however their JSON is spelled — coalesce
while in flight and repeat answers come from a bounded LRU backed by
the JSONL result store.  The stack is stdlib-only (``asyncio`` sockets,
hand-rolled HTTP/1.1 framing in :mod:`repro.serve.http`); see
``docs/api.md`` and the "Serving architecture" section of DESIGN.md.

``python -m repro cluster`` scales the same service out: a supervisor
(:mod:`repro.serve.cluster`) spawns N front-end processes on one shared
port, restarts dead or wedged ones with capped backoff, and wires them
to store-daemon shards (:mod:`repro.serve.stored`) so each
content-addressed result is computed once cluster-wide; overload sheds
with 429 + ``Retry-After`` instead of collapsing — see the "Sharded
serving" section of DESIGN.md.
"""

from repro.serve.cache import ServeCache
from repro.serve.client import ServeClient, ServeError
from repro.serve.cluster import (
    ClusterConfig,
    ClusterSupervisor,
    run_cluster,
)
from repro.serve.http import HttpError, HttpRequest
from repro.campaigns.pool import ResilientPool
from repro.serve.server import ServerHandle, run_server, serve, start_in_thread
from repro.serve.service import (
    AnalysisService,
    CampaignStatus,
    ServeConfig,
    campaign_id,
)
from repro.serve.stored import (
    HashRing,
    RemoteStore,
    StoreClient,
    StoreDaemon,
    StoreUnavailable,
    run_stored,
)

__all__ = [
    "AnalysisService",
    "CampaignStatus",
    "ClusterConfig",
    "ClusterSupervisor",
    "HashRing",
    "HttpError",
    "HttpRequest",
    "RemoteStore",
    "ResilientPool",
    "ServeCache",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerHandle",
    "StoreClient",
    "StoreDaemon",
    "StoreUnavailable",
    "campaign_id",
    "run_cluster",
    "run_server",
    "run_stored",
    "serve",
    "start_in_thread",
]

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

import importlib

#: Where each exported name lives.  Names resolve on first access
#: (PEP 562), so importing one submodule — the campaign registry loads
#: :mod:`repro.serve.jobs` — does not load the server, cluster, client
#: and store stacks, with asyncio, ssl and http.client behind them.
_EXPORTS = {
    "AnalysisService": "repro.serve.service",
    "CampaignStatus": "repro.serve.service",
    "ClusterConfig": "repro.serve.cluster",
    "ClusterSupervisor": "repro.serve.cluster",
    "HashRing": "repro.serve.stored",
    "HttpError": "repro.serve.http",
    "HttpRequest": "repro.serve.http",
    "RemoteStore": "repro.serve.stored",
    "ResilientPool": "repro.campaigns.pool",
    "ServeCache": "repro.serve.cache",
    "ServeClient": "repro.serve.client",
    "ServeConfig": "repro.serve.service",
    "ServeError": "repro.serve.client",
    "ServerHandle": "repro.serve.server",
    "StoreClient": "repro.serve.stored",
    "StoreDaemon": "repro.serve.stored",
    "StoreUnavailable": "repro.serve.stored",
    "campaign_id": "repro.serve.service",
    "run_cluster": "repro.serve.cluster",
    "run_server": "repro.serve.server",
    "run_stored": "repro.serve.stored",
    "serve": "repro.serve.server",
    "start_in_thread": "repro.serve.server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

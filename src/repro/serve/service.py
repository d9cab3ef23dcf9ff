"""The analysis service: JSON endpoints over the campaign machinery.

One :class:`AnalysisService` instance is the whole application state of
``python -m repro serve``.  Requests flow through a fixed path::

    request body --(jobs.py)--> canonical params --> sha256 job hash
        --> LRU / result-store cache?   -> answer immediately
        --> identical job in flight?    -> await its future (coalesce)
        --> otherwise                   -> compute on the worker pool

* **Caching** — results are keyed by the campaign engine's content
  address, held in a bounded :class:`~repro.serve.cache.ServeCache`
  and (with ``run_dir``) written through to a JSONL
  :class:`~repro.campaigns.store.ResultStore`, so a restarted server
  answers warm.
* **Coalescing** — concurrent identical requests share one computation:
  the first creates an ``asyncio.Future`` in the in-flight table, the
  rest await it.  Futures resolve to ``("ok", value)`` / ``("err",
  exc)`` tuples so an unobserved failure never trips the event loop's
  un-retrieved-exception warning.
* **Micro-batching** — concurrent *distinct* analyze misses queue for
  the batch flusher, which ships them as one ``serve_analyze`` block
  per flush — a single batched-kernel call on the worker path (see
  :mod:`repro.core.batch`).  A lone miss bypasses the queue entirely,
  so sequential traffic pays nothing; ``POST /analyze/batch`` carries
  many requests per round trip through the same machinery.
* **Pool** — with ``workers > 0`` the service owns one self-healing
  :class:`~repro.campaigns.pool.ResilientPool` shared by single-request
  jobs *and* submitted campaigns (injected into the
  :class:`~repro.campaigns.Scheduler`);
  with ``workers == 0`` jobs run on the default thread executor
  (simple, in-process — fine for tests and tiny deployments, but
  GIL-bound).
* **Campaigns** — ``POST /campaign`` accepts a
  :class:`~repro.campaigns.CampaignSpec` document, keys it by the
  sha256 of its canonical JSON (resubmission coalesces), and runs it in
  a background task; ``GET /campaign/<id>`` polls state, the latest
  :class:`~repro.campaigns.ProgressEvent` and, once done, the rendered
  report plus the kind's structured payload.

Failure semantics: validation errors are HTTP 400 before any job is
hashed; executor crashes are HTTP 500 and poison nothing (the job is
simply not cached); a failed campaign parks in state ``"failed"`` with
its error string and never aborts the server.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro import __version__
from repro.campaigns import registry
from repro.campaigns.engine import run_campaign
from repro.campaigns.progress import ProgressEvent
from repro.campaigns.scheduler import RunStats
from repro.campaigns.spec import CampaignSpec, job_hash, jsonable
from repro.campaigns.store import FSYNC_MODES
from repro.serve import jobs
from repro.serve.cache import JsonlQueryStore, ServeCache
from repro.serve.http import HttpError, HttpRequest
from repro.campaigns.pool import ResilientPool


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance (CLI flags map 1:1 onto these)."""

    #: Bind address; use ``0.0.0.0`` to accept remote clients.
    host: str = "127.0.0.1"
    #: TCP port; ``0`` binds an ephemeral port (tests, benchmarks).
    port: int = 8177
    #: Process-pool size for job execution; ``0`` = run jobs on the
    #: default thread executor inside the server process.
    workers: int = 0
    #: Bound on the in-memory LRU result cache (entries).
    cache_size: int = 256
    #: Optional directory persisting query results and campaign stores
    #: across restarts (``<run_dir>/queries``, ``<run_dir>/campaigns/*``).
    run_dir: str | None = None
    #: Finished campaign statuses (rendered report + structured data)
    #: kept in memory; the oldest beyond this are evicted — with
    #: ``run_dir`` their job results stay on disk, so resubmitting the
    #: spec replays them near-instantly.
    campaign_history: int = 128
    #: Seconds a keep-alive connection may sit idle (or dribble a
    #: request in) before the server closes it; stalled clients must
    #: not pin file descriptors forever.
    idle_timeout_s: float = 120.0
    #: Campaigns allowed in the pending/running states at once; further
    #: submissions of *new* specs get HTTP 429 (polling and coalescing
    #: resubmissions are unaffected).
    max_active_campaigns: int = 8
    #: Seconds the analyze micro-batcher waits after the first queued
    #: cache miss before flushing, coalescing concurrent ``/analyze``
    #: misses into one batched kernel call.  ``0`` flushes on the next
    #: event-loop tick (no added latency beyond already-queued work).
    batch_window_s: float = 0.0
    #: Upper bound on requests per batched kernel call.
    max_batch: int = 64
    #: Per-request compute deadline in seconds (``None`` = unbounded):
    #: a job still running past it answers 504 while the computation
    #: finishes in the background and fills the cache.
    request_timeout_s: float | None = None
    #: Backpressure window after a worker-pool rebuild: cache misses
    #: answer 503 with ``Retry-After`` until the fresh workers warmed
    #: up for this long (cache hits and coalesced requests still serve).
    rebuild_cooldown_s: float = 0.5
    #: Seconds a graceful drain (SIGTERM / stop) waits for in-flight
    #: requests before cancelling their connections.
    drain_timeout_s: float = 5.0
    #: Store-daemon shard addresses (``host:port``).  Non-empty switches
    #: the query tier to the shared cluster store: results are
    #: consistent-hashed over the shards (every front-end agrees on the
    #: owner), read through the local LRU, and a shard outage degrades
    #: to recomputation.  ``run_dir`` then only persists campaign
    #: stores — query results live in the shard daemons' directories.
    store_addrs: tuple[str, ...] = ()
    #: Fsync policy of the local query store (``none``/``batch``/
    #: ``always``); ignored when ``store_addrs`` routes queries to the
    #: shard daemons (which carry their own policy).
    store_fsync: str = "none"
    #: Admission bound: compute requests (analyze / batch / sizing / allocate)
    #: concurrently in this process.  ``0`` = unbounded (single-process
    #: default); a cluster front-end sets it so overload **sheds** (429
    #: + ``Retry-After``) instead of queueing without bound until every
    #: request times out.
    max_inflight: int = 0
    #: ``Retry-After`` hint (seconds) on shed 429 responses.
    shed_retry_after_s: float = 1.0
    #: Compute backend for this service and its worker pool (``numpy``
    #: or ``cext``; ``None`` keeps ``REPRO_BACKEND``/numpy).  Selection
    #: is exported into the environment, so pool workers inherit it.
    backend: str | None = None

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.cache_size < 1:
            raise ValueError(
                f"cache_size must be >= 1, got {self.cache_size}"
            )
        if self.campaign_history < 1:
            raise ValueError(
                f"campaign_history must be >= 1, got {self.campaign_history}"
            )
        if self.idle_timeout_s <= 0:
            raise ValueError(
                f"idle_timeout_s must be > 0, got {self.idle_timeout_s}"
            )
        if self.max_active_campaigns < 1:
            raise ValueError(
                "max_active_campaigns must be >= 1, got "
                f"{self.max_active_campaigns}"
            )
        if self.batch_window_s < 0:
            raise ValueError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ValueError(
                "request_timeout_s must be positive or None, got "
                f"{self.request_timeout_s}"
            )
        if self.rebuild_cooldown_s < 0:
            raise ValueError(
                "rebuild_cooldown_s must be >= 0, got "
                f"{self.rebuild_cooldown_s}"
            )
        if self.drain_timeout_s < 0:
            raise ValueError(
                f"drain_timeout_s must be >= 0, got {self.drain_timeout_s}"
            )
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        for group in self.store_addrs:
            # Each entry is one shard: a single "host:port" or a
            # replicated group "host:port,host:port" (primary,backup).
            members = [part for part in group.split(",") if part]
            if not members:
                raise ValueError(f"empty store address group {group!r}")
            for addr in members:
                host, _, port_text = addr.rpartition(":")
                if not host or not port_text.isdigit():
                    raise ValueError(
                        f"store address must be 'host:port', got {addr!r}"
                    )
        if self.store_fsync not in FSYNC_MODES:
            raise ValueError(
                f"store_fsync must be one of {', '.join(FSYNC_MODES)}, "
                f"got {self.store_fsync!r}"
            )
        if self.max_inflight < 0:
            raise ValueError(
                f"max_inflight must be >= 0, got {self.max_inflight}"
            )
        if self.shed_retry_after_s <= 0:
            raise ValueError(
                "shed_retry_after_s must be > 0, got "
                f"{self.shed_retry_after_s}"
            )
        if self.backend is not None:
            from repro.core.backend import registered_backend_names

            if self.backend.strip().lower() not in registered_backend_names():
                raise ValueError(
                    f"unknown backend {self.backend!r}; registered: "
                    f"{', '.join(registered_backend_names())}"
                )


class CampaignStatus:
    """Mutable lifecycle record of one submitted campaign."""

    __slots__ = (
        "id", "spec", "state", "progress", "stats", "error", "render", "data",
        "partial", "quarantine",
    )

    def __init__(self, campaign_id: str, spec: CampaignSpec) -> None:
        self.id = campaign_id
        self.spec = spec
        # pending -> running -> done | failed.  One transient detour:
        # "failed: worker pool broken (restarted)" while the service
        # auto-resubmits a pool-break victim from its resumable store.
        self.state = "pending"
        self.progress: ProgressEvent | None = None
        self.stats: RunStats | None = None
        self.error: str | None = None
        self.render: str | None = None
        self.data: Any = None
        self.partial = False
        self.quarantine: list[dict] = []

    def to_jsonable(self, *, include_result: bool = True) -> dict:
        """The status document ``GET /campaign/<id>`` returns."""
        progress = self.progress
        stats = self.stats
        payload: dict[str, Any] = {
            "id": self.id,
            "name": self.spec.name,
            "kind": self.spec.kind,
            "state": self.state,
            "error": self.error,
            "progress": None if progress is None else {
                "done": progress.done,
                "total": progress.total,
                "skipped": progress.skipped,
                "label": progress.label,
                "elapsed_s": round(progress.elapsed_s, 3),
                "eta_s": (
                    None if progress.eta_s is None else round(progress.eta_s, 3)
                ),
            },
            "stats": None if stats is None else {
                "jobs_total": stats.jobs_total,
                "jobs_run": stats.jobs_run,
                "jobs_skipped": stats.jobs_skipped,
                "elapsed_s": round(stats.elapsed_s, 3),
                "jobs_quarantined": stats.jobs_quarantined,
                "retries": stats.retries,
                "timeouts": stats.timeouts,
                "pool_rebuilds": stats.pool_rebuilds,
            },
        }
        if self.partial:
            payload["partial"] = True
            payload["quarantine"] = self.quarantine
        if include_result:
            payload["result"] = (
                None if self.state != "done"
                else {"render": self.render, "data": self.data}
            )
        return payload


def campaign_id(spec: CampaignSpec) -> str:
    """Content address of a campaign: sha256 of its canonical spec JSON."""
    return hashlib.sha256(spec.canonical().encode("utf-8")).hexdigest()


class AnalysisService:
    """Application state + request handlers behind the HTTP layer."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        if self.config.backend is not None:
            # Selection exports REPRO_BACKEND, so the pool's (spawned or
            # forked) workers inherit the choice with the environment.
            from repro.core import backend as backend_mod

            backend_mod.set_backend(self.config.backend)
        store = None
        if self.config.store_addrs:
            # Cluster mode: the query tier is the shared store-daemon
            # shards — every front-end reads/writes the same results,
            # keyed by consistent hash of the content address.
            from repro.serve.stored import RemoteStore

            store = RemoteStore(self.config.store_addrs)
        elif self.config.run_dir is not None:
            # Offset-indexed on disk: the LRU (not the store) bounds
            # what this process holds in memory.
            store = JsonlQueryStore(
                Path(self.config.run_dir) / "queries",
                fsync=self.config.store_fsync,
            )
        self.cache = ServeCache(maxsize=self.config.cache_size, store=store)
        # The shared pool is supervised: worker deaths rebuild it and
        # resubmit the queued work instead of poisoning every future.
        self.pool: ResilientPool | None = (
            ResilientPool(
                self.config.workers,
                cooldown_s=self.config.rebuild_cooldown_s,
            )
            if self.config.workers > 0
            else None
        )
        self.inflight: dict[str, asyncio.Future] = {}
        self.campaigns: dict[str, CampaignStatus] = {}
        self.executed = 0
        self.coalesced = 0
        self.requests = 0
        self.started_at = time.monotonic()
        self._tasks: set[asyncio.Task] = set()
        #: analyze micro-batcher: queued (params, future) cache misses
        #: plus the counters ``GET /stats`` reports under "batching".
        self._batch_queue: list[tuple[dict, asyncio.Future]] = []
        self._batch_flusher: asyncio.Task | None = None
        self._analyze_active = 0
        self.batches = 0
        self.batched_requests = 0
        self.direct_requests = 0
        self.max_batch_seen = 0
        #: Resilience counters (``GET /stats`` "resilience" block).
        self.rejected_503 = 0
        self.deadline_timeouts = 0
        self.campaign_pool_restarts = 0
        #: Overload protection: compute requests admitted right now,
        #: and how many were shed with 429 (``GET /stats`` "overload").
        self.admitted = 0
        self.shed_429 = 0
        #: Latest cluster-wide aggregate, pushed by the supervisor over
        #: the control pipe (cluster front-ends only).  When set,
        #: ``GET /stats`` grows a "cluster" block, so *any* front-end
        #: answers for the whole cluster.
        self.cluster: dict | None = None
        #: Set by the transport on graceful shutdown: finish in-flight
        #: exchanges, answer with ``Connection: close``, accept nothing
        #: new.
        self.draining = False

    # ------------------------------------------------------------------
    # dispatch

    async def handle(self, request: HttpRequest) -> tuple[int, dict]:
        """Route one parsed request to its handler -> (status, payload)."""
        self.requests += 1
        path = request.path.rstrip("/") or "/"
        if path == "/":
            self._require(request, "GET")
            return 200, self._index()
        if path == "/healthz":
            self._require(request, "GET")
            return 200, self._healthz()
        if path == "/stats":
            self._require(request, "GET")
            return 200, self._stats()
        if path == "/analyze":
            self._require(request, "POST")
            with self._admission():
                return await self._job_endpoint(
                    request, "serve_analyze", jobs.analyze_params
                )
        if path == "/analyze/batch":
            self._require(request, "POST")
            with self._admission():
                return await self._analyze_batch_endpoint(request)
        if path == "/sizing":
            self._require(request, "POST")
            with self._admission():
                return await self._job_endpoint(
                    request, "serve_sizing", jobs.sizing_params
                )
        if path == "/allocate":
            self._require(request, "POST")
            with self._admission():
                return await self._job_endpoint(
                    request, "serve_allocate", jobs.allocate_params
                )
        if path == "/campaign":
            if request.method == "GET":
                return 200, self._campaign_list()
            self._require(request, "POST")
            return await self._campaign_submit(request)
        if path.startswith("/campaign/"):
            self._require(request, "GET")
            return 200, self._campaign_status(path.removeprefix("/campaign/"))
        raise HttpError(404, f"no such endpoint: {request.path}")

    @contextlib.contextmanager
    def _admission(self):
        """Bound concurrent compute requests; shed the excess with 429.

        The whole point of shedding: a saturated front-end answering a
        cheap 429 + ``Retry-After`` immediately stays *responsive* (and
        its admitted requests keep their latency), where unbounded
        queueing under overload turns every request into a timeout.
        ``max_inflight == 0`` disables the gate (single-process
        default); counters run on the event loop, so no lock.
        """
        limit = self.config.max_inflight
        if limit and self.admitted >= limit:
            self.shed_429 += 1
            raise HttpError(
                429,
                f"{self.admitted} compute requests already in flight "
                f"(limit {limit}); shedding load — retry after the "
                "hinted delay",
                retry_after=self.config.shed_retry_after_s,
            )
        self.admitted += 1
        try:
            yield
        finally:
            self.admitted -= 1

    @staticmethod
    def _require(request: HttpRequest, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, f"{request.path} only accepts {method}, got {request.method}"
            )

    # ------------------------------------------------------------------
    # small GET endpoints

    def _index(self) -> dict:
        """``GET /``: endpoint discovery document."""
        return {
            "service": "repro-serve",
            "version": __version__,
            "endpoints": {
                "GET /healthz": "liveness + uptime",
                "GET /stats": "cache / coalescing / campaign counters",
                "POST /analyze": "flowset + analysis -> bounds and verdict",
                "POST /analyze/batch": "many analyze requests, one batched kernel call",
                "POST /sizing": "flowset -> buffer-depth and payload headroom",
                "POST /allocate": "flowset + cost model -> min-cost schedulable buffer allocation",
                "POST /campaign": "submit a campaign spec (async)",
                "GET /campaign": "list submitted campaigns",
                "GET /campaign/<id>": "poll one campaign's progress/result",
            },
        }

    def _healthz(self) -> dict:
        """``GET /healthz``: liveness probe payload."""
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "workers": self.config.workers,
        }

    def _stats(self) -> dict:
        """``GET /stats``: the counters the tests and benchmarks assert."""
        by_state: dict[str, int] = {}
        for status in self.campaigns.values():
            by_state[status.state] = by_state.get(status.state, 0) + 1
        cache_stats = self.cache.stats()
        store_stats = getattr(self.cache.store, "stats", None)
        if callable(store_stats):
            # RemoteStore: shard count, outage, buffered-put and
            # failover counters.
            cache_stats["remote"] = store_stats()
        durability = getattr(self.cache.store, "durability_stats", None)
        if callable(durability):
            # JsonlQueryStore: fsync mode, read-only degradation and
            # corrupt-record quarantine counters.
            cache_stats["store"] = durability()
        from repro.core.backend import get_backend

        payload = {
            "requests": self.requests,
            "executed": self.executed,
            "coalesced": self.coalesced,
            "inflight": len(self.inflight),
            "backend": get_backend().name,
            "cache": cache_stats,
            "campaigns": by_state,
            "batching": {
                "batches": self.batches,
                "batched_requests": self.batched_requests,
                "direct_requests": self.direct_requests,
                "max_batch": self.max_batch_seen,
                "queued": len(self._batch_queue),
            },
            "resilience": {
                "pool_rebuilds": getattr(self.pool, "rebuilds", 0),
                "pool_resubmits": getattr(self.pool, "resubmits", 0),
                "pool_rebuilding": bool(
                    getattr(self.pool, "rebuilding", False)
                ),
                "rejected_503": self.rejected_503,
                "deadline_timeouts": self.deadline_timeouts,
                "campaign_pool_restarts": self.campaign_pool_restarts,
                "draining": self.draining,
            },
            "overload": {
                "admitted": self.admitted,
                "max_inflight": self.config.max_inflight,
                "shed_429": self.shed_429,
                "shed_retry_after_s": self.config.shed_retry_after_s,
            },
        }
        if self.cluster is not None:
            payload["cluster"] = self.cluster
        return payload

    # ------------------------------------------------------------------
    # single-request jobs (analyze / sizing / allocate)

    async def _job_endpoint(
        self,
        request: HttpRequest,
        kind: str,
        params_builder: Callable[[Mapping[str, Any]], dict],
    ) -> tuple[int, dict]:
        # Body decode + validation parse the embedded flowset document,
        # which for big requests is real work — run the whole step on a
        # thread, never on the event loop.
        def decode_and_validate() -> dict:
            return params_builder(request.json())

        try:
            params = await asyncio.get_running_loop().run_in_executor(
                None, decode_and_validate
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        job_id, body, source = await self._deadline(
            self._run_job(kind, params)
        )
        return 200, {
            "job": job_id,
            "cached": source != "computed",
            "source": source,
            **body,
        }

    async def _deadline(self, coro):
        """Bound one request by ``request_timeout_s`` (no-op when None).

        The underlying computation is shielded: a deadline answers 504
        to *this* client while the job finishes in the background and
        fills the cache (and resolves any coalesced waiters) — exactly
        the semantics a deterministic content-addressed job allows.
        """
        timeout = self.config.request_timeout_s
        if timeout is None:
            return await coro
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        # Keep the background outcome observed either way, or the loop
        # logs "exception was never retrieved" after a timeout.
        task.add_done_callback(
            lambda t: t.cancelled() or t.exception()
        )
        try:
            return await asyncio.wait_for(asyncio.shield(task), timeout)
        except asyncio.TimeoutError:
            self.deadline_timeouts += 1
            raise HttpError(
                504,
                f"request exceeded the {timeout}s deadline; the "
                "computation continues and its result will be cached",
                retry_after=timeout,
            ) from None

    def _reject_if_rebuilding(self) -> None:
        """503 + Retry-After while the worker pool is rebuilding."""
        pool = self.pool
        if pool is not None and pool.rebuilding:
            self.rejected_503 += 1
            raise HttpError(
                503,
                "worker pool is rebuilding after a worker crash; "
                "retry shortly",
                retry_after=pool.rebuilding_for,
            )

    async def _run_job(
        self, kind: str, params: dict, *, prefer_batch: bool = False
    ) -> tuple[str, Any, str]:
        """Serve one content-addressed job: cache, coalesce or compute.

        The in-flight future is registered *before* any await, so two
        identical concurrent requests can never both reach the compute
        path: the second always finds the first's future.  Cache reads
        and writes both run on the thread executor — a store-backed
        lookup touches disk, and neither may stall the event loop.
        """
        loop = asyncio.get_running_loop()
        # Hashing canonicalises the full params document (multiple JSON
        # serialisations) — thread work for the same reason as above.
        job_id = await loop.run_in_executor(None, job_hash, kind, params)
        pending = self.inflight.get(job_id)
        if pending is not None:
            self.coalesced += 1
            outcome, value = await pending
            if outcome == "err":
                raise value
            return job_id, value, "coalesced"
        future: asyncio.Future = loop.create_future()
        self.inflight[job_id] = future
        try:
            try:
                found, value = await loop.run_in_executor(
                    None, self.cache.get, job_id
                )
                source = "cache"
                if not found:
                    # Cache misses need fresh compute: shed load while
                    # the pool recovers (hits/coalesces still serve).
                    self._reject_if_rebuilding()
                    if kind == "serve_analyze" and (
                        prefer_batch
                        or self._analyze_active > 0
                        or self._batch_queue
                    ):
                        # Another analyze is computing (or this request
                        # arrived as part of a batch): funnel through
                        # the micro-batcher so concurrent misses become
                        # one batched kernel call on the worker path.
                        value = await self._compute_batched(params)
                    elif kind == "serve_analyze":
                        # Lone miss: straight to the worker path — the
                        # batcher must never tax sequential traffic.
                        self._analyze_active += 1
                        self.direct_requests += 1
                        try:
                            value = await loop.run_in_executor(
                                self.pool, registry.execute_job, kind, params
                            )
                        finally:
                            self._analyze_active -= 1
                    else:
                        value = await loop.run_in_executor(
                            self.pool, registry.execute_job, kind, params
                        )
                    value = await loop.run_in_executor(
                        None, self.cache.put, job_id, value
                    )
                    self.executed += 1
                    source = "computed"
            except Exception as exc:
                future.set_result(("err", exc))
                raise
            future.set_result(("ok", value))
            return job_id, value, source
        finally:
            self.inflight.pop(job_id, None)

    async def _compute_batched(self, params: dict):
        """Queue one analyze computation for the next batch flush."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._batch_queue.append((params, future))
        if self._batch_flusher is None or self._batch_flusher.done():
            task = loop.create_task(self._flush_batches())
            self._batch_flusher = task
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        return await future

    async def _flush_batches(self) -> None:
        """Drain the analyze queue in batched kernel calls.

        One task at a time: created by the first queued miss, lives
        until the queue is empty.  Each flush waits ``batch_window_s``
        (or just the next loop tick) so concurrent requests land in the
        same batch, then ships up to ``max_batch`` of them as
        ``serve_analyze`` blocks to the worker path — one block on the
        thread executor (``workers=0``, where batching is the whole
        win), sharded across the process pool otherwise so the batch
        never serialises what the pool could run in parallel.
        """
        loop = asyncio.get_running_loop()
        while self._batch_queue:
            if self.config.batch_window_s > 0:
                await asyncio.sleep(self.config.batch_window_s)
            else:
                await asyncio.sleep(0)
            batch = self._batch_queue[: self.config.max_batch]
            del self._batch_queue[: len(batch)]
            if not batch:
                break
            shards = self._shard(batch)
            self.batches += len(shards)
            self.batched_requests += len(batch)
            self.max_batch_seen = max(
                self.max_batch_seen, max(len(shard) for shard in shards)
            )
            outcomes = await asyncio.gather(
                *[
                    loop.run_in_executor(
                        self.pool,
                        registry.execute_block,
                        "serve_analyze",
                        [params for params, _ in shard],
                    )
                    for shard in shards
                ],
                return_exceptions=True,
            )
            for shard, outcome in zip(shards, outcomes):
                if isinstance(outcome, BaseException):
                    for _, future in shard:
                        if not future.done():
                            future.set_exception(outcome)
                    continue
                for (_, future), value in zip(shard, outcome):
                    if not future.done():
                        future.set_result(value)

    def _shard(self, batch: list) -> list[list]:
        """Split one flush over the process pool's width (≥1 shard)."""
        workers = self.config.workers
        if workers <= 1 or len(batch) <= 1:
            return [batch]
        size = -(-len(batch) // workers)
        return [
            batch[start:start + size]
            for start in range(0, len(batch), size)
        ]

    async def _analyze_batch_endpoint(
        self, request: HttpRequest
    ) -> tuple[int, dict]:
        """``POST /analyze/batch``: many analyze requests in one call.

        Each entry of the ``requests`` array is one ``POST /analyze``
        body; entries flow through the same per-request content
        addressing (cache hits, in-flight coalescing) and the misses
        coalesce into batched kernel calls.  The response's ``results``
        array is aligned with the request order.
        """

        def decode_and_validate() -> list[dict]:
            body = request.json()
            entries = body.get("requests")
            if not isinstance(entries, list) or not entries:
                raise ValueError(
                    "request needs a non-empty 'requests' array of "
                    "analyze documents"
                )
            if len(entries) > 256:
                raise ValueError(
                    f"at most 256 requests per batch, got {len(entries)}"
                )
            params_list = []
            for index, entry in enumerate(entries):
                if not isinstance(entry, dict):
                    raise ValueError(f"requests[{index}] must be an object")
                try:
                    params_list.append(jobs.analyze_params(entry))
                except ValueError as exc:
                    raise ValueError(f"requests[{index}]: {exc}") from None
            return params_list

        try:
            params_list = await asyncio.get_running_loop().run_in_executor(
                None, decode_and_validate
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        outcomes = await asyncio.gather(
            *[
                self._run_job("serve_analyze", params, prefer_batch=True)
                for params in params_list
            ],
            return_exceptions=True,
        )
        results = []
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
            job_id, body, source = outcome
            results.append({
                "job": job_id,
                "cached": source != "computed",
                "source": source,
                **body,
            })
        return 200, {"count": len(results), "results": results}

    # ------------------------------------------------------------------
    # campaigns

    async def _campaign_submit(self, request: HttpRequest) -> tuple[int, dict]:
        def decode_and_address() -> tuple[CampaignSpec, str]:
            # Spec parse + canonical-JSON sha256 are proportional to the
            # document size — thread work, like every other parse here.
            spec = CampaignSpec.from_dict(request.json())
            # Expansion is deterministic and cheap relative to running;
            # doing it here turns unknown kinds and bad params into a
            # 400 at submit time instead of an asynchronous "failed".
            registry.get_kind(spec.kind).plan(spec)
            return spec, campaign_id(spec)

        try:
            spec, cid = await asyncio.get_running_loop().run_in_executor(
                None, decode_and_address
            )
        except ValueError as exc:
            raise HttpError(400, str(exc)) from None
        status = self.campaigns.get(cid)
        if status is None or status.state == "failed":
            # Unknown campaign, or a failed one being resubmitted:
            # start a fresh attempt (mirrors the single-job semantics —
            # failures cache nothing, the next identical request
            # retries).  Running/done campaigns coalesce.
            active = sum(
                1 for s in self.campaigns.values()
                if s.state in ("pending", "running")
            )
            if active >= self.config.max_active_campaigns:
                raise HttpError(
                    429,
                    f"{active} campaigns already active (limit "
                    f"{self.config.max_active_campaigns}); retry later",
                )
            status = CampaignStatus(cid, spec)
            self.campaigns[cid] = status
            task = asyncio.get_running_loop().create_task(
                self._campaign_task(status)
            )
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        return 202, status.to_jsonable(include_result=False)

    async def _campaign_task(self, status: CampaignStatus) -> None:
        """Background driver of one campaign (never raises)."""
        status.state = "running"

        def record_progress(event: ProgressEvent) -> None:
            # Called from the campaign's worker thread; a single
            # attribute assignment is atomic, and readers only ever see
            # a complete (frozen) event.
            status.progress = event

        store = None
        if self.config.run_dir is not None:
            store = (
                Path(self.config.run_dir) / "campaigns" / status.id[:16]
            )
        try:
            run = None
            for attempt in (1, 2):
                try:
                    run = await self._run_campaign_on_thread(
                        status, store, record_progress
                    )
                    break
                except BrokenExecutor as exc:
                    self.campaign_pool_restarts += 1
                    if attempt == 2:
                        raise
                    # The shared pool broke beyond its self-healing
                    # budget under this campaign.  Surface the distinct
                    # transient status and auto-resubmit once: with a
                    # run_dir the resumable store replays every
                    # completed job, so only the tail re-runs.
                    status.error = f"{type(exc).__name__}: {exc}"
                    status.state = "failed: worker pool broken (restarted)"
            kind = registry.get_kind(status.spec.kind)
            data = (
                kind.to_jsonable(status.spec, run.result)
                if kind.to_jsonable is not None and run.result is not None
                else None
            )
            status.render = run.render()
            status.data = None if data is None else jsonable(data)
            status.stats = run.stats
            status.partial = run.partial
            status.quarantine = [
                {"job": item.job_id, "label": item.label, **item.error}
                for item in run.quarantine
            ]
            status.error = None
            status.state = "done"
        except Exception as exc:  # failed campaigns park, server lives on
            status.error = f"{type(exc).__name__}: {exc}"
            status.state = "failed"
        finally:
            self._prune_campaigns()

    async def _run_campaign_on_thread(
        self, status: CampaignStatus, store, progress
    ):
        """Run one campaign on a dedicated daemon thread.

        Not ``asyncio.to_thread``: a campaign can run for hours and is
        uncancellable mid-flight, and ``asyncio.run`` waits for the
        default executor's threads on shutdown — a Ctrl-C would hang
        until the campaign finished.  A daemon thread lets the process
        exit; the content-addressed store makes the interrupted run
        resumable on restart.
        """
        loop = asyncio.get_running_loop()
        finished = asyncio.Event()
        outcome: dict[str, Any] = {}

        def work() -> None:
            try:
                outcome["run"] = run_campaign(
                    status.spec,
                    store=store,
                    workers=max(1, self.config.workers),
                    progress=progress,
                    pool=self.pool,
                )
            except BaseException as exc:
                outcome["error"] = exc
            finally:
                with contextlib.suppress(RuntimeError):
                    # RuntimeError: the loop already closed (shutdown).
                    loop.call_soon_threadsafe(finished.set)

        threading.Thread(
            target=work, daemon=True, name=f"campaign-{status.id[:8]}"
        ).start()
        await finished.wait()
        error = outcome.get("error")
        if error is not None:
            raise error
        return outcome["run"]

    def _prune_campaigns(self) -> None:
        """Evict the oldest finished campaigns beyond the history bound.

        Bounds server memory the same way the query LRU does: a status
        holds the whole rendered report and structured result.  Evicted
        ids answer 404; with ``run_dir`` their jobs remain in the store,
        so resubmitting the spec replays rather than recomputes.
        """
        finished = [
            cid for cid, status in self.campaigns.items()
            if status.state in ("done", "failed")
        ]
        for cid in finished[: max(0, len(finished)
                                  - self.config.campaign_history)]:
            del self.campaigns[cid]

    def _campaign_list(self) -> dict:
        """``GET /campaign``: submission-ordered status summaries."""
        return {
            "campaigns": [
                status.to_jsonable(include_result=False)
                for status in self.campaigns.values()
            ]
        }

    def _campaign_status(self, cid: str) -> dict:
        status = self.campaigns.get(cid)
        if status is None:
            raise HttpError(404, f"unknown campaign id {cid!r}")
        return status.to_jsonable()

    # ------------------------------------------------------------------
    # lifecycle

    async def aclose(self) -> None:
        """Stop background campaign tasks and release the worker pool."""
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.pool is not None:
            self.pool.shutdown(wait=False, cancel_futures=True)
        closer = getattr(self.cache.store, "close", None)
        if callable(closer):
            closer()  # RemoteStore: drop the shard connections

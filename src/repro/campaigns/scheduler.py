"""The shared scheduler: one process pool for every campaign's jobs.

The scheduler is where all six experiments' hand-rolled worker pools
collapsed into one code path.  It takes the deterministic job list a
spec expands to, drops every job whose content address is already in
the result store (resume), deduplicates identical jobs within the run
(two x-axis points with the same parameters share one computation), and
fans the remainder out over a single worker pool — emitting one
:class:`~repro.campaigns.progress.ProgressEvent` per completion.

Jobs ship in same-kind **blocks** — one pickle each way per block
instead of per job — and kinds with a registered block executor
(:func:`repro.campaigns.registry.block_executor`) batch each block's
scenarios through the columnar kernel in the worker; serial runs use
cap-sized blocks for maximal batching.  Worker processes resolve
executors through the registry and reuse process-local platforms via
:func:`worker_platform`: one topology — and with it one memoized route
table — per (mesh, routing) for the lifetime of the worker, whatever
mix of campaigns flows through the pool.

Determinism: results are keyed by content address and aggregation folds
them in job-list order, so worker counts, chunk completion order and
cold-vs-resumed runs all produce identical campaign results.

**Fault tolerance** (see DESIGN.md "Fault tolerance"): a
:class:`FaultPolicy` bounds how hard the scheduler fights for each job.
Failed multi-job blocks re-run as singletons to isolate the culprit;
failed singletons retry with exponential backoff up to
``policy.retries`` times, then **quarantine** — a structured
``repro-error/1`` document (:func:`repro.campaigns.store.error_result`)
is stored in the job's slot and the campaign continues without it.
When the scheduler owns its pool it also *self-heals*: the pool is a
:class:`~repro.campaigns.pool.ResilientPool` without resubmits, which
rebuilds itself when a worker dies (OOM kill, crash) and fails the
futures the break took down with ``BrokenExecutor``.  The scheduler
waits until every future still in flight has settled, then resubmits
the lost blocks — safe because jobs are content-addressed and
deterministic, so a resubmitted job writes the byte-identical result
line it would have written the first time.  Because one dead worker
fails *every* future of its pool, the culprit is ambiguous whenever
several blocks were lost; those blocks drain through a serial **probe**
queue (one block in flight at a time) where the next break
unambiguously convicts the block it killed.  Per-block wall-clock
timeouts (``policy.job_timeout_s``, owned pools only) kill the workers
to reclaim a hung block; the resulting pool break is recognised as
self-inflicted and the innocent blocks resubmit straight back to the
parallel queue.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Executor, wait
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.campaigns import registry
from repro.campaigns.pool import ResilientPool
from repro.campaigns.progress import Progress, ProgressEvent
from repro.core import backend as backend_module
from repro.campaigns.store import MemoryStore, error_result, is_error_result
from repro.noc.platform import NoCPlatform
from repro.noc.routing import RoutingFunction, XYRouting, YXRouting
from repro.noc.topology import Mesh2D

#: Process-local platform cache (see module docstring).  Keyed by
#: (cols, rows, buf, routing name); workers keep one platform per key —
#: and one shared topology per mesh, so buffer-depth variants of the
#: same mesh reuse a single memoized route table.
_WORKER_PLATFORMS: dict[tuple, NoCPlatform] = {}
_WORKER_MESHES: dict[tuple[int, int], Mesh2D] = {}

_ROUTING_TYPES: dict[str, type[RoutingFunction]] = {
    "xy": XYRouting,
    "yx": YXRouting,
}
#: One routing-function instance per name — route tables live on the
#: instance (keyed weakly by topology), so sharing it is what lets
#: buffer variants share routes.
_WORKER_ROUTINGS: dict[str, RoutingFunction] = {}


def worker_platform(
    cols: int, rows: int, buf: int, routing: str = "xy"
) -> NoCPlatform:
    """A process-local, route-cache-sharing mesh platform."""
    key = (cols, rows, buf, routing)
    platform = _WORKER_PLATFORMS.get(key)
    if platform is None:
        mesh = _WORKER_MESHES.get((cols, rows))
        if mesh is None:
            mesh = _WORKER_MESHES.setdefault((cols, rows), Mesh2D(cols, rows))
        router = _WORKER_ROUTINGS.get(routing)
        if router is None:
            router = _WORKER_ROUTINGS.setdefault(
                routing, _ROUTING_TYPES[routing]()
            )
        platform = NoCPlatform(mesh, buf=buf, routing=router)
        _WORKER_PLATFORMS[key] = platform
    return platform


#: Jobs shipped per block at most: bounds both the batch kernel's array
#: footprint inside a worker and the progress-report granularity.
_BLOCK_JOB_CAP = 24


def _pool_execute_block(
    payload: tuple[str, str | None, list[tuple[str, dict]]]
) -> list[tuple[str, Any]]:
    """Worker entry point: run one same-kind block of jobs.

    One pickle each way per *block* instead of per job; kinds with a
    registered block executor additionally batch the block's scenarios
    through the columnar kernel.  Results come back keyed by content
    address, so completion order never matters.  The coordinator's
    compute-backend choice rides along with every block: environment
    inheritance covers fork-started pools, the explicit name covers
    spawn and any pool living longer than a ``set_backend`` call.
    """
    kind, backend_name, items = payload
    backend_module.apply_worker_backend(backend_name)
    results = registry.execute_block(kind, [params for _, params in items])
    return [(job_id, result) for (job_id, _), result in zip(items, results)]


def _plan_blocks(todo: Mapping[str, Any], workers: int) -> list[tuple[str, list]]:
    """Group the todo jobs into same-kind blocks (insertion order kept).

    Kinds with a block executor get multi-job blocks sized for roughly
    four blocks per worker (capped at :data:`_BLOCK_JOB_CAP`; serial
    callers pass ``workers=0`` for cap-sized blocks); other kinds ship
    one job per block, preserving their old fan-out shape.
    """
    by_kind: dict[str, list] = {}
    for job_id, job in todo.items():
        by_kind.setdefault(job.kind, []).append((job_id, job))
    blocks: list[tuple[str, list]] = []
    for kind, items in by_kind.items():
        if registry.has_block_executor(kind):
            if workers < 1:
                size = _BLOCK_JOB_CAP
            else:
                size = min(
                    _BLOCK_JOB_CAP,
                    max(1, -(-len(items) // (workers * 4))),
                )
        else:
            size = 1
        for start in range(0, len(items), size):
            blocks.append((kind, items[start:start + size]))
    return blocks


@dataclass(frozen=True)
class FaultPolicy:
    """How hard the scheduler fights for each job before giving up.

    ``retries`` bounds *re*-executions per job (``retries=2`` means a
    job runs at most 3 times before quarantine); ``job_timeout_s``
    (owned pools only) is the per-block wall-clock budget after which
    the workers are killed and the block handled as timed out;
    ``backoff_s``/``backoff_max_s`` shape the exponential retry delay.
    """

    retries: int = 2
    job_timeout_s: float | None = None
    backoff_s: float = 0.05
    backoff_max_s: float = 2.0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ValueError(
                f"job_timeout_s must be positive, got {self.job_timeout_s}"
            )
        if self.backoff_s < 0 or self.backoff_max_s < 0:
            raise ValueError(
                f"backoff must be >= 0, got {self.backoff_s}/"
                f"{self.backoff_max_s}"
            )

    def backoff(self, attempt: int) -> float:
        """Delay before retry number ``attempt`` (1-based)."""
        return min(
            self.backoff_s * (2 ** max(0, attempt - 1)), self.backoff_max_s
        )

    def rebuild_cap(self, jobs: int) -> int:
        """Pool-rebuild bound for a run of ``jobs`` jobs.

        Generous enough for every job to break the pool on each of its
        attempts, finite so a systemically broken host still terminates.
        """
        return 8 + (self.retries + 1) * max(1, jobs)


@dataclass
class _Block:
    """One in-flight unit of work plus its fault-handling state."""

    kind: str
    items: list  # [(job_id, Job), ...]
    attempts: int = 0  # failed executions so far (singletons only)
    deadline: float | None = None  # monotonic; None = no timeout
    timed_out: bool = False  # we killed the workers to reclaim it
    serial: bool = False  # must run through the probe queue


@dataclass(frozen=True)
class RunStats:
    """Accounting of one scheduler pass over a campaign's job list."""

    jobs_total: int
    jobs_skipped: int
    jobs_run: int
    elapsed_s: float
    jobs_quarantined: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0

    @property
    def resumed(self) -> bool:
        """True when at least one job was replayed from the store."""
        return self.jobs_skipped > 0

    @property
    def degraded(self) -> bool:
        """True when at least one job was quarantined (partial run)."""
        return self.jobs_quarantined > 0


class Scheduler:
    """Expand-once, run-anywhere job scheduler over one shared pool.

    ``pool`` optionally injects an externally-owned
    :class:`concurrent.futures.Executor` (the serving layer shares one
    process pool between single-request jobs and whole campaigns); the
    scheduler then fans out on it without ever shutting it down or
    killing its workers, so ``job_timeout_s`` only applies to owned
    pools, and a pool break is re-raised to the pool's owner.  When
    ``pool`` is ``None``, a private
    :class:`~repro.campaigns.pool.ResilientPool` is created per run for
    ``workers > 1``.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        progress: Progress | None = None,
        pool: Executor | None = None,
        faults: FaultPolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.progress = progress
        self.pool = pool
        self.faults = faults if faults is not None else FaultPolicy()

    def run(
        self, jobs: Sequence, store: MemoryStore
    ) -> tuple[dict[str, Any], RunStats]:
        """Execute every job not already stored; return results + stats.

        The returned mapping covers each distinct job id exactly once,
        whether its result was computed now or replayed from the store.
        Quarantined jobs appear as ``repro-error/1`` documents — stored
        error documents from previous runs do **not** count as done and
        are re-attempted.
        """
        start = time.perf_counter()
        stored = {
            job_id: result
            for job_id, result in store.load().items()
            if not is_error_result(result)
        }
        needed: dict[str, Any] = {}  # job_id -> Job, insertion-ordered
        for job in jobs:
            needed.setdefault(job.job_id, job)
        todo = {
            job_id: job
            for job_id, job in needed.items()
            if job_id not in stored
        }
        skipped = len(needed) - len(todo)
        results = {
            job_id: stored[job_id] for job_id in needed if job_id in stored
        }
        done = 0
        counters = {
            "quarantined": 0, "retries": 0, "timeouts": 0, "rebuilds": 0
        }

        def emit(label: str) -> None:
            if self.progress is None:
                return
            elapsed = time.perf_counter() - start
            eta = None
            if 0 < done and todo:
                eta = elapsed / done * (len(todo) - done)
            self.progress(
                ProgressEvent(
                    done=done,
                    total=len(needed),
                    skipped=skipped,
                    label=label,
                    elapsed_s=elapsed,
                    eta_s=eta,
                )
            )

        if skipped:
            emit(f"resumed: {skipped} stored jobs skipped")

        def absorb(job_id: str, result: Any) -> None:
            nonlocal done
            done += 1
            results[job_id] = store.put(job_id, result)

        def quarantine(job_id: str, job, error: str, reason: str,
                       attempts: int) -> None:
            counters["quarantined"] += 1
            results[job_id] = store.put(
                job_id, error_result(job.kind, error, attempts, reason)
            )
            emit(f"quarantined ({reason}): {job.label or job_id[:12]}")

        # An injected pool is used even for a single job (the serving
        # layer must keep heavy work out of its own process); an owned
        # pool is only worth spawning when there is real fan-out.
        if todo and (
            self.pool is not None or (self.workers > 1 and len(todo) > 1)
        ):
            self._run_pooled(todo, absorb, emit, quarantine, counters)
        elif todo:
            self._run_serial(todo, absorb, emit, quarantine, counters)

        stats = RunStats(
            jobs_total=len(needed),
            jobs_skipped=skipped,
            jobs_run=done,
            elapsed_s=time.perf_counter() - start,
            jobs_quarantined=counters["quarantined"],
            retries=counters["retries"],
            timeouts=counters["timeouts"],
            pool_rebuilds=counters["rebuilds"],
        )
        return results, stats

    def _run_serial(self, todo, absorb, emit, quarantine, counters) -> None:
        """In-process execution with per-job retry and quarantine.

        Serial runs batch maximally: every same-kind block goes through
        ``execute_block`` so the columnar kernel sees the largest
        scenario blocks the cap allows; a failing block falls back to
        per-job execution to isolate and retry the culprit alone.
        """
        policy = self.faults

        def run_one(job_id: str, job) -> None:
            attempts = 0
            while True:
                try:
                    result = registry.execute_job(job.kind, job.params)
                except Exception as exc:  # noqa: BLE001 - quarantine boundary
                    attempts += 1
                    if attempts > policy.retries:
                        quarantine(job_id, job, repr(exc), "error", attempts)
                        return
                    counters["retries"] += 1
                    time.sleep(policy.backoff(attempts))
                    continue
                absorb(job_id, result)
                emit(job.label)
                return

        for kind, items in _plan_blocks(todo, workers=0):
            if len(items) == 1:
                run_one(*items[0])
                continue
            try:
                block_results = registry.execute_block(
                    kind, [job.params for _, job in items]
                )
            except Exception:  # noqa: BLE001 - isolate the culprit per job
                for job_id, job in items:
                    run_one(job_id, job)
                continue
            for (job_id, job), result in zip(items, block_results):
                absorb(job_id, result)
                emit(job.label)

    def _run_pooled(self, todo, absorb, emit, quarantine, counters) -> None:
        """The fault-tolerant supervisor loop over a process pool.

        Keeps a bounded submission window in flight; failed blocks
        split/retry/quarantine per :class:`FaultPolicy`; an owned pool
        heals itself, and the loop blames and resubmits what each break
        took down and enforces per-block timeouts by killing the
        workers (see module docstring for the probe-queue
        convict/exonerate protocol).
        """
        policy = self.faults
        owns_pool = self.pool is None
        pool: Executor = (
            ResilientPool(self.workers, max_resubmits=0, cooldown_s=0.0)
            if owns_pool
            else self.pool
        )
        # Timeouts require killing workers; never on a shared pool.
        enforce_timeouts = owns_pool and policy.job_timeout_s is not None
        rebuild_cap = policy.rebuild_cap(len(todo))

        ready: deque[_Block] = deque(
            _Block(kind, items)
            for kind, items in _plan_blocks(todo, self.workers)
        )
        probes: deque[_Block] = deque()
        retry_heap: list[tuple[float, int, _Block]] = []
        seq = itertools.count()
        inflight: dict[Any, _Block] = {}
        # Blocks a pool break took down; nothing new is submitted until
        # the rest of the window has settled too.
        broken: list[_Block] = []
        window = max(2, self.workers * 2)

        def submit(block: _Block) -> None:
            if enforce_timeouts:
                block.deadline = time.monotonic() + policy.job_timeout_s
            future = pool.submit(
                _pool_execute_block,
                (block.kind, backend_module.get_backend().name,
                 [(jid, job.params) for jid, job in block.items]),
            )
            inflight[future] = block

        def schedule_retry(block: _Block, *, serial: bool) -> None:
            counters["retries"] += 1
            block.serial = serial
            release = time.monotonic() + policy.backoff(block.attempts)
            heapq.heappush(retry_heap, (release, next(seq), block))

        def split(block: _Block, *, serial: bool) -> None:
            for item in block.items:
                child = _Block(block.kind, [item], serial=serial)
                (probes if serial else ready).append(child)

        def fail_error(block: _Block, exc: BaseException) -> None:
            """An executor raised: split multi blocks, retry singletons."""
            if len(block.items) > 1:
                split(block, serial=False)
                return
            job_id, job = block.items[0]
            block.attempts += 1
            if block.attempts > policy.retries:
                quarantine(job_id, job, repr(exc), "error", block.attempts)
            else:
                schedule_retry(block, serial=False)

        def fail_crash(block: _Block) -> None:
            """A solo in-flight block broke the pool: proven culprit."""
            if len(block.items) > 1:
                split(block, serial=True)
                return
            job_id, job = block.items[0]
            block.attempts += 1
            if block.attempts > policy.retries:
                quarantine(
                    job_id, job,
                    "worker process died executing this job "
                    "(crash or out-of-memory kill)",
                    "crash", block.attempts,
                )
            else:
                schedule_retry(block, serial=True)

        def fail_timeout(block: _Block) -> None:
            """The block outlived ``job_timeout_s`` and was killed."""
            counters["timeouts"] += 1
            block.timed_out = False
            if len(block.items) > 1:
                split(block, serial=False)
                return
            job_id, job = block.items[0]
            block.attempts += 1
            if block.attempts > policy.retries:
                quarantine(
                    job_id, job,
                    f"timed out after {policy.job_timeout_s}s "
                    f"({block.attempts} attempts)",
                    "timeout", block.attempts,
                )
            else:
                schedule_retry(block, serial=False)

        def handle_break(lost: list[_Block]) -> None:
            """Blame and reroute every block one pool break took down."""
            counters["rebuilds"] += 1
            if counters["rebuilds"] > rebuild_cap:
                raise RuntimeError(
                    f"worker pool broke {counters['rebuilds']} times; "
                    "giving up"
                )
            timed = [b for b in lost if b.timed_out]
            fresh = [b for b in lost if not b.timed_out]
            for block in timed:
                fail_timeout(block)
            if timed:
                # Self-inflicted break: the bystanders are innocent,
                # straight back to the parallel queue.
                ready.extend(fresh)
            elif len(fresh) == 1:
                fail_crash(fresh[0])
            else:
                # Ambiguous culprit: drain the suspects serially; the
                # next break convicts exactly the block it killed.
                for block in fresh:
                    block.serial = True
                    probes.append(block)

        try:
            while ready or probes or retry_heap or inflight:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, _, block = heapq.heappop(retry_heap)
                    (probes if block.serial else ready).append(block)
                if broken:
                    pass  # a break is settling: submit nothing new
                elif probes:
                    # Probe mode: exactly one suspect in flight at a
                    # time, and only once the parallel wave drained.
                    if not inflight:
                        submit(probes.popleft())
                else:
                    while ready and len(inflight) < window:
                        submit(ready.popleft())
                if not inflight:
                    if retry_heap:
                        time.sleep(
                            max(0.0, retry_heap[0][0] - time.monotonic())
                        )
                    continue
                timeout = None
                waits = []
                if enforce_timeouts:
                    deadlines = [
                        b.deadline for b in inflight.values()
                        if b.deadline is not None
                    ]
                    if deadlines:
                        waits.append(min(deadlines) - now)
                if retry_heap:
                    waits.append(retry_heap[0][0] - now)
                if waits:
                    timeout = max(0.0, min(waits))
                completed, _ = wait(
                    list(inflight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not completed:
                    if enforce_timeouts:
                        now = time.monotonic()
                        expired = [
                            b for b in inflight.values()
                            if b.deadline is not None and b.deadline <= now
                        ]
                        if expired:
                            for block in expired:
                                block.timed_out = True
                            # The only way to reclaim a hung worker is
                            # to kill it; the pool break that follows
                            # is recognised as self-inflicted.
                            pool.kill_workers()
                    continue
                broken_exc: BaseException | None = None
                for future in completed:
                    block = inflight.pop(future)
                    try:
                        block_results = future.result()
                    except BrokenExecutor as exc:
                        broken_exc = exc
                        broken.append(block)
                        continue
                    except Exception as exc:  # noqa: BLE001 - fault boundary
                        fail_error(block, exc)
                        continue
                    labels = {jid: job.label for jid, job in block.items}
                    for job_id, result in block_results:
                        absorb(job_id, result)
                        emit(labels[job_id])
                if broken_exc is not None and not owns_pool:
                    # Shared pools are healed by their owner (the
                    # serving tier); surface the break to it.
                    raise broken_exc
                if broken and not inflight:
                    # Everything the break took down is back; blocks
                    # submitted to the rebuilt pool meanwhile finished
                    # normally and are not suspects.
                    handle_break(broken)
                    broken.clear()
        finally:
            if owns_pool:
                pool.shutdown()

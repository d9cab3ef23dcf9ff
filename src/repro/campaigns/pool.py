"""A supervised process pool that survives its workers.

This is the one place worker processes are created, killed and rebuilt.
A plain ``ProcessPoolExecutor`` goes permanently broken when a single
worker dies (an OOM-killed numpy worker, a segfault): every future ever
submitted to it — including queued work that was never near the dead
worker — fails with ``BrokenProcessPool``.

:class:`ResilientPool` wraps the executor with a supervisor:

* callers get an *outer* future that is relayed from the inner pool
  future, so queued work is never lost to a break — on
  ``BrokenProcessPool`` the pool is rebuilt and the work resubmitted
  (bounded by ``max_resubmits`` per future; jobs are content-addressed
  and deterministic, so re-running one is always safe);
* rebuilds are serialised and generation-counted — a stampede of
  broken futures triggers exactly one rebuild;
* :attr:`rebuilding` exposes a short post-rebuild cooldown window the
  service uses for 503/Retry-After backpressure while fresh workers
  warm up.

Two owners use it.  ``repro serve`` shares one pool (three resubmits,
a cooldown) between every request and every submitted campaign.  The
campaign :class:`~repro.campaigns.scheduler.Scheduler` runs each owned
pool with ``max_resubmits=0``: the pool only rebuilds itself and hands
every break straight back, because the scheduler decides which block
to blame.  The wrapper *is* a :class:`concurrent.futures.Executor`, so
it also drops into ``loop.run_in_executor`` unchanged.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
)


def _finish(future: Future, value=None, error: BaseException | None = None):
    """Resolve an outer future, tolerating cancellation races."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(value)
    except InvalidStateError:
        pass  # caller cancelled/abandoned the outer future meanwhile


class ResilientPool(Executor):
    """Self-healing ``ProcessPoolExecutor`` with resubmit-on-break."""

    def __init__(
        self,
        workers: int,
        *,
        max_resubmits: int = 3,
        cooldown_s: float = 0.5,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._max_resubmits = max_resubmits
        self._cooldown_s = cooldown_s
        self._lock = threading.Lock()
        self._pool = ProcessPoolExecutor(max_workers=workers)
        self._generation = 0
        self._rebuilding_until = 0.0
        self._closed = False
        #: Counters surfaced by ``GET /stats`` ("resilience" block).
        self.rebuilds = 0
        self.resubmits = 0

    # ------------------------------------------------------------------
    # Executor interface

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Submit work; the returned future survives pool breakage."""
        with self._lock:
            if self._closed:
                # Plain-Executor semantics at the submission boundary;
                # internal *re*submissions racing a shutdown resolve
                # their outer future instead (see _dispatch).
                raise RuntimeError(
                    "cannot submit to a shut-down ResilientPool"
                )
        outer: Future = Future()
        self._dispatch(outer, fn, args, kwargs, resubmits=0)
        return outer

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False):
        with self._lock:
            self._closed = True
            pool = self._pool
        pool.shutdown(wait=wait, cancel_futures=cancel_futures)

    # ------------------------------------------------------------------
    # supervision

    @property
    def rebuilding(self) -> bool:
        """True during the post-rebuild cooldown (backpressure window)."""
        return time.monotonic() < self._rebuilding_until

    @property
    def rebuilding_for(self) -> float:
        """Seconds of cooldown remaining (0 when healthy)."""
        return max(0.0, self._rebuilding_until - time.monotonic())

    def kill_workers(self) -> None:
        """SIGKILL the current workers (fault injection / reclamation)."""
        with self._lock:
            pool = self._pool
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.kill()

    def _dispatch(self, outer, fn, args, kwargs, resubmits: int) -> None:
        with self._lock:
            if self._closed:
                _finish(outer, error=RuntimeError(
                    "cannot submit to a shut-down ResilientPool"
                ))
                return
            pool = self._pool
            generation = self._generation
        try:
            inner = pool.submit(fn, *args, **kwargs)
        except BrokenExecutor as exc:
            self._on_broken(outer, fn, args, kwargs, resubmits,
                            generation, exc)
            return
        except RuntimeError as exc:  # shutdown race on the inner pool
            _finish(outer, error=exc)
            return
        inner.add_done_callback(
            lambda f: self._relay(f, outer, fn, args, kwargs,
                                  resubmits, generation)
        )

    def _relay(self, inner, outer, fn, args, kwargs, resubmits,
               generation) -> None:
        if outer.done():
            # Outer was cancelled; drop the inner outcome (retrieving
            # the exception below keeps the futures machinery quiet).
            inner.exception()
            return
        error = inner.exception()
        if isinstance(error, BrokenExecutor):
            self._on_broken(outer, fn, args, kwargs, resubmits,
                            generation, error)
        elif error is not None:
            _finish(outer, error=error)
        else:
            _finish(outer, inner.result())

    def _on_broken(self, outer, fn, args, kwargs, resubmits,
                   generation, exc) -> None:
        self._heal(generation)
        if resubmits >= self._max_resubmits:
            _finish(outer, error=exc)
            return
        self.resubmits += 1
        self._dispatch(outer, fn, args, kwargs, resubmits + 1)

    def _heal(self, generation: int) -> None:
        """Replace the broken inner pool (once per generation)."""
        with self._lock:
            if self._closed or generation != self._generation:
                return  # someone else already rebuilt (or we're closing)
            broken = self._pool
            self._generation += 1
            self.rebuilds += 1
            self._rebuilding_until = time.monotonic() + self._cooldown_s
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        broken.shutdown(wait=False)

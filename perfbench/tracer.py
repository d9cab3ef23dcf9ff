"""Span and counter recording installed into one program process.

The benchmark never edits the program: a :class:`Tracer` replaces a
public function (or a method on its class) with a wrapper that counts
its calls and, when spans are on, records one span per call: name,
start, end, span id and parent span id.  The parent comes from a
context variable, so nested calls on one thread link up.

Counting alone is cheap enough to stay on in untraced runs, where the
exact-repeat counts need it; spans are only recorded in the traced
run.  Spans are kept in memory.  Pool workers exit without
running ``atexit``, so :meth:`Tracer.flush_per_block` makes each worker
append what it recorded after every block it executes.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: span name -> ((module, attribute), ...) of the public functions wrapped.
SPAN_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "campaigns.registry.execute": (
        ("repro.campaigns.registry", "execute_job"),
        ("repro.campaigns.registry", "execute_block"),
    ),
    "core.interference.build": (
        ("repro.core.interference", "InterferenceGraph.__init__"),
    ),
    "core.engine.analyze": (("repro.core.engine", "analyze"),),
    "core.batch.analyze_batch": (("repro.core.batch", "analyze_batch"),),
    "workloads.synthetic.synthetic_flows": (
        ("repro.workloads.synthetic", "synthetic_flows"),
    ),
    "campaigns.store.put": (("repro.campaigns.store", "ResultStore.put"),),
    "sim.simulator.run": (("repro.sim.simulator", "WormholeSimulator.run"),),
    "sim.worstcase.enumerate_phasings": (
        ("repro.sim.worstcase", "enumerate_phasings"),
    ),
    "campaigns.engine.run_campaign": (
        ("repro.campaigns.engine", "run_campaign"),
    ),
}


def _batch_scenarios(args: tuple, result: Any) -> dict[str, int]:
    return {"core.batch.scenarios": len(args[0])}


def _sim_cycles(args: tuple, result: Any) -> dict[str, int]:
    return {"sim.simulator.cycles": int(result.end_time)}


#: Extra counts taken from a call's arguments or result.
EXTRA_COUNTS: dict[str, Callable[[tuple, Any], dict[str, int]]] = {
    "core.batch.analyze_batch": _batch_scenarios,
    "sim.simulator.run": _sim_cycles,
}

#: Spans that also record the process CPU time they used (BLAS threads).
CPU_SPANS = frozenset({"core.interference.build"})


class Tracer:
    """Counts (always) and spans (when ``spans``) of one process."""

    def __init__(self, *, spans: bool) -> None:
        self.record_spans = spans
        self._parent: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=0
        )
        self._reset()
        # A forked pool worker starts with the coordinator's buffers;
        # it must only report what it records itself.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self.pid = os.getpid()
        self._ids = itertools.count(1)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A wrapper of ``fn`` counting (and maybe timing) each call."""
        extra = EXTRA_COUNTS.get(name)
        cpu = name in CPU_SPANS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name)
            if tracer.record_spans:
                parent = tracer._parent.get()
                sid = tracer.pid * 1_000_000_000 + next(tracer._ids)
                token = tracer._parent.set(sid)
                cpu_start = time.process_time_ns() if cpu else 0
                start = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter_ns()
                    if cpu:
                        tracer.add(f"{name}.cpu_ns",
                                   time.process_time_ns() - cpu_start)
                    tracer._parent.reset(token)
                    tracer.spans.append((name, start, end, sid, parent))
            else:
                result = fn(*args, **kwargs)
            if extra is not None:
                for key, amount in extra(args, result).items():
                    tracer.add(key, amount)
            return result

        return wrapper

    def install(self, names) -> None:
        """Wrap every target of each span name in ``names``."""
        for name in names:
            for module_name, attr in SPAN_TARGETS[name]:
                _patch(module_name, attr, lambda fn, n=name: self.wrap(fn, n))

    def flush_per_block(self, directory: Path) -> None:
        """Make pool workers append their records after every block."""
        scheduler = importlib.import_module("repro.campaigns.scheduler")
        original = scheduler._pool_execute_block
        tracer = self

        def _pool_execute_block(payload):
            try:
                return original(payload)
            finally:
                tracer.append_to(directory / f"worker-{os.getpid()}.jsonl")

        # Pickled by reference: the pool resolves the same module name.
        _pool_execute_block.__module__ = original.__module__
        _pool_execute_block.__qualname__ = original.__qualname__
        scheduler._pool_execute_block = _pool_execute_block

    def snapshot(self) -> dict:
        with self._lock:
            counts = dict(self.counts)
        return {"pid": self.pid, "spans": list(self.spans), "counts": counts}

    def append_to(self, path: Path) -> None:
        """Append this process's records as one JSON line, then clear."""
        record = self.snapshot()
        with self._lock:
            self.spans = []
            self.counts = {}
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")


def _patch(module_name: str, attr: str, make: Callable) -> None:
    """Replace ``module.attr`` (``Class.method`` too) by ``make(orig)``.

    Module functions are also replaced wherever another loaded
    ``repro`` module imported them by name.
    """
    module = importlib.import_module(module_name)
    owner_name, _, leaf = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    original = vars(owner)[leaf]
    wrapped = make(original)
    setattr(owner, leaf, wrapped)
    if owner is not module:
        return
    for other in list(sys.modules.values()):
        if not getattr(other, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapped)


def read_records(paths) -> list[dict]:
    """Every record line of the given JSONL files, in file order."""
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line.strip())
    return records

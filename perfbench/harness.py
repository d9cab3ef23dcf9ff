"""Shared pieces of the benchmark harness (the process that measures).

Everything here runs in the harness process, never in the program:
set-up probes of fresh program processes, the host-speed probe, the run
context, the per-seed exact-repeat record, and the reduction of
recorded spans into per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK = ROOT / ".perfbench"


def program_env() -> dict[str, str]:
    """The caller's environment plus ``PYTHONPATH=src``, nothing else."""
    env = dict(os.environ)
    parts = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


@dataclass
class Metric:
    """One reported value with its unit and the samples behind it."""

    value: float
    unit: str
    samples: int = 1


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Wrong answers and broken invariants: the run is not correct.
    problems: list[str] = field(default_factory=list)
    #: Operations the program failed (they also count in ``failed``).
    errors: list[str] = field(default_factory=list)
    #: One dict of exact-repeat counts per episode.
    exact: list[dict] = field(default_factory=list)
    #: Traced runs: every span record, and the derived per-layer metrics.
    records: list[dict] = field(default_factory=list)
    derived: dict[str, Metric] = field(default_factory=dict)
    #: Context for the details line (program versions, episode timings).
    details: dict = field(default_factory=dict)


def read_line_within(stream, deadline: float) -> bytes:
    """One line from a pipe, or b"" if the deadline passes first."""
    line = b""
    fd = stream.fileno()
    while not line.endswith(b"\n"):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return b""
        chunk = os.read(fd, 1)
        if not chunk:
            return line
        line += chunk
    return line


def time_to_first_line(argv: list[str]) -> float:
    """Seconds from launching ``argv`` (a program process) until it
    prints its first line on stdout; the process is then run to its end."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    try:
        line = read_line_within(proc.stdout, time.monotonic() + 60)
        elapsed = time.perf_counter() - start
        if not line:
            raise RuntimeError(f"no output from {argv}")
        proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if proc.returncode:
        raise RuntimeError(f"{argv} exited with {proc.returncode}")
    return elapsed


def host_probe() -> float:
    """Milliseconds of a fixed pure-Python loop, median of five.

    Context only: it shows host drift across a run, and is never gated.
    """
    def loop() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        return (time.perf_counter() - start) * 1e3

    return round(statistics.median(loop() for _ in range(5)), 3)


def source_digest() -> str:
    """sha256 over the program's sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    """The checkout's git commit, when it is a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


#: Run in a fresh interpreter like the program's: versions and the
#: thread count OpenBLAS picks by default on this host.
PROGRAM_CONTEXT_CODE = """\
import ctypes, json, platform, numpy
threads = None
with open("/proc/self/maps", encoding="utf-8") as maps:
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
for path in paths:
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None and threads is None:
            fn.restype = ctypes.c_int
            threads = fn()
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "openblas_threads": threads}))
"""


def run_context() -> dict:
    """Facts that explain a run's numbers without being gated."""
    probe = subprocess.run(
        [sys.executable, "-c", PROGRAM_CONTEXT_CODE], env=program_env(),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return {
        "commit": commit(),
        "source_digest": source_digest(),
        **json.loads(probe.stdout),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "env_overrides": {
            key: value for key, value in os.environ.items()
            if key.startswith("REPRO_") or key in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def check_exact(workload: str, seed: int, size: str, exact: list[dict],
                digest: str) -> list[str]:
    """Exact-repeat counts: every episode must match this seed's first run.

    The first run of a (workload, seed, size, program) records its
    counts under ``.perfbench/counts``; later runs compare against it.
    """
    problems = []
    for number, counts in enumerate(exact[1:], start=2):
        if counts != exact[0]:
            problems.append(f"episode {number} counts {counts} != {exact[0]}")
    state = WORK / "counts" / f"{workload}-{seed}-{size}-{digest}.json"
    if state.exists():
        first = json.loads(state.read_text(encoding="utf-8"))
        if exact and exact[0] != first:
            problems.append(f"counts {exact[0]} != first run {first}")
    elif exact and not problems:
        state.parent.mkdir(parents=True, exist_ok=True)
        state.write_text(json.dumps(exact[0], sort_keys=True),
                         encoding="utf-8")
    return problems


# ---------------------------------------------------------------------------
# Per-layer reduction of recorded spans.

def _covered(interval: tuple[int, int], children: list[tuple[int, int]]) -> int:
    """Nanoseconds of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total, cursor = 0, lo
    for start, end in sorted(children):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def span_table(records: list[dict]) -> dict[str, dict]:
    """name -> calls, busy_ns and self_ns.

    Self time is a span's duration minus the part of it that its child
    spans cover (children on other threads included).
    """
    children: dict[int, list[tuple[int, int]]] = {}
    spans = [span for record in records for span in record["spans"]]
    for name, start, end, sid, parent in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    table: dict[str, dict] = {}
    for name, start, end, sid, parent in spans:
        row = table.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        duration = end - start
        row["calls"] += 1
        row["busy_ns"] += duration
        row["self_ns"] += duration - _covered((start, end),
                                              children.get(sid, []))
    return table


def merged_counts(records: list[dict]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for record in records:
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return counts

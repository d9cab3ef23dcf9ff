"""Record the engine hot-path micro-benchmarks into BENCH_engine.json.

Run from the repository root::

    PYTHONPATH=src python benchmarks/record_engine_bench.py [label]

Each invocation appends one entry to ``BENCH_engine.json`` (a JSON list at
the repository root) with wall-clock timings of the three hot paths the
analysis kernel optimisation targets:

* ``graph_build_ms``       — :class:`InterferenceGraph` construction at
  50/200/400 flows on the 4x4 mesh;
* ``analyse_set_ms``       — one full Figure-4 verdict (graph + SB/XLWX/
  IBN2/IBN100) for a 200-flow set;
* ``fig4_ci_s``            — the whole ci-scale Figure 4(a) sweep;
* ``recurrence_ms``        — one SB and one IBN pass over a 200-flow set
  with a pre-built graph (isolates the fixed-point engine);
* ``sim``                  — the fast-lane simulator block: the didactic
  release-offset search and a single 8×8 periodic run, each timed on
  the fast simulator and on the frozen oracle
  (:mod:`repro.sim._reference`), with the resulting speedups.
* ``campaign``             — the campaign engine at smoke scale: jobs/sec
  through the scheduler for the ``examples/specs/campaign_smoke.json``
  spec (cold in-memory run) and the wall clock of a fully-stored resume
  replay (expansion + store load + aggregation, zero jobs executed).
* ``serve``                — the analysis service: ``POST /analyze``
  requests/s against a live server, cold (every request computed) and
  warm (every request answered from the LRU result cache); see
  ``bench_serve.py``.
* ``batch``                — the columnar batch engine: batched vs
  scalar scenarios/s at B ∈ {1, 32, 256} plus the end-to-end sweep
  comparison and the ci-scale Figure 4(a) wall clock; see
  ``bench_batch.py``.
* ``backend``              — the backend seam: the B = 256 batch
  recurrence and the 8×8 simulator run timed under every available
  backend (numpy always; cext when the C extension builds), with
  CPU-time speedups; see ``bench_backend.py``.  On numpy-only hosts
  the block records the numpy times and omits the speedups — the
  regression gate skips absent metrics.
* ``allocate``             — the buffer-allocation optimizer: frontier
  evaluations/s and time-to-certified-optimum over the didactic
  deadline ladder, plus the monotonicity-pruning factor versus the
  exhaustive depth box; see ``bench_allocate.py``.
* ``durability``           — the durable result tier: puts/s per fsync
  policy, primary→backup replication lag and replicated-ack commit
  rate, and the wall clock of a kill-the-primary failover with zero
  acked puts lost; see ``bench_durability.py``.
* ``chaos``                — the fault-injection suite at smoke scale
  (``tools/chaos.py``): scenarios passed and the wall-clock overhead
  the recovery machinery adds to a worker-killed CLI campaign.
* ``cluster``              — the sharded serving cluster: requests/s
  and p50/p99/p999 latency from concurrent keep-alive asyncio clients
  against real supervised front-ends plus a store daemon, as a short
  scaling curve over front-end counts; see ``bench_serve.py``.
* ``code``                 — source size: ``src_lines``, the physical
  line count of ``src/repro/**/*.py`` and ``src/repro/**/*.c`` (lower
  is better: the same behaviour from less code).

The resulting trajectory lets future PRs compare against every past
revision; ``make bench-smoke`` runs this plus the pytest-benchmark
suite, and ``tools/bench_regress.py`` gates ``make smoke`` on the two
latest entries.  To keep the trajectory readable, appending an entry
drops older entries carrying the same (label, revision) pair — only
the latest smoke run per revision survives.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from repro.core.analyses.ibn import IBNAnalysis
from repro.core.analyses.sb import SBAnalysis
from repro.core.engine import analyze
from repro.core.interference import InterferenceGraph
from repro.experiments.scale import get_scale
from repro.experiments.schedulability_sweep import (
    analyse_set,
    fig4_specs,
    schedulability_sweep,
)
from _common import (
    DIDACTIC_GRID,
    DIDACTIC_HORIZON,
    mesh8x8_scenario,
    reference_didactic_search,
    timed,
)
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.sim._reference import ReferenceSimulator
from repro.sim.simulator import WormholeSimulator
from repro.sim.traffic import PeriodicReleases
from repro.sim.worstcase import offset_search
from repro.workloads.didactic import didactic_flowset
from repro.workloads.synthetic import SyntheticConfig, synthetic_flowset

SEED = 20180319
TARGET = Path(__file__).resolve().parent.parent / "BENCH_engine.json"


def _flowset(num_flows: int):
    platform = NoCPlatform(Mesh2D(4, 4), buf=2)
    return synthetic_flowset(
        platform, SyntheticConfig(num_flows=num_flows), seed=SEED
    )


def _time_ms(fn, repeats: int = 7) -> float:
    """Best-of-N process-CPU milliseconds (see :func:`_timed`): these
    are millisecond-scale probes the regression gate
    (tools/bench_regress.py) compares at 20%, so they use CPU time and
    best-of-N to stay immune to scheduler noise on a busy host."""
    fn()  # warm caches (routes, imports) outside the measurement
    best = min(_timed(fn) for _ in range(repeats))
    return round(best * 1000, 2)


def _timed(fn) -> float:
    """Process-CPU seconds of one call.

    The kernel probes below are single-threaded pure compute, so CPU
    time *is* their cost — and unlike wall clock it cannot be inflated
    by whatever else a shared host is running, which matters because
    the regression gate compares these numbers across revisions.
    """
    start = time.process_time()
    fn()
    return time.process_time() - start


def collect() -> dict:
    metrics: dict[str, object] = {}

    builds = {}
    for n in (50, 200, 400):
        fs = _flowset(n)
        builds[str(n)] = _time_ms(lambda: InterferenceGraph(fs))
    metrics["graph_build_ms"] = builds

    fs200 = _flowset(200)
    flows = list(fs200.flows)
    platform = fs200.platform
    metrics["analyse_set_ms"] = _time_ms(
        lambda: analyse_set(flows, platform, fig4_specs())
    )

    graph = InterferenceGraph(fs200)
    metrics["recurrence_ms"] = {
        "SB": _time_ms(lambda: analyze(fs200, SBAnalysis(), graph=graph)),
        "IBN": _time_ms(lambda: analyze(fs200, IBNAnalysis(), graph=graph)),
    }

    scale = get_scale("ci")
    metrics["fig4_ci_s"] = round(
        _timed(
            lambda: schedulability_sweep(
                (4, 4),
                scale.fig4a_flow_counts,
                scale.fig4_sets_per_point,
                seed=scale.seed,
            )
        ),
        3,
    )

    metrics["sim"] = _sim_metrics()
    metrics["campaign"] = _campaign_metrics()
    metrics["serve"] = _serve_metrics()
    metrics["batch"] = _batch_metrics(metrics["fig4_ci_s"])
    metrics["allocate"] = _allocate_metrics()
    metrics["backend"] = _backend_metrics()
    metrics["durability"] = _durability_metrics()
    metrics["chaos"] = _chaos_metrics()
    metrics["cluster"] = _cluster_metrics()
    metrics["code"] = _code_metrics()
    return metrics


def _code_metrics() -> dict:
    """Source size of the package (not a timing: exact and host-free)."""
    root = Path(__file__).resolve().parent.parent / "src" / "repro"
    return {
        "src_lines": sum(
            len(path.read_bytes().splitlines())
            for pattern in ("*.py", "*.c")
            for path in root.rglob(pattern)
        ),
    }


def _durability_metrics() -> dict:
    """Durable-tier costs (see ``bench_durability.py``).

    Shares the measurement code with the benchmark so the recorded
    numbers measure exactly what its zero-loss gates enforce.
    """
    from bench_durability import durability_metrics

    return durability_metrics()


def _cluster_metrics() -> dict:
    """Sharded-cluster throughput at smoke scale (see ``bench_serve.py``).

    Real forked front-ends and a real store daemon, but a small load —
    the recorded numbers track the serving tier's trajectory, while
    ``bench_serve.py``'s CLI exists for full-size (10k-client) runs.
    """
    from bench_serve import cluster_load_metrics

    return cluster_load_metrics(
        frontends=(1, 2), clients=8, requests=400, distinct=8
    )


def _chaos_metrics() -> dict:
    """Fault-injection suite outcome (see ``tools/chaos.py``).

    The in-process scenarios only — the CLI-subprocess and live-server
    ones cost tens of seconds and are ``make chaos-smoke``'s job; the
    recorded block just needs a trackable scenarios-passed floor plus
    the recovery counters.
    """
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    from chaos import chaos_metrics

    block = chaos_metrics(
        ["poison_quarantine", "crash_recovery", "hang_timeout"]
    )
    scenarios = block.pop("scenarios")
    block["recovery_overhead_s"] = scenarios["hang_timeout"]["recovery_s"]
    return block


def _batch_metrics(fig4_ci_s: float) -> dict:
    """Columnar batch engine: batched vs scalar scenario throughput.

    Shares the measurement code with ``bench_batch.py`` so the recorded
    numbers measure exactly what that benchmark's gates enforce; the
    already-measured ci-scale Figure 4(a) time rides along in the
    block instead of being re-run.
    """
    from bench_batch import batch_metrics

    block = batch_metrics()
    block["sweep"]["fig4_ci_s"] = fig4_ci_s
    return block


def _allocate_metrics() -> dict:
    """Allocation-optimizer search throughput (see ``bench_allocate.py``).

    Shares the measurement code with the benchmark so the recorded
    numbers measure exactly what its pruning gates enforce.
    """
    from bench_allocate import allocate_metrics

    return allocate_metrics()


def _backend_metrics() -> dict:
    """Backend seam speedups (see ``bench_backend.py``).

    Shares the measurement code with the benchmark so the recorded
    numbers measure exactly what its ≥3x gates enforce.
    """
    from bench_backend import backend_metrics

    return backend_metrics()


def _serve_metrics() -> dict:
    """Analysis-service throughput: cold vs. warm requests/s.

    Shares the load generator with ``bench_serve.py`` so the recorded
    numbers measure exactly what that benchmark's gates enforce.
    """
    from bench_serve import serve_load_metrics

    return serve_load_metrics()


def _campaign_metrics() -> dict:
    """Campaign-engine throughput on the smoke spec (see Makefile)."""
    import tempfile

    from repro.campaigns.engine import run_campaign
    from repro.campaigns.spec import load_spec

    spec_path = (
        Path(__file__).resolve().parent.parent
        / "examples" / "specs" / "campaign_smoke.json"
    )
    spec = load_spec(spec_path)
    # Best of seven: the smoke spec finishes in tens of milliseconds,
    # where a single scheduler hiccup would swamp the jobs/s metric the
    # regression gate watches.
    cold_s, cold = timed(lambda: run_campaign(spec))
    for _ in range(6):
        again_s, cold = timed(lambda: run_campaign(spec))
        cold_s = min(cold_s, again_s)
    with tempfile.TemporaryDirectory() as run_dir:
        run_campaign(spec, store=run_dir)
        resume_s, resumed = timed(lambda: run_campaign(spec, store=run_dir))
    assert resumed.stats.jobs_run == 0, "resume replay executed jobs"
    return {
        "jobs": cold.stats.jobs_total,
        "run_s": round(cold_s, 3),
        "jobs_per_s": round(cold.stats.jobs_total / cold_s, 2),
        "resume_replay_s": round(resume_s, 3),
    }


def _sim_metrics() -> dict:
    """Fast-simulator wall clocks plus speedups over the frozen oracle.

    Scenarios are shared with ``bench_sim_hotpath.py`` via
    ``benchmarks/_common.py`` so the recorded speedups measure exactly
    what the benchmark gates enforce.
    """
    # Best-of-N wall clocks: both sides of each speedup are sub-second
    # to a-few-second runs on this (often single-core) recording host,
    # where one host-steal burst inside a single timed window would
    # read as a 30%+ "regression" of the ratio.
    def best_of(fn, repeats=3):
        results = [timed(fn) for _ in range(repeats)]
        return min(seconds for seconds, _ in results), results[0][1]

    sim: dict[str, float] = {}
    didactic = didactic_flowset(buf=2)
    fast_s, _ = best_of(
        lambda: offset_search(
            didactic,
            {"t1": DIDACTIC_GRID},
            release_horizon=DIDACTIC_HORIZON,
        )
    )
    sim["didactic_search_s"] = round(fast_s, 3)
    ref_s, _ = best_of(lambda: reference_didactic_search(didactic))
    sim["didactic_search_reference_s"] = round(ref_s, 3)
    sim["didactic_search_speedup"] = round(
        sim["didactic_search_reference_s"] / sim["didactic_search_s"], 2
    )

    mesh_fs, horizon = mesh8x8_scenario()
    fast = WormholeSimulator(mesh_fs, PeriodicReleases())
    fast_s, fast_result = best_of(lambda: fast.run(horizon))
    sim["mesh8x8_run_s"] = round(fast_s, 3)
    sim["mesh8x8_cycles_per_s"] = round(
        fast_result.end_time / sim["mesh8x8_run_s"]
    )
    ref_s, _ = best_of(
        lambda: ReferenceSimulator(mesh_fs, PeriodicReleases()).run(horizon),
        repeats=2,  # the slowest probe: two runs bound the cost
    )
    sim["mesh8x8_reference_s"] = round(ref_s, 3)
    sim["mesh8x8_speedup"] = round(
        sim["mesh8x8_reference_s"] / sim["mesh8x8_run_s"], 2
    )
    return sim


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=Path(__file__).resolve().parent,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv: list[str]) -> int:
    from repro.core.backend import get_backend

    label = argv[1] if len(argv) > 1 else "run"
    entry = {
        "label": label,
        "revision": git_revision(),
        "backend": get_backend().name,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "metrics": collect(),
    }
    history = []
    if TARGET.exists():
        history = json.loads(TARGET.read_text(encoding="utf-8"))
    history.append(entry)
    history = dedupe(history)
    TARGET.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(entry, indent=2))
    print(f"[appended to {TARGET}]")
    return 0


def dedupe(history: list) -> list:
    """Keep only the newest entry per (label, revision, backend).

    Repeated ``make bench-smoke`` runs on one revision used to pile up
    identical-looking ``smoke`` entries; the trajectory only needs the
    freshest numbers per revision, while entries from other revisions
    (the actual milestones) are never touched.  Runs recorded under
    different active backends (``repro --backend ...`` sessions) are
    distinct measurements and all survive.
    """
    def key(entry: dict):
        return entry.get("label"), entry.get("revision"), entry.get("backend")

    keep_from = {key(entry): index for index, entry in enumerate(history)}
    return [
        entry
        for index, entry in enumerate(history)
        if keep_from[key(entry)] == index
    ]


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

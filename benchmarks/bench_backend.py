"""Compiled backend vs numpy: the backend seam's speedup gates.

Measurements (shared with ``record_engine_bench.py``, which stores
them as the ``backend`` block of BENCH_engine.json):

* **kernel_b256** — a B = 256 batch of 48-flow log-uniform-period sets
  on an 8×8 mesh (`buf` 2, IBN) under each available backend.
  Log-uniform periods make the fixed points iterate for real (uniform
  periods converge in a step or two, leaving nothing for a compiled
  loop to win).  The shape keeps the recurrences live: over the first
  64 sets, 92 % of the flows get a bound (65 % above their C_i), where
  96-flow sets on a 4×4 mesh cut 79 % and bounded 18 %.  Every set
  stays on the array path: a recurrence that runs away ends without a
  bound inside the batch, under every backend.  The gate isolates the
  wave loop: it composes the batch once, then times
  :func:`repro.core.batch._run_levels` and the compiled
  ``run_levels`` on fresh copies of the dynamic state
  (``loop_cpu_speedup``).  Whole :func:`~repro.core.batch.analyze_batch`
  calls, whose composition and materialisation cost the same on every
  backend, are recorded beside it as ``cpu_speedup``, ungated.  Both
  are best-of-7 process-CPU times.
* **sim_8x8** — the 8×8 periodic wormhole run under each backend
  (cycles/s), with the end times cross-checked for byte-identity.

Both gates skip when the C extension is unavailable — the seam's
contract is that numpy alone must still pass the whole suite.

Run directly::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend.py -q
"""

from __future__ import annotations

import time

import pytest

from repro.core import backend as backend_mod
from repro.core import batch as batch_mod
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.batch import Scenario, analyze_batch
from repro.core.interference import InterferenceGraph
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.sim.simulator import WormholeSimulator
from repro.sim.traffic import PeriodicReleases
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import SyntheticConfig, synthetic_flows

from _common import mesh8x8_scenario

SEED = 20180319
KERNEL_B = 256
KERNEL_MESH = (8, 8)
KERNEL_NUM_FLOWS = 48


def _best_cpu(fn, reps: int = 7) -> float:
    """Best-of-N process-CPU seconds (the gates' currency: on a busy
    shared host wall clock measures the neighbours, CPU time the code).
    Seven reps, not three: the C-kernel runs are ~25 ms windows whose
    best-of-3 still jitters ±15% on a single-core recording host, and
    the regression gate compares them at 20%."""
    best = float("inf")
    for _ in range(reps):
        c0 = time.process_time()
        fn()
        best = min(best, time.process_time() - c0)
    return best


def _kernel_scenarios() -> list[Scenario]:
    """The first KERNEL_B candidate sets, each with a fresh graph that
    the callers' first timed repetition warms."""
    platform = NoCPlatform(Mesh2D(*KERNEL_MESH), buf=2)
    config = SyntheticConfig(
        num_flows=KERNEL_NUM_FLOWS, log_uniform_periods=True
    )
    analysis = IBNAnalysis()
    scenarios = []
    for index in range(KERNEL_B):
        rng = spawn_rng(SEED, "bench-backend", KERNEL_NUM_FLOWS, index)
        flows = synthetic_flows(config, platform.topology.num_nodes, rng)
        flowset = FlowSet(platform, flows)
        scenarios.append(
            Scenario(flowset, analysis, graph=InterferenceGraph(flowset))
        )
    return scenarios


def _best_loop_cpu(run_levels, composed, reps: int = 7) -> float:
    """Best-of-N process-CPU seconds of one wave loop over the composed
    batch, each repetition on fresh dynamic state."""
    best = float("inf")
    for _ in range(reps):
        state = composed.fresh_state()
        c0 = time.process_time()
        run_levels(early_exit=False, **composed.arrays, **state)
        best = min(best, time.process_time() - c0)
    return best


def kernel_metrics() -> dict:
    """The batch recurrence per backend at B = 256: whole calls, and the
    wave loop alone."""
    scenarios = _kernel_scenarios()
    cpu: dict[str, float] = {}
    for name in backend_mod.available_backend_names():
        with backend_mod.use_backend(name):
            run = lambda: analyze_batch(scenarios, early_exit=False)  # noqa: E731
            run()  # warm graphs, waves, numeric caches
            cpu[name] = _best_cpu(run)
    plans = [batch_mod._build_plan(s) for s in scenarios]
    composed = batch_mod._compose(plans, stop_at_deadline=True)
    loop = {"numpy": _best_loop_cpu(batch_mod._run_levels, composed)}
    block: dict = {
        "B": KERNEL_B,
        "mesh": "x".join(map(str, KERNEL_MESH)),
        "num_flows": KERNEL_NUM_FLOWS,
        "numpy_cpu_s": round(cpu["numpy"], 4),
        "numpy_loop_cpu_s": round(loop["numpy"], 4),
    }
    if "cext" in cpu:
        with backend_mod.use_backend("cext") as cext:
            loop["cext"] = _best_loop_cpu(cext.run_levels, composed)
        block["cext_cpu_s"] = round(cpu["cext"], 4)
        block["cpu_speedup"] = round(cpu["numpy"] / cpu["cext"], 2)
        block["cext_loop_cpu_s"] = round(loop["cext"], 4)
        block["loop_cpu_speedup"] = round(loop["numpy"] / loop["cext"], 2)
    return block


def sim_metrics() -> dict:
    """The 8×8 wormhole run per backend, gated on cycles/s."""
    flowset, horizon = mesh8x8_scenario()
    cpu: dict[str, float] = {}
    end_times: dict[str, int] = {}
    for name in backend_mod.available_backend_names():
        with backend_mod.use_backend(name):
            run = lambda: WormholeSimulator(  # noqa: E731
                flowset, PeriodicReleases()
            ).run(horizon)
            end_times[name] = run().end_time  # warm route/table caches
            cpu[name] = _best_cpu(run)
    assert len(set(end_times.values())) == 1, (
        f"backends disagree on the simulated end time: {end_times}"
    )
    end_time = end_times["numpy"]
    block: dict = {
        "end_time": end_time,
        "numpy_cpu_s": round(cpu["numpy"], 4),
        "numpy_cycles_per_s": round(end_time / cpu["numpy"]),
    }
    if "cext" in cpu:
        block["cext_cpu_s"] = round(cpu["cext"], 4)
        block["cext_cycles_per_s"] = round(end_time / cpu["cext"])
        block["cpu_speedup"] = round(cpu["numpy"] / cpu["cext"], 2)
    return block


def backend_metrics() -> dict:
    """The ``backend`` block recorded in BENCH_engine.json."""
    return {
        "available": backend_mod.available_backend_names(),
        "kernel_b256": kernel_metrics(),
        "sim_8x8": sim_metrics(),
    }


def _require_cext() -> None:
    if "cext" not in backend_mod.available_backend_names():
        pytest.skip("C extension unavailable; numpy-only host")


def test_kernel_b256_speedup_gate():
    """The compiled wave loop must run the B = 256 batch ≥3x faster
    than the numpy loop (process CPU time)."""
    _require_cext()
    block = kernel_metrics()
    assert block["loop_cpu_speedup"] >= 3.0, block


def test_sim_8x8_speedup_gate():
    """The compiled event drain must push the 8×8 run ≥3x more
    cycles/s than the Python loop (process CPU time)."""
    _require_cext()
    block = sim_metrics()
    assert block["cpu_speedup"] >= 3.0, block

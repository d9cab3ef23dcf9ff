"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 45 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``fig4`` — Figure 4(a)+(b) as a campaign over a 2-worker pool;
* ``validate`` — the bound-vs-simulation campaign, serial, in process.

The seed generates every input the program receives.  A run makes at
least three whole-campaign episodes and more while they fit in
``--seconds``, checks every answer outside the timed phase and prints
two lines: a details object (run context, sample counts, exact-repeat
counts, checks), then the result ``{"correct", "attempted", "failed",
"metrics"}``.

End-to-end metrics (``--trace 0``), per workload unit (a flow set, a
simulated phasing):

* ``setup_s`` — median over fresh ``python -m repro campaign SPEC
  --dry-run`` processes of launch until their first line: imports plus
  plan expansion, what every campaign start pays;
* ``throughput`` — units per second of the timed phase, median over the
  run's episodes (every episode does the same work);
* ``cpu_ms_per_unit`` — user+sys CPU of the program's processes
  (campaign coordinator plus pool workers) per unit, median over the
  run's episodes;
* ``peak_rss_mb`` — peak RSS of the largest program process.

The error rate (failed or wrong units over attempted ones) is the
result's ``failed``/``attempted`` and ``details.error_rate``; it is 0 on
a healthy run, so it is not one of the gated metrics.

``--trace 0`` reports the end-to-end metrics with nothing recorded
beyond the call counts the exact-repeat check needs.  ``--trace 1`` runs
the workload once untraced and once with spans recorded around the
program's public functions (inside pool workers too) and reports the
per-layer metrics: per span its calls, busy time and self time, plus
derived ratios and the tracing overhead.

The program runs with its shipped defaults: the benchmark sets no
backend, thread-count, batch-threshold or scale variable.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import campaign_workloads  # noqa: E402
from perfbench.harness import (  # noqa: E402
    SRC,
    WORK,
    Metric,
    check_exact,
    host_probe,
    run_context,
    span_table,
)
from perfbench.tracer import SPAN_TARGETS  # noqa: E402

WORKLOADS = ("fig4", "validate")

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "cpu_ms_per_unit": "ms",
    "peak_rss_mb": "MB",
}

#: Derived per-layer metrics and their units.
DERIVED = {
    "core.batch.scenarios_per_call": "count",
    "core.interference.build.cpu_ratio": "ratio",
    "campaigns.scheduler.worker_busy_share": "ratio",
    "sim.simulator.cycles": "cycles",
    "sim.simulator.cycles_per_s": "cycles/s",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for name in SPAN_TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_ms"] = "ms"
        units[f"{name}.self_ms"] = "ms"
    units.update(DERIVED)
    return units


def layer_metrics(records: list[dict], derived: dict) -> dict[str, Metric]:
    """Per-layer metrics of one traced run; spans that the workload never
    reached report zero calls."""
    table = span_table(records)
    metrics = {}
    for name in SPAN_TARGETS:
        row = table.get(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        calls = row["calls"]
        metrics[f"{name}.calls"] = Metric(calls, "count", calls)
        metrics[f"{name}.busy_ms"] = Metric(row["busy_ns"] / 1e6, "ms", calls)
        metrics[f"{name}.self_ms"] = Metric(row["self_ns"] / 1e6, "ms", calls)
    for name, unit in DERIVED.items():
        metrics[name] = derived.get(name, Metric(0.0, unit, 0))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke size (self-test)")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one answer before checking (self-test)")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    context = run_context()
    try:
        probe_before = host_probe()
        outcome = campaign_workloads.run(
            args.workload, work, args.seed, args.seconds, trace, args.size,
            args.tamper)
        probe_after = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = outcome.problems + check_exact(
        args.workload, args.seed, args.size, outcome.exact,
        context["source_digest"])
    if trace:
        metrics = layer_metrics(outcome.records, outcome.derived)
        expected = per_layer_units()
    else:
        metrics = outcome.metrics
        expected = END_TO_END
    missing = sorted(set(expected) - set(metrics))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    attempted = max(1, outcome.attempted)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "context": {**context, **outcome.details.pop("program", {}),
                    "host_probe_ms": [probe_before, probe_after]},
        "error_rate": {"value": outcome.failed / attempted, "unit": "ratio",
                       "samples": attempted},
        "samples": {name: m.samples for name, m in metrics.items()},
        "exact": outcome.exact,
        "problems": problems,
        "failed_operations": outcome.errors,
        **outcome.details,
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name].value, "unit": unit}
            for name, unit in expected.items() if name in metrics
        },
    }
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

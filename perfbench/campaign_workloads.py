"""The ``fig4`` and ``validate`` workloads: the paper's own campaigns.

* ``fig4`` regenerates Figure 4(a)+(b) at the ``default`` preset's
  sizes: 4x4 with 40-400 flows (7 points) and 8x8 with 80-480 flows
  (6 points), 20 flow sets per point, each decided under
  SB/XLWX/IBN2/IBN100.  It runs as ``run_campaign(spec, workers=2,
  store=<fresh run dir>)``, like ``repro campaign --workers 2
  --run-dir``.  Unit: one flow set.
* ``validate`` is the bound-vs-simulation campaign at the ``default``
  preset's sizes (didactic set plus 5 synthetic sets, depths 2/4/10/16,
  tau1 offset step 4), run serially in process with an in-memory store.
  Unit: one simulated phasing.

Each episode is a fresh program process (:mod:`perfbench.episode`)
doing the whole campaign; a run makes at least three episodes and more
while they fit in ``--seconds``, and reports the median episode.
Before each episode, fresh ``python -m repro campaign SPEC --dry-run``
processes time the program's set-up: imports plus plan expansion, until
it prints its first line.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from perfbench.harness import (
    ROOT,
    Metric,
    Outcome,
    merged_counts,
    program_env,
    span_table,
    time_to_first_line,
)

#: The campaign specs (``repro-campaign/1`` documents) per size.
SIZES = {
    "fig4": {
        "full": [((4, 4), [40, 100, 160, 220, 280, 340, 400], 20),
                 ((8, 8), [80, 160, 240, 320, 400, 480], 20)],
        "tiny": [((4, 4), [40, 100], 3), ((8, 8), [80], 3)],
    },
    "validate": {
        "full": {"buffer_depths": [2, 4, 10, 16], "didactic_offset_step": 4,
                 "synthetic_sets": 5},
        "tiny": {"buffer_depths": [2, 10], "didactic_offset_step": 40,
                 "synthetic_sets": 1},
    },
}

#: Episodes a run makes whatever ``--seconds`` says.
MIN_EPISODES = 3

#: Workers of the campaign pool per workload.
WORKERS = {"fig4": 2, "validate": 1}

#: Counts that must repeat exactly for one seed.
EXACT_KEYS = {
    "fig4": ("jobs", "core.interference.build", "core.batch.analyze_batch",
             "core.batch.scenarios", "core.engine.analyze",
             "campaigns.store.put"),
    "validate": ("jobs", "sim.simulator.run", "sim.simulator.cycles"),
}

#: Set-up probes before each episode.
SETUP_PROBES = {"full": 4, "tiny": 1}


def spec_documents(workload: str, seed: int, size: str) -> list[dict]:
    if workload == "fig4":
        return [
            {"format": "repro-campaign/1", "kind": "schedulability",
             "name": f"fig4{panel}",
             "params": {"mesh": list(mesh), "flow_counts": counts,
                        "sets_per_point": sets, "seed": seed}}
            for panel, (mesh, counts, sets) in zip("ab", SIZES[workload][size])
        ]
    return [{"format": "repro-campaign/1", "kind": "validation",
             "name": "validate",
             "params": {**SIZES[workload][size], "seed": seed}}]


def run_episode(work: Path, workload: str, name: str, spec_paths, *,
                trace: bool, check: bool, seed: int, tamper: bool) -> dict:
    out = work / f"{name}.json"
    argv = [sys.executable, "-m", "perfbench.episode",
            "--workers", str(WORKERS[workload]),
            "--records", str(work / f"{name}-records"), "--out", str(out),
            "--seed", str(seed)]
    for path in spec_paths:
        argv += ["--spec", str(path)]
    if workload == "fig4":
        argv += ["--run-dir", str(work / f"{name}-run")]
    if trace:
        argv.append("--trace")
    if check:
        argv += ["--check", workload]
    if tamper:
        argv.append("--tamper")
    subprocess.run(argv, cwd=ROOT, env=program_env(), check=True,
                   stdout=subprocess.DEVNULL, timeout=170)
    return json.loads(out.read_text(encoding="utf-8"))


def run(workload: str, work: Path, seed: int, seconds: int, trace: bool,
        size: str, tamper: bool) -> Outcome:
    out = Outcome()
    spec_paths = []
    for document in spec_documents(workload, seed, size):
        path = work / f"{document['name']}.spec.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        spec_paths.append(path)
    # Until ready for the first unit: the first spec's plan expanded.
    setup_argv = [sys.executable, "-m", "repro", "campaign",
                  str(spec_paths[0]), "--dry-run"]

    def episode(name: str, number: int) -> dict:
        return run_episode(work, workload, name, spec_paths,
                           trace=name == "traced", check=number == 0,
                           seed=seed, tamper=tamper)

    episodes: dict[str, dict] = {}
    if trace:
        for number, name in enumerate(("untraced", "traced")):
            episodes[name] = episode(name, number)
    else:
        setup: list[float] = []
        measured = 0.0
        while len(episodes) < MIN_EPISODES or (
                measured * (len(episodes) + 1) / len(episodes) <= seconds):
            setup += [time_to_first_line(setup_argv)
                      for _ in range(SETUP_PROBES[size])]
            number = len(episodes)
            episodes[f"episode-{number}"] = episode(f"episode-{number}",
                                                    number)
            measured += episodes[f"episode-{number}"]["wall_s"]
        out.metrics["setup_s"] = Metric(statistics.median(setup), "s",
                                        len(setup))
    names = list(episodes)
    first = episodes[names[0]]
    for name, result in episodes.items():
        out.attempted += result["units"]
        out.failed += result["checks"]["wrong_units"]
        out.problems += [f"{name}: {f}" for f in result["checks"]["failures"]]
        if result["quarantined"]:
            out.errors.append(f"{name}: {result['quarantined']} jobs "
                              "quarantined")
            out.failed += result["quarantined"]
        if result["answers"] != first["answers"]:
            out.problems.append(f"{name}: answers differ from {names[0]}")
            out.failed += result["units"]
        out.exact.append({key: result["counts"].get(key, 0)
                          for key in EXACT_KEYS[workload]})
    out.details["program"] = first["context"]
    out.details["episodes"] = [
        {"wall_s": round(e["wall_s"], 4), "cpu_s": round(e["cpu_s"], 4)}
        for e in episodes.values()
    ]
    if trace:
        out.records = episodes["traced"]["records"]
        out.derived = derived_layers(workload, episodes)
        return out
    # Every episode does the same work: per-episode rates, median over
    # the run, so an episode slowed by other load on the shared host
    # does not move the run's figure.
    runs = list(episodes.values())
    out.metrics["throughput"] = Metric(statistics.median(
        e["units"] / e["wall_s"] for e in runs), "1/s", len(runs))
    out.metrics["cpu_ms_per_unit"] = Metric(statistics.median(
        e["cpu_s"] * 1e3 / e["units"] for e in runs), "ms", len(runs))
    out.metrics["peak_rss_mb"] = Metric(
        max(e["rss_kb"] for e in runs) / 1024, "MB", len(runs))
    return out


def derived_layers(workload: str, episodes: dict) -> dict[str, Metric]:
    traced = episodes["traced"]
    records = traced["records"]
    table = span_table(records)
    counts = merged_counts(records)
    coordinator = records[0]["pid"]
    derived = {}
    calls = counts.get("core.batch.analyze_batch", 0)
    derived["core.batch.scenarios_per_call"] = Metric(
        counts.get("core.batch.scenarios", 0) / calls if calls else 0.0,
        "count", calls)
    build = table.get("core.interference.build")
    if build:
        derived["core.interference.build.cpu_ratio"] = Metric(
            counts.get("core.interference.build.cpu_ns", 0)
            / build["busy_ns"], "ratio", build["calls"])
    run_wall = table.get("campaigns.engine.run_campaign", {}).get("busy_ns")
    execute = [span for record in records if record["pid"] != coordinator
               for span in record["spans"]
               if span[0] == "campaigns.registry.execute"]
    if run_wall and workload == "fig4":
        derived["campaigns.scheduler.worker_busy_share"] = Metric(
            sum(end - start for _, start, end, *_ in execute)
            / (WORKERS[workload] * run_wall), "ratio", len(execute))
    sim = table.get("sim.simulator.run")
    if sim:
        cycles = counts.get("sim.simulator.cycles", 0)
        derived["sim.simulator.cycles"] = Metric(cycles, "cycles",
                                                 sim["calls"])
        derived["sim.simulator.cycles_per_s"] = Metric(
            cycles / (sim["busy_ns"] / 1e9), "cycles/s", sim["calls"])
    untraced = episodes["untraced"]
    rate = {name: e["units"] / e["wall_s"] for name, e in episodes.items()}
    derived["trace.overhead_pct"] = Metric(
        (rate["untraced"] - rate["traced"]) / rate["untraced"] * 100, "%",
        untraced["units"] + traced["units"])
    return derived

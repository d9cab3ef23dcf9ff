"""One campaign episode in a fresh program process (fig4, validate).

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python3 -m perfbench.episode --spec a.json [--spec b.json] \
        --workers 2 --run-dir DIR --records DIR --out result.json \
        [--trace] [--check fig4|validate] [--tamper]

Runs each campaign spec through ``run_campaign`` exactly as
``python -m repro campaign SPEC --workers N --run-dir DIR`` would
(``--run-dir`` omitted: an in-memory store), timing the whole timed
phase and the CPU of this process plus its pool workers.  Afterwards,
outside the timed phase, it checks the answers (``--check``) and writes
one JSON document with timings, answers, exact-repeat counts and, when
``--trace`` is given, every span recorded here and in the pool workers.
``--tamper`` corrupts one answer before checking, so the benchmark's
self-test can prove that wrong answers are counted.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

from perfbench.harness import merged_counts
from perfbench.tracer import SPAN_TARGETS, Tracer, read_records

#: Spans counted on every run: their counts must repeat exactly.
COUNTED = {
    "fig4": ("core.interference.build", "core.batch.analyze_batch",
             "core.engine.analyze", "campaigns.store.put"),
    "validate": ("sim.simulator.run",),
}

#: Figure 4's curves from most to least optimistic, at every point.
FIG4_ORDER = ("SB", "IBN2", "IBN100", "XLWX")


def table2_t3(buf: int) -> dict[str, int] | None:
    """The paper's Table II bounds of t3 at one buffer depth, if listed."""
    from repro.experiments.didactic_table import PAPER_TABLE2

    ibn = PAPER_TABLE2.get(f"R_IBN_b{buf}")
    if ibn is None:
        return None
    return {"SB": PAPER_TABLE2["R_SB"]["t3"],
            "XLWX": PAPER_TABLE2["R_XLWX"]["t3"], "IBN": ibn["t3"]}


def unit_sizes(spec) -> dict[str, int]:
    """Job label -> units (flow sets or phasings) the job completes."""
    from repro.campaigns.engine import expand_jobs

    sizes = {}
    for job in expand_jobs(spec):
        params = job.params
        sizes[job.label] = params.get("set_count") or len(params["combos"])
    return sizes


def fig4_answers(runs) -> dict:
    return {
        run.spec.name: {"x": run.result.x_values, "series": run.result.series}
        for run in runs
    }


def validate_answers(runs) -> dict:
    out = {}
    for run in runs:
        result = run.result
        out[run.spec.name] = {
            "runs": result.runs,
            "rows": [
                [row.workload, row.buf, row.flow, row.observed,
                 row.bounds["SB"], row.bounds["IBN"], row.bounds["XLWX"]]
                for row in result.rows
            ],
        }
    return out


def check_fig4(runs, store_dir: Path, seed: int, tamper: bool) -> dict:
    """Curve order at every point, plus a scalar re-decision sample."""
    from repro.campaigns.engine import expand_jobs
    from repro.campaigns.store import open_store
    from repro.experiments.schedulability_sweep import (
        _chunk_sets, spec_verdicts,
    )

    failures, wrong = [], 0
    for run in runs:
        series = run.result.series
        for index, x in enumerate(run.result.x_values):
            values = [series[label][index] for label in FIG4_ORDER]
            if values != sorted(values, reverse=True):
                failures.append(f"{run.spec.name} n={x}: order {values}")
                wrong += run.result.sets_per_point
    rng = random.Random(seed)
    for number, run in enumerate(runs):
        jobs = expand_jobs(run.spec)
        job = jobs[rng.randrange(len(jobs))]
        stored = open_store(store_dir / run.spec.name).load()[job.job_id]
        counts = dict(stored["counts"])
        if tamper and number == 0:
            counts["IBN2"] += 1
        specs, flowsets = _chunk_sets(job.params)
        scalar = {spec.label: 0 for spec in specs}
        for flowset in flowsets:
            for label, ok in spec_verdicts(flowset, specs).items():
                scalar[label] += ok
        if scalar != counts:
            failures.append(f"{job.label}: batch {counts} != scalar {scalar}")
            wrong += job.params["set_count"]
    return {"failures": failures, "wrong_units": wrong}


def check_validate(runs, tamper: bool) -> dict:
    """No observation above a safe bound; didactic bounds = Table II."""
    from repro.campaigns import registry

    failures, wrong = [], 0
    for run in runs:
        plan = registry.get_kind(run.spec.kind).plan(run.spec)
        phasings = {
            (group.workload, group.buf): sum(
                len(job.params["combos"]) for job in group.jobs
            )
            for group in plan.context
        }
        bad: set[tuple[str, int]] = set()
        for row in run.result.rows:
            observed = row.observed
            if tamper and row.workload == "didactic" and row.flow == "t3":
                observed = row.bounds["IBN"] + 1
                tamper = False
            for label in ("IBN", "XLWX"):
                bound = row.bounds[label]
                if bound is not None and observed > bound:
                    failures.append(
                        f"{row.workload} b{row.buf} {row.flow}: observed "
                        f"{observed} > {label} {bound}"
                    )
                    bad.add((row.workload, row.buf))
            expected = table2_t3(row.buf)
            if row.workload == "didactic" and row.flow == "t3" and expected:
                got = {label: row.bounds[label] for label in expected}
                if got != expected:
                    failures.append(f"didactic b{row.buf} t3: {got}")
                    bad.add((row.workload, row.buf))
        wrong += sum(phasings[key] for key in bad)
    return {"failures": failures, "wrong_units": wrong}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", action="append", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--run-dir", default=None)
    parser.add_argument("--records", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", choices=("fig4", "validate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args(argv)

    from repro.campaigns import engine, registry
    from repro.campaigns.spec import load_spec
    from repro.core.backend import get_backend

    registry.load_builtins()
    specs = [load_spec(path) for path in args.spec]
    workload = "fig4" if specs[0].kind == "schedulability" else "validate"
    sizes = {}
    for spec in specs:
        sizes.update(unit_sizes(spec))
    records_dir = Path(args.records)
    records_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spans=args.trace)
    tracer.install(SPAN_TARGETS if args.trace else COUNTED[workload])
    tracer.flush_per_block(records_dir)

    units_done = 0

    def progress(event) -> None:
        nonlocal units_done
        units_done += sizes.get(event.label, 0)

    run_dir = Path(args.run_dir) if args.run_dir else None
    usage = [resource.getrusage(who) for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    start = time.perf_counter()
    runs = [
        engine.run_campaign(
            spec, workers=args.workers, progress=progress,
            store=(run_dir / spec.name) if run_dir else None,
        )
        for spec in specs
    ]
    wall = time.perf_counter() - start
    after = [resource.getrusage(who) for who in
             (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    cpu = sum(
        (a.ru_utime + a.ru_stime) - (b.ru_utime + b.ru_stime)
        for a, b in zip(after, usage)
    )

    records = [tracer.snapshot()]
    records += read_records(sorted(records_dir.glob("worker-*.jsonl")))
    counts = merged_counts(records)
    counts["jobs"] = sum(run.stats.jobs_run for run in runs)
    if workload == "fig4":
        answers = fig4_answers(runs)
    else:
        answers = validate_answers(runs)
    checks = {"failures": [], "wrong_units": 0}
    if args.check == "fig4":
        checks = check_fig4(runs, run_dir, args.seed, args.tamper)
    elif args.check == "validate":
        checks = check_validate(runs, args.tamper)
    document = {
        "wall_s": wall,
        "cpu_s": cpu,
        "rss_kb": max(after[0].ru_maxrss, after[1].ru_maxrss),
        "units": units_done,
        "quarantined": sum(run.stats.jobs_quarantined for run in runs),
        "answers": answers,
        "counts": counts,
        "checks": checks,
        "records": records if args.trace else [],
        "context": {"backend": get_backend().name},
    }
    Path(args.out).write_text(json.dumps(document), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

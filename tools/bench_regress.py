"""Gate on the BENCH_engine.json trajectory: no silent perf regressions.

Compares the two most recent entries of ``BENCH_engine.json`` and
fails (exit 1) when any tracked metric regressed by more than the
threshold (default 20%).  Wired into ``make smoke`` so a PR whose
bench run slowed a hot path down cannot land quietly; run it any time
with::

    python tools/bench_regress.py [--threshold 0.2] [--file PATH]

Tracked metrics are listed in :data:`TRACKED` as dotted paths into the
entry's ``metrics`` object, each tagged with its direction (lower or
higher is better).  Metrics missing from either entry are skipped (new
blocks appear over time), as are wall-clock values beneath a small
absolute floor where scheduler noise, not code, dominates.  With fewer
than two entries the script reports and exits 0.

Entries are recorded by different sessions on whatever hardware and
load the day brings, so raw wall-clock comparisons confuse *machine
drift* (every timing uniformly slower on a busier or downclocked box)
with *code regressions* (one hot path slower because a change made it
slower).  The gate separates the two by self-calibration: the median
speed ratio across all speed-dependent tracked metrics (durations and
rates) estimates the drift, and each metric is normalised by it before
the threshold check.  A genuine single-path regression still trips the
gate — the median stays ~1 when the other paths are flat — while a
20% slower machine no longer fails every duration at once.  The
estimate needs at least :data:`MIN_DRIFT_SAMPLES` speed metrics
present in both entries; below that the comparison stays raw.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

DEFAULT_FILE = Path(__file__).resolve().parent.parent / "BENCH_engine.json"

#: (dotted metric path, "lower" | "higher" is better).
TRACKED = (
    ("graph_build_ms.400", "lower"),
    ("analyse_set_ms", "lower"),
    ("recurrence_ms.SB", "lower"),
    ("recurrence_ms.IBN", "lower"),
    ("fig4_ci_s", "lower"),
    ("sim.didactic_search_speedup", "higher"),
    ("sim.mesh8x8_speedup", "higher"),
    ("sim.mesh8x8_cycles_per_s", "higher"),
    ("campaign.jobs_per_s", "higher"),
    ("serve.cold_rps", "higher"),
    ("serve.warm_rps", "higher"),
    ("batch.sweep.batched_scenarios_per_s", "higher"),
    ("batch.sweep.speedup", "higher"),
    ("allocate.evals_per_s", "higher"),
    ("allocate.time_to_optimum_s", "lower"),
    # Speed-independent: evaluations the monotonicity pruning avoids.
    ("allocate.pruning_factor", "higher"),
    # Optional-backend metrics: absent on numpy-only hosts (the C
    # extension never built), and lookup() skips absent paths.
    ("backend.kernel_b256.cpu_speedup", "higher"),
    ("backend.sim_8x8.cpu_speedup", "higher"),
    ("backend.sim_8x8.cext_cycles_per_s", "higher"),
    ("durability.fsync_puts_per_s.always", "higher"),
    ("durability.failover_time_s", "lower"),
    ("chaos.scenarios_passed", "higher"),
    ("cluster.best_rps", "higher"),
    # Speed-independent: physical lines under src/repro (.py and .c).
    ("code.src_lines", "lower"),
)

#: Wall-clock values smaller than these floors are all scheduler noise;
#: comparisons against them would make the gate flaky.
FLOORS = {"ms": 1.0, "s": 0.05}

#: Minimum speed-dependent metrics shared by both entries before the
#: machine-drift estimate is trusted; below this, compare raw.
MIN_DRIFT_SAMPLES = 3


def lookup(metrics: dict, path: str):
    """Resolve a dotted path; None when any hop is missing."""
    node = metrics
    for hop in path.split("."):
        if not isinstance(node, dict) or hop not in node:
            return None
        node = node[hop]
    return node if isinstance(node, (int, float)) else None


def unit_floor(path: str) -> float:
    """Noise floor for a metric, derived from its unit suffix.

    Any path segment may carry the unit (``recurrence_ms.SB`` keys its
    per-analysis values under the ``_ms`` block); rates (``*_per_s``)
    are not durations and get no floor.
    """
    for hop in reversed(path.split(".")):
        if hop.endswith("_per_s"):
            return 0.0
        for suffix, floor in FLOORS.items():
            if hop.endswith(f"_{suffix}"):
                return floor
    return 0.0


def speed_kind(path: str) -> str | None:
    """How machine speed moves a metric, from its unit suffix.

    ``"duration"`` (``*_ms``/``*_s``: slower box -> larger),
    ``"rate"`` (``*_per_s``/``*_rps``: slower box -> smaller), or
    ``None`` for speed-independent values (counts, speedup ratios).
    """
    for hop in reversed(path.split(".")):
        if hop.endswith("_per_s") or hop.endswith("_rps"):
            return "rate"
        for suffix in FLOORS:
            if hop.endswith(f"_{suffix}"):
                return "duration"
    return None


def machine_drift(previous: dict, latest: dict) -> tuple[float, int]:
    """Estimated machine-speed ratio between two entries.

    Returns ``(drift, samples)``: the median slowdown factor across
    every speed-dependent tracked metric present in both entries
    (>1 = the latest entry's box ran slower), and how many metrics
    fed the median.  With fewer than :data:`MIN_DRIFT_SAMPLES`
    samples the estimate is untrustworthy and ``(1.0, samples)`` is
    returned.
    """
    ratios = []
    for path, _direction in TRACKED:
        kind = speed_kind(path)
        if kind is None:
            continue
        before = lookup(previous.get("metrics", {}), path)
        after = lookup(latest.get("metrics", {}), path)
        if before is None or after is None or before <= 0 or after <= 0:
            continue
        floor = unit_floor(path)
        if abs(before) < floor and abs(after) < floor:
            continue
        ratios.append(after / before if kind == "duration"
                      else before / after)
    if len(ratios) < MIN_DRIFT_SAMPLES:
        return 1.0, len(ratios)
    return statistics.median(ratios), len(ratios)


def compare(previous: dict, latest: dict, threshold: float) -> list[str]:
    """Human-readable regression reports (empty = gate passes)."""
    problems = []
    drift, _samples = machine_drift(previous, latest)
    for path, direction in TRACKED:
        before = lookup(previous.get("metrics", {}), path)
        after = lookup(latest.get("metrics", {}), path)
        if before is None or after is None:
            continue
        floor = unit_floor(path)
        if abs(before) < floor and abs(after) < floor:
            continue
        if before <= 0:
            continue
        kind = speed_kind(path)
        if kind == "duration":
            adjusted = after / drift
        elif kind == "rate":
            adjusted = after * drift
        else:
            adjusted = after
        change = (adjusted - before) / before
        note = "" if drift == 1.0 else f" net of x{drift:.2f} drift"
        if direction == "lower" and change > threshold:
            problems.append(
                f"{path}: {before} -> {after} "
                f"(+{change * 100:.1f}%{note}, lower is better)"
            )
        elif direction == "higher" and change < -threshold:
            problems.append(
                f"{path}: {before} -> {after} "
                f"({change * 100:.1f}%{note}, higher is better)"
            )
    return problems


def baseline_for(history: list) -> dict:
    """The newest earlier entry comparable to the latest one.

    Prefer the latest entry's own label (``smoke`` entries always
    compare against the previous smoke run, whatever ad-hoc
    ``bench-record LABEL=...`` entries — possibly taken at another
    scale or under load — were appended in between); fall back to the
    immediately preceding entry only when the label has no history.
    """
    latest = history[-1]
    for entry in reversed(history[:-1]):
        if entry.get("label") == latest.get("label"):
            return entry
    return history[-2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when the two latest bench entries show a "
        "tracked metric regressing beyond the threshold"
    )
    parser.add_argument(
        "--threshold", type=float, default=0.20,
        help="relative regression tolerance (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--file", type=Path, default=DEFAULT_FILE,
        help="BENCH_engine.json location",
    )
    args = parser.parse_args(argv)
    if not args.file.exists():
        print(f"bench-regress: {args.file} not found; nothing to gate")
        return 0
    history = json.loads(args.file.read_text(encoding="utf-8"))
    if len(history) < 2:
        print(
            f"bench-regress: only {len(history)} entry in {args.file.name}; "
            "nothing to compare"
        )
        return 0
    latest = history[-1]
    previous = baseline_for(history)
    problems = compare(previous, latest, args.threshold)
    label = (
        f"{previous.get('label')}@{previous.get('revision')} -> "
        f"{latest.get('label')}@{latest.get('revision')}"
    )
    drift, samples = machine_drift(previous, latest)
    if abs(drift - 1.0) > 0.05:
        print(
            f"bench-regress: machine drift x{drift:.2f} "
            f"(median of {samples} speed metrics) normalised out"
        )
    if problems:
        print(f"bench-regress: REGRESSION {label}")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"bench-regress: ok ({label}, "
        f"threshold {args.threshold * 100:.0f}%)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Worst-case latency search by release-offset exploration.

The analyses bound the worst case over *all* release phasings; a simulator
only ever observes the phasings it is given.  Following the paper's
Section V methodology ("we also produced cycle-accurate simulation results
for the same scenarios, and tabulated the worst observed latency for each
flow"), this module sweeps release offsets — the dominant lever for
exposing multi-point progressive blocking — and keeps per-flow maxima.

The search is exhaustive over the supplied offset grid (a Cartesian
product), so its cost is the product of grid sizes times the horizon.
Two levers keep large grids tractable without changing the result:

* **Dominance pruning** — when *every* networked flow is varied, two
  phasings that differ by a uniform time shift present the same relative
  release pattern; the shifted run is the canonical run with its last
  ``Δ`` cycles of releases truncated, so (in the anomaly-free
  ``linkl == 1`` regime, where a flit in transit never occupies a cycle
  another priority needs) its per-flow worst latencies are pointwise
  ``≤`` the canonical run's.  Skipping shifted phasings therefore never
  changes the per-flow maxima.  Pruning auto-enables exactly in that
  regime — and only for **ascending** offset grids, where the canonical
  phasing precedes its shifts in product order so the recorded
  maximising offsets keep the serial sweep's first-strict-max
  tie-break.  It can be forced on/off with ``prune_shifts`` (forcing it
  on with non-ascending grids keeps the maxima exact but may record a
  shifted phasing on ties).
* **Campaign fan-out** — :func:`offset_search` itself is a serial
  loop.  Parallel searches go through the campaign engine instead:
  :func:`enumerate_phasings` lists the same pruned phasings up front,
  and the ``validation`` and ``didactic`` campaigns ship them as
  ``sim_chunk`` jobs (:mod:`repro.experiments.sim_jobs`) over the
  scheduler's worker pool, folding chunk maxima back in phasing order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.flows.flowset import FlowSet
from repro.sim.observer import LatencyObserver
from repro.sim.simulator import WormholeSimulator
from repro.sim.traffic import PeriodicReleases


@dataclass
class SearchResult:
    """Worst observed latency per flow over all simulated phasings."""

    worst: dict[str, int] = field(default_factory=dict)
    worst_offsets: dict[str, dict[str, int]] = field(default_factory=dict)
    runs: int = 0
    #: phasings skipped as pure time-shifts of an earlier phasing.
    pruned: int = 0

    def worst_latency(self, flow_name: str) -> int:
        """Worst latency observed for a flow across all phasings tried."""
        return self.worst.get(flow_name, 0)


def simulate_offsets(
    flowset: FlowSet,
    offsets: Mapping[str, int],
    *,
    release_horizon: int,
    credit_delay: int = 1,
) -> dict[str, int]:
    """Run one phasing; return the worst observed latency per flow."""
    simulator = WormholeSimulator(
        flowset,
        PeriodicReleases(offsets=dict(offsets)),
        credit_delay=credit_delay,
        observer=LatencyObserver(),
    )
    result = simulator.run(release_horizon)
    result.check_conservation()
    return dict(result.observer.worst)


def auto_prune_shifts(
    flowset: FlowSet, names: Sequence[str], grids: Sequence[Sequence[int]]
) -> bool:
    """Whether shift-dominance pruning auto-enables for this search.

    True exactly in the proven regime: anomaly-free ``linkl == 1``
    platforms where *every* networked flow is varied and every grid is
    ascending (so canonical phasings precede their shifts in product
    order).
    """
    networked = {f.name for f in flowset.flows if not f.is_local}
    return (
        flowset.platform.linkl == 1
        and networked <= set(names)
        and all(list(grid) == sorted(set(grid)) for grid in grids)
    )


def _phasings(
    flowset: FlowSet,
    vary: Mapping[str, Sequence[int]],
    prune_shifts: bool | None,
) -> tuple[tuple[str, ...], int, Iterator[tuple[int, ...]]]:
    """Check the offset grid; stream the phasings a search simulates.

    Returns the varied flow names, the size of the full product and a
    lazy stream of the phasings shift-dominance pruning keeps, in
    product order (so ``pruned = size - kept``).  The one grid check and
    pruning loop behind both :func:`enumerate_phasings` and
    :func:`offset_search`.
    """
    names = tuple(vary)
    grids = [list(vary[name]) for name in names]
    for name, grid in zip(names, grids):
        if not grid:
            raise ValueError(f"empty offset grid for flow {name!r}")
    if prune_shifts is None:
        prune_shifts = auto_prune_shifts(flowset, names, grids)
    combos = itertools.product(*grids)
    if prune_shifts:
        grid_sets = [set(grid) for grid in grids]
        combos = (c for c in combos if not _is_shifted(c, grid_sets))
    return names, math.prod(map(len, grids)), combos


def enumerate_phasings(
    flowset: FlowSet,
    vary: Mapping[str, Sequence[int]],
    *,
    prune_shifts: bool | None = None,
) -> tuple[tuple[str, ...], list[tuple[int, ...]], int]:
    """Materialise the (pruned) offset grid of a search.

    Returns ``(names, combos, pruned)``: the varied flow names, the
    phasings a sweep would simulate (in product order), and how many
    were skipped as pure time-shifts.  These are exactly the phasings
    :func:`offset_search` simulates, listed up front so campaign specs
    can chunk them into content-addressed jobs.
    """
    names, size, stream = _phasings(flowset, vary, prune_shifts)
    combos = list(stream)
    return names, combos, size - len(combos)


def _is_shifted(
    combo: tuple[int, ...], grid_sets: list[set[int]]
) -> bool:
    """Is this phasing a positive uniform shift of an enumerated one?

    True when some ``Δ > 0`` maps every coordinate onto its own grid:
    the shifted-down combo is then part of the sweep (it precedes this
    one in product order) and dominates it.
    """
    first = combo[0]
    deltas = (first - g for g in grid_sets[0] if g < first)
    return any(
        all(o - delta in gs for o, gs in zip(combo[1:], grid_sets[1:]))
        for delta in deltas
    )


def offset_search(
    flowset: FlowSet,
    vary: Mapping[str, Sequence[int]],
    *,
    release_horizon: int,
    base_offsets: Mapping[str, int] | None = None,
    credit_delay: int = 1,
    prune_shifts: bool | None = None,
) -> SearchResult:
    """Exhaustively sweep the offset grid and keep per-flow maxima.

    ``vary`` maps flow names to the offsets to try (e.g. every phase of a
    fast interferer's period); flows not listed use ``base_offsets``
    (default 0).  ``prune_shifts`` controls shift-dominance pruning
    (default: automatic, see the module docstring).  Phasings stream
    from the grid one at a time, so memory stays bounded however large
    the product.  The recorded maximising offsets are the first
    phasing, in product order, to reach each flow's maximum.

    >>> from repro.workloads import didactic_flowset
    >>> fs = didactic_flowset(buf=2)
    >>> r = offset_search(fs, {"t1": range(0, 10)}, release_horizon=1)
    >>> r.runs
    10
    """
    names, size, stream = _phasings(flowset, vary, prune_shifts)
    base = dict(base_offsets or {})
    search = SearchResult()
    for combo in stream:
        offsets = dict(base)
        offsets.update(zip(names, combo))
        observed = simulate_offsets(
            flowset,
            offsets,
            release_horizon=release_horizon,
            credit_delay=credit_delay,
        )
        search.runs += 1
        for flow_name, latency in observed.items():
            if latency > search.worst.get(flow_name, -1):
                search.worst[flow_name] = latency
                search.worst_offsets[flow_name] = dict(offsets)
    search.pruned = size - search.runs
    return search

"""Cycle-accurate simulator for priority-preemptive wormhole NoCs.

Implements the router architecture of the paper's Fig. 1: per-priority
virtual channels with FIFO input buffers of depth ``buf(Ξ)``, credit-based
flow control, flit-level priority preemption on every output link, and the
``linkl``/``routl`` latencies of the platform model.

The simulator serves two purposes in the reproduction:

* regenerate the **simulation columns of Table II** (worst observed
  latencies under a release-offset search, :mod:`repro.sim.worstcase`);
* act as the ground truth against which the analyses are validated —
  observed latencies must never exceed the safe bounds (XLWX, IBN), and do
  exceed the optimistic ones (SB) in MPB scenarios.

The main entry point is :class:`~repro.sim.simulator.WormholeSimulator`.
The implementation is the fast-lane rework described in DESIGN.md's
"Simulation performance" section — flat array state, monotone event
deques, a shift-pruned offset search — and is kept cycle-identical
to the frozen pre-optimisation oracle in :mod:`repro.sim._reference`.
"""

from repro.sim.traffic import PeriodicReleases, ReleasePlan, single_shot
from repro.sim.observer import LatencyObserver, PacketRecord
from repro.sim.simulator import SimulationResult, WormholeSimulator
from repro.sim.trace import FlitTracer, SendEvent, link_timeline, packet_journey
from repro.sim.worstcase import SearchResult, offset_search, simulate_offsets

__all__ = [
    "SearchResult",
    "PeriodicReleases",
    "ReleasePlan",
    "single_shot",
    "LatencyObserver",
    "PacketRecord",
    "SimulationResult",
    "WormholeSimulator",
    "FlitTracer",
    "SendEvent",
    "link_timeline",
    "packet_journey",
    "offset_search",
    "simulate_offsets",
]

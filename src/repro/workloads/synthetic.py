"""Synthetic flow-set generator (paper Section VI, Figure 4).

The paper generates flow sets of increasing load by varying the number of
flows, with:

* periods uniformly distributed between 0.5 ms and 0.5 s;
* maximum packet lengths uniformly distributed between 128 and 4096 flits;
* deadlines equal to periods, zero release jitter;
* randomly selected sources and destinations;
* rate-monotonic priority assignment.

The paper reports latencies in cycles but never states the clock frequency
that converts the wall-clock periods; :class:`SyntheticConfig.clock_hz` is
therefore an explicit knob (see EXPERIMENTS.md for the calibration note).
With the 10 MHz default, the schedulability knee of every analysis falls
inside the paper's swept flow counts on both the 4×4 and 8×8 platforms,
while the shortest possible period (0.5 ms = 5000 cycles) still exceeds
the largest possible zero-load latency — no flow is infeasible in
isolation, so unschedulability is always a *contention* outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.util.rng import spawn_rng


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the Section VI generator (defaults = the paper's)."""

    num_flows: int
    period_min_s: float = 0.5e-3
    period_max_s: float = 0.5
    length_min: int = 128
    length_max: int = 4096
    clock_hz: float = 10e6
    #: Draw periods log-uniformly instead of uniformly.  The paper says
    #: "uniformly distributed"; the log-uniform option exists for
    #: sensitivity studies (it concentrates more probability on short,
    #: hard-to-schedule periods).
    log_uniform_periods: bool = False
    allow_self_traffic: bool = False

    def __post_init__(self):
        if self.num_flows < 1:
            raise ValueError(f"need at least one flow, got {self.num_flows}")
        if not (0 < self.period_min_s <= self.period_max_s):
            raise ValueError(
                f"bad period range [{self.period_min_s}, {self.period_max_s}]"
            )
        if not (1 <= self.length_min <= self.length_max):
            raise ValueError(
                f"bad length range [{self.length_min}, {self.length_max}]"
            )
        if self.clock_hz <= 0:
            raise ValueError(f"clock must be positive, got {self.clock_hz}")
        if int(self.period_min_s * self.clock_hz) < 1:
            raise ValueError("period_min_s is below one clock cycle")


def synthetic_flows(
    config: SyntheticConfig,
    num_nodes: int,
    rng: np.random.Generator,
) -> list[Flow]:
    """Draw one flow set per the paper's Section VI recipe.

    Returns flows with rate-monotonic priorities already assigned.
    """
    if num_nodes < 2 and not config.allow_self_traffic:
        raise ValueError("need at least two nodes for src != dst traffic")
    period_lo = config.period_min_s * config.clock_hz
    period_hi = config.period_max_s * config.clock_hz
    draws: list[tuple[int, str, int, int, int]] = []
    for index in range(config.num_flows):
        if config.log_uniform_periods:
            period = int(
                np.exp(rng.uniform(np.log(period_lo), np.log(period_hi)))
            )
        else:
            period = int(rng.uniform(period_lo, period_hi))
        period = max(period, 1)
        length = int(rng.integers(config.length_min, config.length_max + 1))
        src = int(rng.integers(num_nodes))
        if config.allow_self_traffic:
            dst = int(rng.integers(num_nodes))
        else:
            dst = int(rng.integers(num_nodes - 1))
            if dst >= src:
                dst += 1
        draws.append((period, f"f{index}", length, src, dst))
    # Rate-monotonic order, as rate_monotonic's (period, deadline, name)
    # key with deadline == period; each Flow is built once, with its
    # final priority.
    draws.sort(key=lambda draw: (draw[0], draw[1]))
    return [
        Flow(
            name=name,
            priority=level,
            period=period,
            deadline=period,
            jitter=0,
            length=length,
            src=src,
            dst=dst,
        )
        for level, (period, name, length, src, dst) in enumerate(
            draws, start=1
        )
    ]


def synthetic_flowset(
    platform: NoCPlatform,
    config: SyntheticConfig,
    *,
    seed: int,
    set_index: int = 0,
) -> FlowSet:
    """A reproducible synthetic flow set on ``platform``.

    ``seed``/``set_index`` feed the deterministic seed-derivation scheme,
    so set *k* of a campaign is identical no matter how many sets are
    generated around it.

    >>> from repro.noc import Mesh2D, NoCPlatform
    >>> platform = NoCPlatform(Mesh2D(4, 4), buf=2)
    >>> fs = synthetic_flowset(platform, SyntheticConfig(num_flows=10), seed=1)
    >>> len(fs)
    10
    """
    rng = spawn_rng(seed, "synthetic", config.num_flows, set_index)
    flows = synthetic_flows(config, platform.topology.num_nodes, rng)
    return FlowSet(platform, flows)

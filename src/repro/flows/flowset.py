"""Flow sets: the traffic load Γ bound to a platform.

A :class:`FlowSet` validates the flows against the model assumptions
(unique names, unique priorities, enough virtual channels when the platform
declares a finite ``vc_count``), caches each flow's route and zero-load
latency ``C_i`` (Equation 1), and exposes the per-flow quantities the
analyses consume.
"""

from __future__ import annotations

import copy
from typing import Iterable, Iterator

from repro.flows.flow import RESPONSE_CAP, Flow
from repro.noc.platform import NoCPlatform


class FlowSet:
    """The set Γ of flows to be analysed on a given platform.

    Flows are exposed in priority order (highest priority, i.e. lowest
    ``P``, first), which is the order every response-time analysis
    processes them in.

    >>> from repro.noc import Mesh2D, NoCPlatform
    >>> platform = NoCPlatform(Mesh2D(2, 1), buf=2)
    >>> fs = FlowSet(platform, [Flow("a", 1, 100, 10, src=0, dst=1)])
    >>> fs.c("a")   # 1*1 routl? routl=0: linkl*3 + linkl*9
    12
    """

    def __init__(self, platform: NoCPlatform, flows: Iterable[Flow]):
        self.platform = platform
        ordered = sorted(flows, key=lambda f: f.priority)
        self._flows: tuple[Flow, ...] = tuple(ordered)
        self._by_name: dict[str, Flow] = {}
        self._routes: dict[str, tuple[int, ...]] = {}
        self._c: dict[str, int] = {}
        self._validate_and_bind()

    def _validate_and_bind(self) -> None:
        if not self._flows:
            raise ValueError("a flow set needs at least one flow")
        priorities: dict[int, str] = {}
        num_nodes = self.platform.topology.num_nodes
        for flow in self._flows:
            if flow.name in self._by_name:
                raise ValueError(f"duplicate flow name {flow.name!r}")
            if flow.priority in priorities:
                raise ValueError(
                    f"flows {priorities[flow.priority]!r} and {flow.name!r} share "
                    f"priority {flow.priority}; the model assigns one VC per "
                    "priority level, so priorities must be unique"
                )
            if not (0 <= flow.src < num_nodes and 0 <= flow.dst < num_nodes):
                raise ValueError(
                    f"{flow.name}: nodes ({flow.src}, {flow.dst}) outside "
                    f"{self.platform.topology!r}"
                )
            priorities[flow.priority] = flow.name
            self._by_name[flow.name] = flow
            route = self.platform.route(flow.src, flow.dst)
            self._routes[flow.name] = route
            c = self._c[flow.name] = self.platform.zero_load_latency(
                len(route), flow.length
            )
            if c > RESPONSE_CAP:
                raise ValueError(
                    f"{flow.name}: zero-load latency must be <= 2**60 "
                    f"cycles, got C={c}"
                )
        vc_count = self.platform.vc_count
        networked = sum(1 for f in self._flows if not f.is_local)
        if vc_count is not None and networked > vc_count:
            raise ValueError(
                f"{networked} networked flows need {networked} priority levels "
                f"but the platform only provides vc_count={vc_count} VCs"
            )

    # -- access -------------------------------------------------------------

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows)

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def flows(self) -> tuple[Flow, ...]:
        """All flows, highest priority first."""
        return self._flows

    def flow(self, name: str) -> Flow:
        """Look a flow up by name."""
        return self._by_name[name]

    def route(self, name: str) -> tuple[int, ...]:
        """The flow's route (ordered link ids), cached."""
        return self._routes[name]

    def c(self, name: str) -> int:
        """The flow's maximum zero-load latency ``C_i`` (Equation 1)."""
        return self._c[name]

    def higher_priority(self, name: str) -> tuple[Flow, ...]:
        """Flows with higher priority than ``name`` (lower ``P``)."""
        mine = self._by_name[name].priority
        return tuple(f for f in self._flows if f.priority < mine)

    # -- metrics ------------------------------------------------------------

    def total_utilization(self) -> float:
        """Sum over flows of ``C_i / T_i`` (a crude load indicator)."""
        return sum(self._c[f.name] / f.period for f in self._flows)

    def max_link_utilization(self) -> float:
        """Highest per-link utilisation ``Σ C_i/T_i`` over links.

        A value above 1.0 guarantees unschedulability (some link is
        overloaded); the experiment harness uses this as a fast filter and
        as a sanity metric when calibrating workloads.
        """
        per_link: dict[int, float] = {}
        for flow in self._flows:
            share = self._c[flow.name] / flow.period
            for link in self._routes[flow.name]:
                per_link[link] = per_link.get(link, 0.0) + share
        return max(per_link.values(), default=0.0)

    def on_platform(self, platform: NoCPlatform) -> "FlowSet":
        """Rebind the same flows to a different platform.

        Used throughout the experiments to compare buffer sizes: the flows
        (and their priorities) are identical, only ``buf(Ξ)`` changes.
        When the target platform differs from the current one *only* in
        buffer depths (same topology, routing, latencies, VC budget) the
        validated routes and zero-load latencies are carried over instead
        of being recomputed — the sweep campaigns rebind every random set
        onto several buffer variants.
        """
        mine = self.platform
        if (
            platform.topology is mine.topology
            and type(platform.routing) is type(mine.routing)
            and platform.linkl == mine.linkl
            and platform.routl == mine.routl
            and platform.vc_count == mine.vc_count
        ):
            clone = copy.copy(self)
            clone.platform = platform
            return clone
        return FlowSet(platform, self._flows)

    def __repr__(self) -> str:
        return f"FlowSet({len(self._flows)} flows on {self.platform!r})"

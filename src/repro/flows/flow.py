"""A single real-time traffic flow.

Flows are immutable value objects; everything derived from the platform
(route, zero-load latency) lives in :class:`repro.flows.flowset.FlowSet`,
so the same flows can be analysed on platforms with different buffer sizes
— exactly what the paper's IBN2/IBN100 comparisons do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True, slots=True)
class Flow:
    """A periodic or sporadic packet flow ``τ_i`` (paper Section II).

    Attributes
    ----------
    name:
        Human-readable identifier (unique within a flow set).
    priority:
        ``P_i`` — 1 is the highest priority, larger integers are lower.
        Priorities are unique within a flow set (one VC per priority level).
    period:
        ``T_i`` — minimum inter-release time, in cycles.
    deadline:
        ``D_i`` — relative deadline, in cycles; constrained ``D_i <= T_i``.
    jitter:
        ``J_i`` — maximum release jitter, in cycles.
    length:
        ``L_i`` — maximum packet length, in flits.
    src, dst:
        ``π_s_i`` and ``π_d_i`` — source and destination node indices.
    """

    name: str
    priority: int
    period: int
    length: int
    src: int
    dst: int
    deadline: int | None = None
    jitter: int = 0

    def __post_init__(self):
        if self.priority < 1:
            raise ValueError(f"{self.name}: priority must be >= 1, got {self.priority}")
        if self.period < 1:
            raise ValueError(f"{self.name}: period must be >= 1 cycle, got {self.period}")
        if self.length < 1:
            raise ValueError(f"{self.name}: packets have >= 1 flit, got {self.length}")
        if self.jitter < 0:
            raise ValueError(f"{self.name}: jitter must be >= 0, got {self.jitter}")
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        if self.deadline < 1:
            raise ValueError(f"{self.name}: deadline must be >= 1, got {self.deadline}")
        if self.deadline > self.period:
            raise ValueError(
                f"{self.name}: constrained deadlines required "
                f"(D={self.deadline} > T={self.period}); the analyses dismiss "
                "self-interference on this assumption"
            )

    def with_priority(self, priority: int) -> "Flow":
        """Copy of this flow with a different priority level."""
        return replace(self, priority=priority)

    def with_mapping(self, src: int, dst: int) -> "Flow":
        """Copy of this flow with different source/destination nodes.

        Used by the Figure 5 experiment, which maps the same application
        onto many topologies.
        """
        return replace(self, src=src, dst=dst)

    @property
    def is_local(self) -> bool:
        """True when source and destination coincide.

        Local flows never enter the network: they have zero latency, meet
        any deadline, and impose no interference.  The AV mapping study
        produces many of these on small topologies.
        """
        return self.src == self.dst

    def utilization(self, zero_load_latency: int) -> float:
        """Network utilisation ``C_i / T_i`` given the flow's ``C_i``."""
        return zero_load_latency / self.period

    def __str__(self) -> str:
        return (
            f"{self.name}(P={self.priority}, T={self.period}, D={self.deadline}, "
            f"J={self.jitter}, L={self.length}, {self.src}→{self.dst})"
        )

"""Analysis strategy interface and the shared computation context.

Every analysis in this family instantiates the same outer recurrence
(paper Equation 5 shape)::

    R_i = C_i + Σ_{τj ∈ S^D_i} ⌈(R_i + J_j + jitter_term_ji) / T_j⌉ · (C_j + I^down_ji)

and differs only in two strategy points, which is exactly the interface
below:

* ``downstream_term(ctx, i, j)`` — the extra per-hit interference
  ``I^down_ji`` beyond τj's zero-load latency (0 for SB; Eq. 3 for XLWX;
  Eq. 8 with the buffer bound for IBN);
* ``indirect_jitter(ctx, i, j)`` — the jitter term added to τj's release
  jitter inside the ceiling (``J^I_j = R_j − C_j`` for SB/XLWX/IBN;
  the unsafe ``I^up_ji`` for XLW16).

The :class:`AnalysisContext` carries everything already computed for
higher-priority flows: converged response times, per-pair hit terms and
per-pair total interference contributions.  The engine fills it in
priority order, so an analysis can rely on all τj/τk quantities being
present when a lower-priority flow is processed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.core.interference import InterferenceGraph
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet


@dataclass
class AnalysisContext:
    """Mutable state threaded through one analysis run.

    Indices are priority-order indices from the
    :class:`~repro.core.interference.InterferenceGraph` (0 = highest
    priority).  ``hit_term[(i, j)]`` is the per-hit cost ``C_j + I^down_ji``
    used in τi's recurrence; ``total[(i, j)]`` is τj's total converged
    contribution to ``R_i`` — the ``I_kj`` of the paper's Equation 3.
    """

    flowset: FlowSet
    graph: InterferenceGraph
    flows: tuple[Flow, ...] = field(init=False)
    c: list[int] = field(init=False)
    #: per-flow ``T_j`` / ``J_j`` as parallel arrays, so the hot loops in
    #: the engine and the analyses index lists instead of touching Flow
    #: attributes.
    period: list[int] = field(init=False)
    jitter: list[int] = field(init=False)
    response: dict[int, int] = field(default_factory=dict)
    hit_term: dict[tuple[int, int], int] = field(default_factory=dict)
    total: dict[tuple[int, int], int] = field(default_factory=dict)
    #: memo for IBN's downstream hit counts ``⌈(R_j + J_k)/T_k⌉`` — the
    #: value depends only on (j, k), not on the analysed flow τi, so it is
    #: shared across every τi having τj as a direct interferer.
    downstream_hits: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Equation 6's per-link factor ``buf·linkl`` on homogeneous platforms
    #: (None when per-router depths differ and the per-link sum applies).
    bi_unit: int | None = field(init=False)

    def __post_init__(self):
        self.flows = self.flowset.flows
        self.c = [self.flowset.c(f.name) for f in self.flows]
        self.period = [f.period for f in self.flows]
        self.jitter = [f.jitter for f in self.flows]
        platform = self.flowset.platform
        self.bi_unit = (
            platform.buf * platform.linkl if platform.is_homogeneous else None
        )

    def interference_jitter(self, j: int) -> int:
        """``J^I_j = R_j − C_j`` (the fix of Indrusiak et al. [6])."""
        return self.response[j] - self.c[j]

    def buffered_interference(self, i: int, j: int) -> int:
        """Paper Equation 6: ``bi_ij = buf(Ξ) · linkl(Ξ) · |cd_ij|``.

        The time for one full contention domain's worth of buffered τj
        flits to drain past τi — the paper's cap on how much already-seen
        interference a single downstream hit can replay.

        On heterogeneous platforms (per-router ``buf_map``) the product
        generalises to a per-link sum,
        ``linkl · Σ_{λ ∈ cd_ij} buf(λ)``, which reduces to the paper's
        formula when all routers share one depth.
        """
        if self.bi_unit is not None:
            return self.bi_unit * self.graph.cd_size_by_index(i, j)
        platform = self.flowset.platform
        return platform.linkl * sum(
            platform.buf_of_link(link)
            for link in self.graph.cd_links_by_index(i, j)
        )


class Analysis(ABC):
    """A response-time analysis, expressed as the two strategy points that
    differentiate the members of this analysis family."""

    #: short identifier used in tables and plots ("SB", "XLWX", ...)
    name: str = "?"
    #: True for analyses known to be optimistic under MPB (SB, XLW16);
    #: their results are presented for comparison, never as guarantees.
    unsafe: bool = False

    @abstractmethod
    def downstream_term(self, ctx: AnalysisContext, i: int, j: int) -> int:
        """``I^down_ji``: per-hit interference beyond ``C_j`` (>= 0)."""

    def indirect_jitter(self, ctx: AnalysisContext, i: int, j: int) -> int:
        """Jitter term (beyond ``J_j``) in τj's ceiling for τi's recurrence.

        Defaults to the interference jitter ``J^I_j = R_j − C_j`` used by
        SB, XLWX and IBN.
        """
        return ctx.interference_jitter(j)

    def label(self, platform_buf: int | None = None) -> str:
        """Display label; IBN overrides to carry the buffer size (IBN2...)."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"

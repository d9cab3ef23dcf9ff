"""IBN: the paper's buffer-aware analysis (Equations 6-8).

The key observation: the interference a τj packet replays onto τi beyond
``C_j`` consists of τj flits *buffered inside their contention domain*
``cd_ij``.  Each downstream hit by an indirectly interfering τk can build
up at most one full contention domain's worth of buffered flits, so the
replayed interference per hit is bounded by Equation 6::

    bi_ij = buf(Ξ) · linkl(Ξ) · |cd_ij|

Equation 8 then charges, for every downstream hit (counted with τk's
period over τj's response window), the smaller of the buffer bound and the
XLWX-style downstream cost::

    I^down_ji = Σ_{τk ∈ S^{down_j}_{I_i}} ⌈(R_j + J_k)/T_k⌉ · min(bi_ij, C_k + I^down_kj)

Equation 8 can be optimistic when τj suffers *both* upstream and
downstream indirect interference (its packets arrive "chopped-up" into the
contention domain, so buffered-flit accounting no longer telescopes).  The
paper's application rule therefore falls back to XLWX's Equation 3 for
such τj — making IBN tighter than, and never looser than, XLWX.

Two knobs are exposed for ablation studies (defaults follow the paper):

* ``upstream_rule="pairwise"`` uses the paper's formal set
  ``S^{up_j}_{I_i}`` to decide the fallback; ``"any_upstream"`` is a more
  conservative variant that also counts *direct* interferers of τi hitting
  τj upstream of ``cd_ij``;
* ``use_buffer_bound=False`` disables the ``min`` (degenerating to a
  hit-recounted XLWX term), useful to isolate where the tightness comes
  from.
"""

from __future__ import annotations

from repro.core.analyses.base import Analysis, AnalysisContext


class IBNAnalysis(Analysis):
    """The paper's analysis: buffer-aware MPB bounds, tighter than XLWX."""

    name = "IBN"
    unsafe = False

    def __init__(
        self,
        *,
        upstream_rule: str = "pairwise",
        use_buffer_bound: bool = True,
    ):
        if upstream_rule not in ("pairwise", "any_upstream"):
            raise ValueError(
                f"unknown upstream_rule {upstream_rule!r}; "
                "expected 'pairwise' or 'any_upstream'"
            )
        self.upstream_rule = upstream_rule
        self.use_buffer_bound = use_buffer_bound

    def downstream_term(self, ctx: AnalysisContext, i: int, j: int) -> int:
        graph = ctx.graph
        row = graph.pair_row(i, j)
        downstream = graph.downstream_runs[row]
        if not downstream:
            return 0
        if graph.upstream_flags[row] or (
            self.upstream_rule == "any_upstream"
            and graph.any_direct_upstream[row]
        ):
            # Chopped-up arrival: buffered-interference accounting does not
            # hold, use XLWX's Equation 3 verbatim (same per-pair totals).
            totals = ctx.total
            fallback = 0
            for k in downstream:
                fallback += totals[(j, k)]
            return fallback
        bi = ctx.buffered_interference(i, j)
        r_j = ctx.response[j]
        periods, jitters = ctx.period, ctx.jitter
        hit_term, hits_memo = ctx.hit_term, ctx.downstream_hits
        use_bound = self.use_buffer_bound
        total = 0
        for k in downstream:
            key = (j, k)
            hits = hits_memo.get(key)
            if hits is None:
                hits = -(-(r_j + jitters[k]) // periods[k])
                hits_memo[key] = hits
            per_hit = hit_term[key]
            if use_bound and bi < per_hit:
                per_hit = bi
            total += hits * per_hit
        return total

    def label(self, platform_buf: int | None = None) -> str:
        """Paper-style label carrying the analysed buffer size (e.g. IBN2)."""
        if platform_buf is None:
            return self.name
        return f"{self.name}{platform_buf}"

    def __repr__(self) -> str:
        return (
            f"IBNAnalysis(upstream_rule={self.upstream_rule!r}, "
            f"use_buffer_bound={self.use_buffer_bound})"
        )

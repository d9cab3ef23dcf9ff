"""XLWX: Xiong et al. 2017 [13] with the fix of Indrusiak et al. [6].

The state of the art the paper improves on, and the only prior analysis
that is safe under MPB.  Its recurrence (paper Equation 5) charges every
hit of a direct interferer τj at ``C_j + I^down_ji``, where Equation 3::

    I^down_ji = Σ_{τk ∈ S^{down_j}_{I_i}} I_kj

adds the *entire* worst-case interference ``I_kj`` that each downstream
indirect interferer τk imposes on τj.  The intuition (paper Section IV):
the interference τj replays onto τi beyond ``C_j`` can never exceed the
amount of time τj itself was held up downstream of their shared links.

``I_kj`` is exactly τk's total converged contribution to τj's own
response-time recurrence, which the engine cached while processing τj
(all members of these sets have higher priority than τj, which in turn has
higher priority than τi, so the cache is always warm).
"""

from __future__ import annotations

from repro.core.analyses.base import Analysis, AnalysisContext


class XLWXAnalysis(Analysis):
    """Xiong et al. 2017 (corrected): safe but pessimistic under MPB."""

    name = "XLWX"
    unsafe = False

    def downstream_term(self, ctx: AnalysisContext, i: int, j: int) -> int:
        graph = ctx.graph
        totals = ctx.total
        term = 0
        for k in graph.downstream_runs[graph.pair_row(i, j)]:
            term += totals[(j, k)]
        return term

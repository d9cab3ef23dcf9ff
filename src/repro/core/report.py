"""Human-readable tables for analysis results.

These renderers back the examples and the benchmark harness output; they
print plain text so results are usable over SSH and in CI logs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.engine import AnalysisResult


def bound_cell(value: int | None) -> str:
    """A bound or slack as printed: ``-`` where the flow has no bound."""
    return "-" if value is None else str(value)


def _render_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for col, cell in enumerate(row):
            widths[col] = max(widths[col], len(cell))
    lines = [
        "  ".join(h.ljust(widths[col]) for col, h in enumerate(header)).rstrip(),
        "  ".join("-" * widths[col] for col in range(len(header))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def result_table(result: AnalysisResult) -> str:
    """Per-flow table for a single analysis run.

    >>> # doctest-free: exercised in tests/core/test_report.py
    """
    header = ["flow", "P", "C", "T", "D", "R", "slack", "verdict"]
    rows = []
    for flow_result in result.flows.values():
        flow = result.flowset.flow(flow_result.name)
        verdict = "ok" if flow_result.schedulable else "MISS"
        if not flow_result.converged:
            verdict = "MISS(>D)"
        if flow_result.tainted:
            verdict += "*"
        rows.append(
            [
                flow_result.name,
                str(flow_result.priority),
                str(flow_result.c),
                str(flow.period),
                str(flow_result.deadline),
                bound_cell(flow_result.response_time),
                bound_cell(flow_result.slack),
                verdict,
            ]
        )
    title = f"analysis {result.analysis_name}"
    if result.unsafe:
        title += "  (UNSAFE under MPB - reference only)"
    if not result.complete:
        title += "  (early exit: incomplete)"
    return f"{title}\n{_render_table(header, rows)}"


def explain_flow(result: AnalysisResult, name: str) -> str:
    """Render a flow's full interference tree.

    Shows every direct interferer τj with its hit count and per-hit cost,
    and — when the analysis carries MPB terms — decomposes each
    ``I^down_ji`` into the indirect interferers τk behind it, including
    their upstream/downstream classification and the buffered-interference
    cap of Equation 6.  Requires the result to have been produced with
    ``collect_breakdown=True``.
    """
    ctx = result.context
    if ctx is None:
        raise ValueError(
            "explain_flow needs a result produced with collect_breakdown=True"
        )
    flow_result = result.flows[name]
    if flow_result.response_time is None:
        cause = ("a direct interferer has none" if flow_result.tainted
                 else "no fixed point within its give-up")
        return (f"{name} under {result.analysis_name}: no bound, {cause} "
                f"(C = {flow_result.c}, D = {flow_result.deadline})")
    graph = ctx.graph
    i = graph.index(name)
    flow = result.flowset.flow(name)
    lines = [
        f"{name} under {result.analysis_name}: "
        f"R = {flow_result.response_time} "
        f"(C = {flow_result.c}, D = {flow_result.deadline}, "
        f"{'meets deadline' if flow_result.schedulable else 'MISSES deadline'})"
    ]
    if flow.is_local:
        lines.append("  local flow: never enters the network")
        return "\n".join(lines)
    if not flow_result.breakdown:
        lines.append("  no higher-priority flow shares a link: R = C")
        return "\n".join(lines)
    for term in flow_result.breakdown:
        j = graph.index(term.interferer)
        lines.append(
            f"  ← {term.interferer}: {term.hits} hit(s) × {term.hit_cost} "
            f"cycles = {term.total}  "
            f"(C_j = {ctx.c[j]}, I_down = {term.downstream_term}, "
            f"window jitter = {term.window_jitter})"
        )
        upstream, downstream = graph.updown_by_index(i, j)
        for k in upstream:
            k_name = graph.name(k)
            lines.append(
                f"      ↑ upstream indirect: {k_name} hits "
                f"{term.interferer} before cd({name}, {term.interferer})"
            )
        if downstream:
            bi = ctx.buffered_interference(i, j)
            for k in downstream:
                k_name = graph.name(k)
                per_hit = ctx.hit_term.get((j, k), 0)
                lines.append(
                    f"      ↓ downstream indirect: {k_name} "
                    f"(per-hit downstream cost {per_hit}, "
                    f"buffered-interference cap bi = {bi})"
                )
            if upstream:
                lines.append(
                    "      rule: upstream + downstream present -> "
                    "Equation 3 (XLWX fallback)"
                )
            elif result.analysis_name.startswith("IBN"):
                lines.append(
                    "      rule: no upstream interference -> Equation 8 "
                    "(min of cap and downstream cost per hit)"
                )
    return "\n".join(lines)


def comparison_table(results: Mapping[str, AnalysisResult]) -> str:
    """Side-by-side response-time table, one column per analysis.

    Mirrors the layout of the paper's Table II (flows as rows, analyses as
    columns).
    """
    if not results:
        raise ValueError("no results to tabulate")
    labels = list(results)
    first = results[labels[0]]
    names = list(first.flows)
    header = ["flow", "C", "T", "D"] + [f"R_{label}" for label in labels]
    rows = []
    for name in names:
        flow = first.flowset.flow(name)
        row = [
            name,
            str(first.flows[name].c),
            str(flow.period),
            str(flow.deadline),
        ]
        for label in labels:
            flow_result = results[label].flows.get(name)
            if flow_result is None:
                row.append("-")
            else:
                marker = "" if flow_result.schedulable else "!"
                row.append(bound_cell(flow_result.response_time) + marker)
        rows.append(row)
    return _render_table(header, rows)

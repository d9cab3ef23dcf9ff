"""Minimum-cost buffer allocation: the paper's bounds as a design tool.

The paper's central observation — IBN schedulability degrades
monotonically as per-VC buffers deepen (Equation 6 sums per-link depths
over each contention domain) — turns the inverse design question *"which
per-router buffer allocation keeps the flow set schedulable at the least
cost?"* into a pruned lattice search instead of exhaustive enumeration.
This module is that optimizer, plus the machinery that makes it
trustworthy:

* :func:`optimize_allocation` — exact search over heterogeneous
  ``buf_map`` assignments (the platform model of Giroudot & Mifdaoui's
  graph-based approach).  Candidates are ordered by cost and explored
  best-first; **verdict monotonicity** in every router's depth prunes
  dominated candidates (a candidate pointwise deeper than a known
  unschedulable one cannot be schedulable), and whole candidate
  frontiers are evaluated in one :func:`~repro.core.batch.analyze_batch`
  call so the batch engine — and the C backend behind it — does the
  heavy lifting.  A greedy descent from the cost-optimal corner
  (single-router decrements toward the schedulable all-shallow anchor)
  plus a local search (single-router moves, ±1 swap moves) supplies an
  incumbent that bounds the exact phase.
* :func:`exhaustive_allocation` — the deliberately dumb brute-force
  oracle: enumerate every depth vector, no pruning, no cost ordering.
  ``tests/core/test_allocate_oracle.py`` pins the optimizer to it.
* :func:`allocation_summary` — the JSON-able document shared verbatim
  by ``python -m repro allocate --json``, ``POST /allocate`` and the
  ``allocation`` campaign kind, so all three surfaces answer the same
  spec with the same bytes.

Cost models express the two directions a designer can care about:
``depth`` (silicon area: every flit of buffering costs) and
``shallowness`` (throughput: every flit *removed* below a target depth
costs — the paper's tension, where worst-case analysis pushes buffers
shallow while average-case performance wants them deep).  Both are
separable per router, which the search exploits.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.analyses import analysis_by_name
from repro.core.analyses.base import Analysis
from repro.core.analyses.ibn import IBNAnalysis
from repro.core.engine import is_schedulable
from repro.core.interference import InterferenceGraph
from repro.core.sizing import contention_pressure
from repro.flows.flowset import FlowSet

#: Cost-model kinds understood by :func:`cost_model_from_dict`.
COST_KINDS = ("depth", "shallowness")

#: Default batched-frontier width: how many distinct candidates one
#: :func:`~repro.core.batch.analyze_batch` round evaluates.  Internal
#: on purpose — every surface uses the same width, so the recorded
#: ``evaluations``/``frontiers`` counters are identical everywhere.
_FRONTIER_WIDTH = 16

#: Local-search rounds before the exact phase takes over.  The local
#: search only tightens the incumbent bound; optimality never depends
#: on it, so a small cap is safe.
_LOCAL_ROUNDS = 8


@dataclass(frozen=True)
class CostModel:
    """A separable per-router buffer cost ``cost(map) = Σ_r cost_r(d_r)``.

    ``kind="depth"``: ``cost_r(d) = w_r · d`` — buffering is silicon,
    every flit costs.  ``kind="shallowness"``: ``cost_r(d) = w_r ·
    max(0, target − d)`` — every flit *below* the throughput target
    costs, so the optimizer keeps buffers as deep as schedulability
    allows (the paper's design tension).  ``weights`` maps router →
    non-negative weight (default 1 everywhere).
    """

    kind: str
    target: int | None = None
    weights: Mapping[int, int | float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in COST_KINDS:
            raise ValueError(
                f"unknown cost-model kind {self.kind!r}; "
                f"choose from {', '.join(COST_KINDS)}"
            )
        if self.kind == "shallowness":
            if not isinstance(self.target, int) or isinstance(
                self.target, bool
            ) or self.target < 1:
                raise ValueError(
                    "shallowness cost model needs an integer target >= 1, "
                    f"got {self.target!r}"
                )
        elif self.target is not None:
            raise ValueError(
                f"cost model kind {self.kind!r} takes no target"
            )
        if self.weights is not None:
            for router, weight in self.weights.items():
                if not isinstance(router, int) or isinstance(router, bool):
                    raise ValueError(
                        f"cost-model weight key {router!r} is not a router "
                        "index"
                    )
                if (
                    isinstance(weight, bool)
                    or not isinstance(weight, (int, float))
                    or weight < 0
                ):
                    raise ValueError(
                        f"cost-model weight for router {router} must be a "
                        f"non-negative number, got {weight!r}"
                    )

    def weight_of(self, router: int) -> int | float:
        """The router's weight (1 unless ``weights`` overrides it)."""
        if self.weights is None:
            return 1
        return self.weights.get(router, 1)

    def router_cost(self, router: int, depth: int) -> int | float:
        """Cost contribution of one router holding ``depth`` flits."""
        if self.kind == "depth":
            return self.weight_of(router) * depth
        return self.weight_of(router) * max(0, self.target - depth)

    def allocation_cost(self, buf_map: Mapping[int, int]) -> int | float:
        """Total cost of a full per-router allocation."""
        return sum(
            self.router_cost(router, depth)
            for router, depth in buf_map.items()
        )

    def to_dict(self) -> dict:
        """Canonical JSON form (string router keys, stable shape)."""
        doc: dict[str, Any] = {"kind": self.kind}
        if self.kind == "shallowness":
            doc["target"] = self.target
        if self.weights:
            doc["weights"] = {
                str(router): weight
                for router, weight in sorted(self.weights.items())
            }
        return doc


def cost_model_from_dict(
    data: Mapping[str, Any] | CostModel | None,
    *,
    hi: int,
    num_routers: int | None = None,
) -> CostModel:
    """Validate an untrusted cost-model document into a :class:`CostModel`.

    ``None`` means the default model: ``shallowness`` with the search
    ceiling ``hi`` as its target — "keep every buffer as deep as the
    worst-case test allows".  Raises ``ValueError`` with a
    client-addressable message on malformed input (the serving layer
    maps that to HTTP 400).
    """
    if isinstance(data, CostModel):
        return data
    if data is None:
        return CostModel(kind="shallowness", target=hi)
    if not isinstance(data, Mapping):
        raise ValueError(f"cost model must be an object, got {data!r}")
    unknown = set(data) - {"kind", "target", "weights"}
    if unknown:
        raise ValueError(
            f"unknown cost-model field(s): {', '.join(sorted(unknown))}"
        )
    kind = data.get("kind", "shallowness")
    target = data.get("target")
    if kind == "shallowness" and target is None:
        target = hi
    weights_doc = data.get("weights")
    weights: dict[int, int | float] | None = None
    if weights_doc is not None:
        if not isinstance(weights_doc, Mapping):
            raise ValueError(
                f"cost-model weights must be an object, got {weights_doc!r}"
            )
        weights = {}
        for key, weight in weights_doc.items():
            try:
                router = int(key)
            except (TypeError, ValueError):
                raise ValueError(
                    f"cost-model weight key {key!r} is not a router index"
                ) from None
            if num_routers is not None and not 0 <= router < num_routers:
                raise ValueError(
                    f"cost-model weight names router {router}, but the "
                    f"platform has routers 0..{num_routers - 1}"
                )
            weights[router] = weight
    return CostModel(kind=kind, target=target, weights=weights)


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of an allocation search.

    ``feasible`` is False when even the all-shallow anchor misses a
    deadline (or the budget cannot cover ``lo`` flits per router);
    ``certified`` is True when the exact phase finished, so ``cost`` is
    *provably* the minimum (the brute-force oracle agrees).  A capped
    run (``max_evaluations``) that had to stop early returns its best
    incumbent with ``certified=False``.
    """

    feasible: bool
    certified: bool
    buf_map: dict[int, int] | None
    cost: int | float | None
    total_depth: int | None
    evaluations: int
    frontiers: int
    relevant: tuple[int, ...]


class _SearchBudgetExhausted(Exception):
    """Internal: the ``max_evaluations`` cap was hit mid-search."""


class _Frontier:
    """Batched, memoized, monotonicity-pruned schedulability evaluator.

    Keeps one buffer-agnostic interference graph for every candidate,
    a verdict cache keyed by the relevant-router depth tuple, and the
    two dominance lists the paper's monotonicity licenses: a candidate
    pointwise **deeper** than a known-unschedulable tuple is
    unschedulable; one pointwise **shallower** than a known-schedulable
    tuple is schedulable.  Unknown candidates are evaluated in batches
    through :func:`~repro.core.batch.analyze_batch` (scalar fallback
    beneath the tiny-round threshold), so one search round is one array
    program however wide the frontier.
    """

    def __init__(
        self,
        flowset: FlowSet,
        analysis: Analysis,
        relevant: tuple[int, ...],
        max_evaluations: int | None,
        graph: InterferenceGraph,
    ) -> None:
        self.flowset = flowset
        self.analysis = analysis
        self.relevant = relevant
        self.max_evaluations = max_evaluations
        self.graph = graph
        self.evaluations = 0
        self.frontiers = 0
        self._cache: dict[tuple[int, ...], bool] = {}
        self._unsat: list[tuple[int, ...]] = []
        self._sat: list[tuple[int, ...]] = []

    def verdict(self, depths: tuple[int, ...]) -> bool | None:
        """Cached/derived verdict for one candidate, None if unknown."""
        cached = self._cache.get(depths)
        if cached is not None:
            return cached
        for core in self._unsat:
            if all(d >= c for d, c in zip(depths, core)):
                self._cache[depths] = False
                return False
        for core in self._sat:
            if all(d <= c for d, c in zip(depths, core)):
                self._cache[depths] = True
                return True
        return None

    def _variant(self, depths: tuple[int, ...]) -> FlowSet:
        platform = self.flowset.platform
        buf_map = dict(zip(self.relevant, depths))
        return self.flowset.on_platform(
            platform.with_buffers(platform.buf, buf_map=buf_map or None)
        )

    def evaluate(self, candidates: list[tuple[int, ...]]) -> None:
        """Resolve every still-unknown candidate in one batched round."""
        todo: list[tuple[int, ...]] = []
        for depths in candidates:
            if self.verdict(depths) is None and depths not in todo:
                todo.append(depths)
        if not todo:
            return
        if (
            self.max_evaluations is not None
            and self.evaluations + len(todo) > self.max_evaluations
        ):
            raise _SearchBudgetExhausted()
        from repro.core.batch import (
            MIN_BATCH_FLOWS,
            Scenario,
            analyze_batch,
            batchable,
        )

        variants = [self._variant(depths) for depths in todo]
        stacked = sum(len(variant) for variant in variants)
        if batchable(self.analysis) and stacked >= MIN_BATCH_FLOWS:
            scenarios = [
                Scenario(variant, self.analysis, graph=self.graph)
                for variant in variants
            ]
            verdicts = [
                result.complete and result.schedulable
                for result in analyze_batch(scenarios, early_exit=True)
            ]
        else:
            verdicts = [
                is_schedulable(variant, self.analysis, graph=self.graph)
                for variant in variants
            ]
        self.evaluations += len(todo)
        self.frontiers += 1
        for depths, verdict in zip(todo, verdicts):
            self._cache[depths] = verdict
            (self._sat if verdict else self._unsat).append(depths)


def _depth_options(
    router: int, model: CostModel, lo: int, hi: int
) -> list[tuple[int | float, int]]:
    """One router's ``(cost, depth)`` choices, cheapest (then shallowest)
    first — the rank order the best-first search increments along."""
    return sorted(
        (model.router_cost(router, depth), depth)
        for depth in range(lo, hi + 1)
    )


def _irrelevant_options(
    routers: list[int],
    model: CostModel,
    lo: int,
    hi: int,
    budget: int | None,
) -> list[tuple[int | float, int, dict[int, int]]]:
    """Depth choices for the routers the verdict cannot see.

    Uncontended routers (no contention-domain link touches their
    buffers) never change the verdict, so they reduce to one aggregated
    pseudo-coordinate: each option is ``(cost, total_depth,
    assignment)``.  Without a budget only the per-router cost optimum
    matters; with one, a small DP yields the cheapest assignment for
    every achievable total, Pareto-pruned so deeper-but-not-cheaper
    totals never enter the search.
    """
    if not routers:
        return [(0, 0, {})]
    if budget is None:
        assignment = {
            router: min(
                range(lo, hi + 1),
                key=lambda depth: (model.router_cost(router, depth), depth),
            )
            for router in routers
        }
        cost = sum(
            model.router_cost(router, depth)
            for router, depth in assignment.items()
        )
        return [(cost, sum(assignment.values()), assignment)]
    # DP stage per router: total depth -> (cost, previous total, depth).
    stages: list[dict[int, tuple[int | float, int, int]]] = [{0: (0, 0, 0)}]
    for router in routers:
        stage: dict[int, tuple[int | float, int, int]] = {}
        for total, (cost, _prev, _depth) in stages[-1].items():
            for depth in range(lo, hi + 1):
                key = total + depth
                entry = (cost + model.router_cost(router, depth), total, depth)
                best = stage.get(key)
                if best is None or entry < best:
                    stage[key] = entry
        stages.append(stage)
    options: list[tuple[int | float, int, dict[int, int]]] = []
    best_cost: int | float | None = None
    for total in sorted(stages[-1]):
        cost = stages[-1][total][0]
        if best_cost is not None and cost >= best_cost:
            continue
        best_cost = cost
        assignment: dict[int, int] = {}
        cursor = total
        for index in range(len(routers) - 1, -1, -1):
            _cost, prev, depth = stages[index + 1][cursor]
            assignment[routers[index]] = depth
            cursor = prev
        options.append((cost, total, assignment))
    return sorted(options, key=lambda option: (option[0], option[1]))


class _Search:
    """Shared state of one :func:`optimize_allocation` run."""

    def __init__(
        self,
        flowset: FlowSet,
        analysis: Analysis,
        model: CostModel,
        lo: int,
        hi: int,
        budget: int | None,
        max_evaluations: int | None,
    ) -> None:
        self.model = model
        self.lo = lo
        self.hi = hi
        self.budget = budget
        graph = InterferenceGraph(flowset)
        pressure = contention_pressure(flowset, graph=graph)
        self.relevant = tuple(
            router for router in sorted(pressure) if pressure[router] > 0
        )
        self.pressure = pressure
        self.frontier = _Frontier(
            flowset, analysis, self.relevant, max_evaluations, graph
        )
        self.options = [
            _depth_options(router, model, lo, hi) for router in self.relevant
        ]
        irrelevant = [
            router
            for router in range(flowset.platform.topology.num_routers)
            if router not in pressure or pressure[router] == 0
        ]
        self.irrelevant_options = _irrelevant_options(
            irrelevant, model, lo, hi, budget
        )

    def rel_cost(self, depths: tuple[int, ...]) -> int | float:
        """Cost of the searched (contended) routers alone."""
        return sum(
            self.model.router_cost(router, depth)
            for router, depth in zip(self.relevant, depths)
        )

    def budget_ok(self, depths: tuple[int, ...], irr_rank: int) -> bool:
        """Does the full vector fit the total-depth budget?"""
        if self.budget is None:
            return True
        total = sum(depths) + self.irrelevant_options[irr_rank][1]
        return total <= self.budget

    def best_irr_rank(self, depths: tuple[int, ...]) -> int | None:
        """Cheapest pseudo-coordinate option fitting the budget."""
        for rank in range(len(self.irrelevant_options)):
            if self.budget_ok(depths, rank):
                return rank
        return None

    def result(
        self, depths: tuple[int, ...], irr_rank: int, certified: bool
    ) -> AllocationResult:
        """Materialise a full allocation from a search node."""
        irr_cost, _total, assignment = self.irrelevant_options[irr_rank]
        buf_map = dict(zip(self.relevant, depths))
        buf_map.update(assignment)
        buf_map = dict(sorted(buf_map.items()))
        return AllocationResult(
            feasible=True,
            certified=certified,
            buf_map=buf_map,
            cost=self.rel_cost(depths) + irr_cost,
            total_depth=sum(buf_map.values()),
            evaluations=self.frontier.evaluations,
            frontiers=self.frontier.frontiers,
            relevant=self.relevant,
        )

    def infeasible(self) -> AllocationResult:
        """The honest "nothing works" outcome."""
        return AllocationResult(
            feasible=False,
            certified=True,
            buf_map=None,
            cost=None,
            total_depth=None,
            evaluations=self.frontier.evaluations,
            frontiers=self.frontier.frontiers,
            relevant=self.relevant,
        )


def _greedy_incumbent(
    search: _Search,
) -> tuple[tuple[int, ...], int] | None:
    """Greedy descent + local search: a schedulable incumbent, fast.

    Start at the cost-optimal corner; while it fails the worst-case
    test, walk a ladder of single-router decrements (highest contention
    pressure first — where Equation 6 says depth hurts most) toward the
    all-shallow anchor, evaluating the whole ladder as batched
    frontiers.  Then a bounded local search (single-router moves and
    ±1 swap moves that reduce cost) polishes the incumbent.  Returns
    ``(relevant depths, irrelevant rank)`` or None when even the anchor
    fails the budget.
    """
    relevant = search.relevant
    start = tuple(options[0][1] for options in search.options)
    # Ladder: cyclic single-router decrements, pressure-first.
    order = sorted(relevant, key=lambda r: (-search.pressure[r], r))
    indices = {router: i for i, router in enumerate(relevant)}
    ladder = [start]
    current = list(start)
    moved = True
    while moved:
        moved = False
        for router in order:
            i = indices[router]
            if current[i] > search.lo:
                current[i] -= 1
                ladder.append(tuple(current))
                moved = True
    incumbent: tuple[tuple[int, ...], int] | None = None
    # Probe the cost-optimal corner alone first: when it passes (the
    # common unconstrained case) the whole ladder is moot.
    chunks = [ladder[:1]] + [
        ladder[start : start + _FRONTIER_WIDTH]
        for start in range(1, len(ladder), _FRONTIER_WIDTH)
    ]
    for chunk in chunks:
        search.frontier.evaluate(chunk)
        for depths in chunk:
            if not search.frontier.verdict(depths):
                continue
            rank = search.best_irr_rank(depths)
            if rank is not None:
                incumbent = (depths, rank)
                break
        if incumbent is not None:
            break
    if incumbent is None:
        return None

    def node_cost(node: tuple[tuple[int, ...], int]) -> int | float:
        depths, rank = node
        return search.rel_cost(depths) + search.irrelevant_options[rank][0]

    for _round in range(_LOCAL_ROUNDS):
        depths, _rank = incumbent
        bound = node_cost(incumbent)
        moves: set[tuple[int, ...]] = set()
        for i in range(len(relevant)):
            for depth in range(search.lo, search.hi + 1):
                if depth != depths[i]:
                    moves.add(depths[:i] + (depth,) + depths[i + 1 :])
        for i in range(len(relevant)):
            for j in range(len(relevant)):
                if i == j:
                    continue
                if depths[i] < search.hi and depths[j] > search.lo:
                    swapped = list(depths)
                    swapped[i] += 1
                    swapped[j] -= 1
                    moves.add(tuple(swapped))
        candidates = []
        for move in moves:
            rank = search.best_irr_rank(move)
            if rank is None:
                continue
            cost = search.rel_cost(move) + search.irrelevant_options[rank][0]
            if cost < bound:
                candidates.append((cost, move, rank))
        candidates.sort()
        if not candidates:
            break
        batch = [move for _cost, move, _rank in candidates[:_FRONTIER_WIDTH]]
        search.frontier.evaluate(batch)
        better = next(
            (
                (move, rank)
                for cost, move, rank in candidates[:_FRONTIER_WIDTH]
                if search.frontier.verdict(move)
            ),
            None,
        )
        if better is None:
            break
        incumbent = better
    return incumbent


def optimize_allocation(
    flowset: FlowSet,
    *,
    analysis: Analysis | None = None,
    lo: int = 1,
    hi: int = 8,
    cost_model: CostModel | Mapping[str, Any] | None = None,
    budget: int | None = None,
    max_evaluations: int | None = None,
) -> AllocationResult:
    """The minimum-cost schedulable per-router buffer allocation.

    Searches every assignment of depths in ``[lo, hi]`` to the
    platform's routers (``budget`` optionally caps the total depth
    across all routers) for the cheapest one the ``analysis`` deems
    schedulable.  Exact: when ``certified`` is True the returned cost
    is the true optimum — the property the brute-force oracle test
    enforces.  The search only branches on routers whose buffers back a
    contention-domain link (the only depths Equation 6 can see);
    uncontended routers take their cost-optimal depths directly.

    ``max_evaluations`` caps schedulability evaluations; a capped run
    returns the best incumbent found with ``certified=False``.

    >>> from repro.workloads.didactic import didactic_flowset
    >>> result = optimize_allocation(didactic_flowset(), hi=4)
    >>> result.feasible and result.certified
    True
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if budget is not None and (
        isinstance(budget, bool) or not isinstance(budget, int) or budget < 1
    ):
        raise ValueError(f"budget must be a positive integer, got {budget!r}")
    if max_evaluations is not None and max_evaluations < 1:
        raise ValueError(
            f"max_evaluations must be positive, got {max_evaluations!r}"
        )
    if analysis is None:
        analysis = IBNAnalysis()
    num_routers = flowset.platform.topology.num_routers
    model = cost_model_from_dict(cost_model, hi=hi, num_routers=num_routers)
    search = _Search(
        flowset, analysis, model, lo, hi, budget, max_evaluations
    )

    if budget is not None and budget < num_routers * lo:
        return search.infeasible()
    anchor = tuple(lo for _ in search.relevant)
    incumbent: tuple[tuple[int, ...], int] | None = None
    try:
        search.frontier.evaluate([anchor])
        if not search.frontier.verdict(anchor):
            return search.infeasible()
        incumbent = _greedy_incumbent(search)
        if incumbent is None:  # pragma: no cover - anchor passed above
            return search.infeasible()
        found = _best_first(search, incumbent)
    except _SearchBudgetExhausted:
        if incumbent is None:
            # The anchor passed (it is evaluated before anything can
            # raise) and its budget fit was established above.
            incumbent = (anchor, search.best_irr_rank(anchor))
        depths, rank = incumbent
        return search.result(depths, rank, certified=False)
    depths, rank = found
    return search.result(depths, rank, certified=True)


def _best_first(
    search: _Search, incumbent: tuple[tuple[int, ...], int]
) -> tuple[tuple[int, ...], int]:
    """Exact phase: pop candidates cheapest-first until one passes.

    Nodes are ``(rank per relevant router, pseudo-coordinate rank)``
    vectors; each coordinate's choices are pre-sorted by cost, so every
    successor (one rank incremented) costs at least its parent and the
    first schedulable, budget-feasible pop is provably optimal.
    Unknown verdicts are resolved in batched frontiers: the popped node
    plus the next queue entries are evaluated in one
    ``analyze_batch`` round and pushed back, preserving pop order.
    Candidates costing more than the greedy incumbent are never pushed
    — the incumbent itself stays reachable, so the search always
    terminates with an optimum.
    """
    options = search.options
    irr = search.irrelevant_options

    def key(node: tuple[int, ...]):
        depths = tuple(
            options[i][rank][1] for i, rank in enumerate(node[:-1])
        )
        cost = search.rel_cost(depths) + irr[node[-1]][0]
        return cost, depths

    inc_depths, inc_rank = incumbent
    inc_cost = search.rel_cost(inc_depths) + irr[inc_rank][0]
    start = tuple(0 for _ in options) + (0,)
    start_cost, start_depths = key(start)
    heap = [(start_cost, start_depths, start[-1], start)]
    seen = {start}
    best = incumbent
    while heap:
        cost, depths, irr_rank, node = heapq.heappop(heap)
        verdict = search.frontier.verdict(depths)
        if verdict is None:
            batch = [(cost, depths, irr_rank, node)]
            tuples = [depths]
            while heap and len(tuples) < _FRONTIER_WIDTH:
                entry = heapq.heappop(heap)
                batch.append(entry)
                if search.frontier.verdict(entry[1]) is None:
                    tuples.append(entry[1])
            search.frontier.evaluate(tuples)
            for entry in batch:
                heapq.heappush(heap, entry)
            continue
        if verdict and search.budget_ok(depths, irr_rank):
            return depths, irr_rank
        for i in range(len(node)):
            limit = len(irr) if i == len(node) - 1 else len(options[i])
            if node[i] + 1 >= limit:
                continue
            successor = node[:i] + (node[i] + 1,) + node[i + 1 :]
            if successor in seen:
                continue
            seen.add(successor)
            succ_cost, succ_depths = key(successor)
            if succ_cost > inc_cost:
                continue
            heapq.heappush(
                heap, (succ_cost, succ_depths, successor[-1], successor)
            )
    return best  # pragma: no cover - incumbent is always reachable


def exhaustive_allocation(
    flowset: FlowSet,
    *,
    analysis: Analysis | None = None,
    lo: int = 1,
    hi: int = 4,
    cost_model: CostModel | Mapping[str, Any] | None = None,
    budget: int | None = None,
) -> AllocationResult:
    """Brute-force oracle: every depth vector, no pruning, no ordering.

    Deliberately shares nothing with :func:`optimize_allocation`'s
    search — it enumerates the full ``(hi−lo+1)^num_routers`` grid and
    keeps the cheapest schedulable vector, which is what makes it a
    trustworthy referee in ``tests/core/test_allocate_oracle.py``.
    Exponential by design: keep it to small platforms.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if analysis is None:
        analysis = IBNAnalysis()
    platform = flowset.platform
    num_routers = platform.topology.num_routers
    model = cost_model_from_dict(cost_model, hi=hi, num_routers=num_routers)
    graph = InterferenceGraph(flowset)
    evaluations = 0
    best_cost: int | float | None = None
    best_map: dict[int, int] | None = None
    for combo in itertools.product(range(lo, hi + 1), repeat=num_routers):
        if budget is not None and sum(combo) > budget:
            continue
        buf_map = dict(enumerate(combo))
        cost = model.allocation_cost(buf_map)
        if best_cost is not None and cost >= best_cost:
            continue
        variant = flowset.on_platform(
            platform.with_buffers(platform.buf, buf_map=buf_map)
        )
        evaluations += 1
        if is_schedulable(variant, analysis, graph=graph):
            best_cost = cost
            best_map = buf_map
    if best_map is None:
        return AllocationResult(
            feasible=False,
            certified=True,
            buf_map=None,
            cost=None,
            total_depth=None,
            evaluations=evaluations,
            frontiers=0,
            relevant=tuple(range(num_routers)),
        )
    return AllocationResult(
        feasible=True,
        certified=True,
        buf_map=best_map,
        cost=best_cost,
        total_depth=sum(best_map.values()),
        evaluations=evaluations,
        frontiers=0,
        relevant=tuple(range(num_routers)),
    )


def allocation_summary(
    flowset: FlowSet,
    *,
    analysis_name: str = "ibn",
    lo: int = 1,
    hi: int = 8,
    cost_model: Mapping[str, Any] | CostModel | None = None,
    budget: int | None = None,
    max_evaluations: int | None = None,
) -> dict:
    """JSON-able allocation document, identical across every surface.

    The request-friendly face of :func:`optimize_allocation`, shared by
    ``python -m repro allocate --json``, ``POST /allocate`` and the
    ``allocation`` campaign kind — same spec in, same bytes out, which
    is what makes the endpoint cacheable and campaign resumes
    byte-identical.

    >>> from repro.workloads.didactic import didactic_flowset
    >>> doc = allocation_summary(didactic_flowset(), hi=4)
    >>> doc["allocation"]["feasible"], doc["allocation"]["certified"]
    (True, True)
    """
    num_routers = flowset.platform.topology.num_routers
    model = cost_model_from_dict(cost_model, hi=hi, num_routers=num_routers)
    result = optimize_allocation(
        flowset,
        analysis=analysis_by_name(analysis_name),
        lo=lo,
        hi=hi,
        cost_model=model,
        budget=budget,
        max_evaluations=max_evaluations,
    )
    return {
        "allocation": {
            "feasible": result.feasible,
            "certified": result.certified,
            "cost": result.cost,
            "total_depth": result.total_depth,
            "buf_map": (
                None
                if result.buf_map is None
                else {
                    str(router): depth
                    for router, depth in sorted(result.buf_map.items())
                }
            ),
        },
        "search": {
            "evaluations": result.evaluations,
            "frontiers": result.frontiers,
            "relevant_routers": list(result.relevant),
        },
        "spec": {
            "analysis": analysis_name,
            "lo": lo,
            "hi": hi,
            "budget": budget,
            "cost_model": model.to_dict(),
        },
    }

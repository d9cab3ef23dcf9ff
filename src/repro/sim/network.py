"""Mutable network state: VC buffers, credits, routing tables, sources.

The state model follows the paper's Fig. 1 router:

* every link that ends at a router (injection links and router-to-router
  links) terminates in a per-VC FIFO input buffer of depth ``buf(Ξ)``;
  since every flow owns a distinct priority — hence a distinct VC — buffers
  are keyed ``(link_id, flow_index)``;
* the sender on a link holds a **credit counter** per VC, initialised to
  the downstream buffer depth: it is decremented when a flit is sent
  (reserving the slot) and incremented, after ``credit_delay`` cycles,
  when a flit leaves the downstream buffer;
* ejection links end at a node's sink, which consumes flits at link rate
  (no credit, no buffer);
* routing is static per flow (deterministic XY), so the per-router routing
  decision is a precomputed "next link" lookup; the header still pays
  ``routl`` cycles at every router before becoming eligible, which is how
  Equation 1's ``routl·(|route|−1)`` term arises in simulation.

Hot-path layout (see DESIGN.md, "Simulation performance"): every
``(link, flow)`` pair maps to the flat **slot** ``link * num_flows +
flow``, and all per-VC quantities live in flat lists indexed by slot —
``credits`` (integer credit counters), ``buffers`` (a deque per slot on
some flow's route, ``None`` elsewhere) and ``next_of`` (id of the link a
flit leaving this buffer is forwarded on).  The slot-indexed tables are
immutable per ``(flowset, platform)`` pair and cached on the flow set, so
repeated runs — the offset search fires thousands — only pay a
``list.copy`` of the credit template plus fresh deques.  ``occupied``
(non-empty buffer slots) and ``source_active`` (flows with queued
packets) are maintained incrementally by the simulator so arbitration
never rescans empty state.  The name-keyed, pair-keyed accessors of the
original implementation survive as thin wrappers over the arrays; the
simulator's inner loop bypasses them entirely.
"""

from __future__ import annotations

import weakref
from collections import deque

from repro.flows.flowset import FlowSet
from repro.noc.topology import LinkKind
from repro.sim.packet import Flit, Packet


class SimTables:
    """Immutable slot-indexed tables shared by every run of one flow set.

    Everything here depends only on the flow set and its platform — never
    on releases or elapsed time — which is what makes the cache safe.
    """

    __slots__ = (
        "num_flows", "num_links", "priority_of", "is_local", "flow_names",
        "first_link", "next_of", "route_slots", "capacity", "buffered",
        "ejection", "credit_template", "routes", "min_depth", "cext",
    )

    def __init__(self, flowset: FlowSet):
        platform = flowset.platform
        topology = platform.topology
        flows = flowset.flows
        nf = self.num_flows = len(flows)
        nl = self.num_links = topology.num_links
        self.priority_of = [f.priority for f in flows]
        self.is_local = [f.is_local for f in flows]
        self.flow_names = [f.name for f in flows]
        self.buffered = [
            link.kind is not LinkKind.EJECTION for link in topology.links
        ]
        self.ejection = [not b for b in self.buffered]
        self.capacity = [platform.buf_of_link(link) for link in range(nl)]

        #: first route link per flow (-1 for local flows).
        self.first_link = [-1] * nf
        #: slot -> link the buffered flit is forwarded on (-1 off-route).
        self.next_of = [-1] * (nl * nf)
        #: slots that own a FIFO: every buffered route link of every flow.
        self.route_slots: list[int] = []
        self.routes: list[tuple[int, ...]] = []
        for index, flow in enumerate(flows):
            route = flowset.route(flow.name)
            self.routes.append(route)
            if not route:
                continue
            self.first_link[index] = route[0]
            for here, nxt in zip(route, route[1:]):
                slot = here * nf + index
                self.next_of[slot] = nxt
                self.route_slots.append(slot)
        #: smallest buffered depth on each flow's route (0 for local
        #: flows): the simulator's lone-packet test compares it once per
        #: flow and run.
        self.min_depth = [
            min(
                (self.capacity[link] for link in route if self.buffered[link]),
                default=0,
            )
            for route in self.routes
        ]

        #: per-slot initial credit = downstream buffer depth of the link.
        template = [0] * (nl * nf)
        for link in range(nl):
            base = link * nf
            depth = self.capacity[link]
            for flow in range(nf):
                template[base + flow] = depth
        self.credit_template = template
        #: lazily built flat-array mirror for the compiled backend
        #: (:meth:`repro.core.backend.CextBackend._sim_static`).
        self.cext = None


#: Per-flow-set table cache, keyed by instance identity so entries die
#: with their flow set and never leak into pickles (parallel searches
#: ship the bare flow set; each worker rebuilds its tables once).
_TABLE_CACHE: "weakref.WeakKeyDictionary[FlowSet, tuple]" = (
    weakref.WeakKeyDictionary()
)


def tables_for(flowset: FlowSet) -> SimTables:
    """The flow set's slot tables, built once per (flowset, platform).

    ``FlowSet.on_platform`` returns a distinct instance (cache miss), and
    the platform identity guard catches any in-place platform swap.
    """
    cached = _TABLE_CACHE.get(flowset)
    if cached is not None and cached[0] is flowset.platform:
        return cached[1]
    tables = SimTables(flowset)
    _TABLE_CACHE[flowset] = (flowset.platform, tables)
    return tables


class NetworkState:
    """All mutable wormhole state for one simulation run."""

    def __init__(self, flowset: FlowSet, *, credit_delay: int = 1):
        if credit_delay < 0:
            raise ValueError(f"credit_delay must be >= 0, got {credit_delay}")
        self.flowset = flowset
        self.platform = flowset.platform
        self.credit_delay = credit_delay
        tables = self.tables = tables_for(flowset)

        self.num_flows = tables.num_flows
        self.num_links = tables.num_links
        self.priority_of = tables.priority_of
        self.routes = tables.routes
        self.buffered_link = tables.buffered

        #: slot-indexed credit counters toward each downstream buffer.
        self.credits: list[int] = tables.credit_template.copy()
        #: slot-indexed FIFOs of ``(ready_time, flit_index, packet)``;
        #: only slots on some flow's route own a deque.
        self.buffers: list[deque | None] = [None] * (
            tables.num_links * tables.num_flows
        )
        for slot in tables.route_slots:
            self.buffers[slot] = deque()
        #: slots whose FIFO is currently non-empty.
        self.occupied: set[int] = set()
        #: per-flow source queue of released packets, FIFO.
        self.source_queue: list[deque[Packet]] = [
            deque() for _ in range(tables.num_flows)
        ]
        #: flows with at least one queued source packet.
        self.source_active: set[int] = set()
        #: flits of the head source packet already injected.
        self.injected_of_head: list[int] = [0] * tables.num_flows
        #: flits currently inside the network (buffers + in flight).
        self.flits_in_network = 0
        #: FIFO creation order, assigned on first enqueue per slot.  Only
        #: consulted when ``credit_delay == 0``, where instant credit
        #: returns make the arbitration *visit order* observable and the
        #: contract is to match the reference's dict-creation order.
        self.slot_seq: dict[int, int] = {}

    # -- compatibility accessors (tests, tools; not the simulator loop) ----

    @property
    def next_link(self) -> list[dict[int | None, int | None]]:
        """Name-free next-link tables in the original dict shape."""
        out: list[dict[int | None, int | None]] = []
        for route in self.routes:
            table: dict[int | None, int | None] = {}
            if route:
                table[None] = route[0]
                for here, nxt in zip(route, route[1:]):
                    table[here] = nxt
                table[route[-1]] = None
            out.append(table)
        return out

    # -- credits --------------------------------------------------------------

    def capacity(self, link_id: int) -> int:
        """Depth of the VC buffers at the downstream end of ``link_id``."""
        return self.tables.capacity[link_id]

    def credit(self, link_id: int, flow: int) -> int:
        """Remaining credit for sending flow ``flow`` onto ``link_id``."""
        return self.credits[link_id * self.num_flows + flow]

    def take_credit(self, link_id: int, flow: int) -> None:
        """Reserve one downstream buffer slot (a flit is being sent)."""
        slot = link_id * self.num_flows + flow
        if self.credits[slot] <= 0:
            raise AssertionError(
                f"sent on link {link_id} for flow {flow} without credit"
            )
        self.credits[slot] -= 1

    def return_credit(self, link_id: int, flow: int) -> None:
        """Free one downstream slot (a flit left the downstream buffer)."""
        slot = link_id * self.num_flows + flow
        self.credits[slot] += 1
        if self.credits[slot] > self.tables.capacity[link_id]:
            raise AssertionError(
                f"credit overflow on link {link_id} flow {flow}: "
                f"{self.credits[slot]} > buf={self.tables.capacity[link_id]}"
            )

    # -- buffers --------------------------------------------------------------

    def buffer(self, link_id: int, flow: int) -> deque:
        """The FIFO at the downstream end of ``link_id`` for one VC."""
        slot = link_id * self.num_flows + flow
        found = self.buffers[slot]
        if found is None:
            found = deque()
            self.buffers[slot] = found
        return found

    def enqueue_flit(
        self, link_id: int, flow: int, flit: Flit, ready_time: int
    ) -> None:
        """Flit arrives into the downstream buffer of ``link_id``."""
        dq = self.buffer(link_id, flow)
        if len(dq) >= self.tables.capacity[link_id]:
            raise AssertionError(
                f"buffer overflow on link {link_id} flow {flow}; "
                "credit flow control should prevent this"
            )
        dq.append((ready_time, flit.index, flit.packet))
        self.occupied.add(link_id * self.num_flows + flow)

    # -- sources --------------------------------------------------------------

    def release(self, packet: Packet) -> None:
        """A packet becomes ready at its source node."""
        self.source_queue[packet.flow_index].append(packet)
        self.source_active.add(packet.flow_index)

    def source_head_flit(self, flow: int) -> Flit | None:
        """Next flit awaiting injection for ``flow`` (None when idle)."""
        queue = self.source_queue[flow]
        if not queue:
            return None
        return Flit(queue[0], self.injected_of_head[flow])

    def pop_source_flit(self, flow: int) -> Flit:
        """Consume the next source flit, advancing the packet queue."""
        queue = self.source_queue[flow]
        packet = queue[0]
        flit = Flit(packet, self.injected_of_head[flow])
        self.injected_of_head[flow] += 1
        if self.injected_of_head[flow] == packet.length:
            queue.popleft()
            self.injected_of_head[flow] = 0
            if not queue:
                self.source_active.discard(flow)
        return flit

    # -- invariants -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """No flits buffered, in flight, or awaiting injection."""
        return (
            self.flits_in_network == 0
            and not self.source_active
            and not self.occupied
        )

    def check_buffer_occupancy(self) -> None:
        """Debug invariant: occupancy + credit == buf for every VC buffer.

        Only exact between credit-return events; tests call this on a
        drained network where it must hold everywhere.
        """
        nf = self.num_flows
        for slot, dq in enumerate(self.buffers):
            if dq is None:
                continue
            link_id, flow = divmod(slot, nf)
            capacity = self.tables.capacity[link_id]
            credit = self.credits[slot]
            if len(dq) + credit != capacity:
                raise AssertionError(
                    f"occupancy {len(dq)} + credit {credit} != buf "
                    f"{capacity} on link {link_id} flow {flow}"
                )

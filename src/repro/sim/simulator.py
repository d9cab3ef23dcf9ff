"""The cycle-accurate simulation loop.

Each cycle has strict phases:

1. apply scheduled events — flit arrivals (a flit sent at ``t`` occupies
   the downstream buffer, or the destination sink, at ``t + linkl``) and
   delayed credit returns;
2. apply packet releases due this cycle (local flows deliver immediately
   — they never enter the network).  A *lone packet* crosses in one
   step: when it is the only release due, the network is idle (no flit
   in place, no event pending) and every buffered link on its route has
   ``depth·linkl ≥ linkl + routl + credit_delay`` (so no credit ever
   throttles it), flit ``m`` leaves hop ``k`` at ``t0 + k·(linkl +
   routl) + m·linkl``; the tail reaches the sink at ``t0 + C_i``
   (Equation 1) and the last credit is back by ``t0 + C_i +
   max(0, credit_delay − linkl)``.  If that is no later than the next
   release and ``drain_limit``, the whole transit is applied at once and
   the clock moves straight to the next release.  Tracers, ``debug=True``
   and ``credit_delay == 0`` always take the cycle loop;
3. collect, per output link, the VCs whose head flit is ready (header
   routed, i.e. ``routl`` elapsed since arrival) and wants that link;
4. arbitrate every requested, non-busy link: the highest-priority
   candidate **with credit** sends one flit (paper Section II: a blocked
   higher-priority packet without credit yields the link to the next
   priority); sending reserves a downstream slot (credit decrement),
   frees the upstream slot (credit return to the previous link after
   ``credit_delay``) and occupies the link for ``linkl`` cycles;
5. advance time — straight to the next scheduled event or release (idle
   periods cost nothing; cycles in which every candidate is blocked are
   skipped the same way, since every unblocking is itself an event).

The loop ends when all releases are in, the network has drained and no
events remain, or when ``drain_limit`` is hit (overload guard).

Fast-lane implementation (see DESIGN.md, "Simulation performance"): the
event heap of the original simulator is replaced by three monotone
deques — every arrival is scheduled exactly ``linkl`` ahead, every
credit return exactly ``credit_delay`` ahead and every routing wake-up
``routl`` ahead, so each stream is already time-sorted and same-time
events commute; arbitration only visits the incrementally maintained
``occupied``/``source_active`` sets; per-link state is flat arrays; and
per-flit counters accumulate in flow/link-indexed arrays that are
rendered to name-keyed dicts once, at the result boundary.  Behaviour is
cycle-identical to :mod:`repro.sim._reference`, which the equivalence
suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections import deque

from repro.core import backend as _backend
from repro.flows.flowset import FlowSet
from repro.sim.network import NetworkState
from repro.sim.observer import LatencyObserver
from repro.sim.packet import Flit, Packet
from repro.sim.traffic import ReleasePlan

_NEVER = float("inf")


def _cross_idle(packet, route, step, linkl, busy_until, flits_per_link):
    """Apply a lone packet's whole transit of an idle network at once.

    Flit ``m`` leaves hop ``k`` at ``t0 + k·step + m·linkl`` (``step =
    linkl + routl``), so hop ``k``'s link carries all ``L`` flits and is
    busy until ``t0 + k·step + L·linkl``.
    """
    length = packet.length
    free = packet.release_time + length * linkl
    for link in route:
        busy_until[link] = free
        flits_per_link[link] += length
        free += step


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    observer: LatencyObserver
    released_packets: dict[str, int] = field(default_factory=dict)
    released_flits: dict[str, int] = field(default_factory=dict)
    delivered_flits: dict[str, int] = field(default_factory=dict)
    #: flit traversals per link id over the whole run.
    flits_per_link: dict[int, int] = field(default_factory=dict)
    end_time: int = 0
    drained: bool = True

    def worst_latency(self, flow_name: str) -> int:
        """Worst packet latency observed for a flow in this run."""
        return self.observer.worst_latency(flow_name)

    def link_utilization(self, link_id: int, linkl: int = 1) -> float:
        """Fraction of the run a link spent transmitting flits.

        Zero-length runs (nothing released, or truncated at time 0) and
        non-positive ``linkl`` consistently report 0.0 instead of
        dividing by zero.
        """
        if self.end_time <= 0 or linkl <= 0:
            return 0.0
        busy = self.flits_per_link.get(link_id, 0) * linkl
        return min(1.0, busy / self.end_time)

    def hottest_links(self, count: int = 5) -> list[tuple[int, int]]:
        """The ``count`` most-used links as (link_id, flits) pairs."""
        ranked = sorted(
            self.flits_per_link.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:count]

    def check_conservation(self) -> None:
        """Every released flit was delivered exactly once (drained runs)."""
        if not self.drained:
            raise AssertionError("conservation only meaningful after drain")
        for name, released in self.released_flits.items():
            delivered = self.delivered_flits.get(name, 0)
            if released != delivered:
                raise AssertionError(
                    f"{name}: released {released} flits but delivered {delivered}"
                )


class WormholeSimulator:
    """Cycle-accurate priority-preemptive wormhole NoC simulator.

    ``debug=True`` re-enables the per-flit conservation and occupancy
    invariants (credit underflow/overflow, buffer overflow, post-drain
    occupancy accounting) that the fast path otherwise skips; results are
    identical either way, debug runs are merely slower.

    >>> from repro.workloads import didactic_flowset
    >>> from repro.sim import single_shot
    >>> fs = didactic_flowset(buf=2)
    >>> sim = WormholeSimulator(fs, single_shot(at={"t3": 0}))
    >>> sim.run(release_horizon=1).worst_latency("t3")   # zero-load == C_3
    132
    """

    def __init__(
        self,
        flowset: FlowSet,
        releases: ReleasePlan,
        *,
        credit_delay: int = 1,
        observer: LatencyObserver | None = None,
        tracer=None,
        debug: bool = False,
    ):
        self.flowset = flowset
        self.releases = releases
        self.credit_delay = credit_delay
        self.observer = observer if observer is not None else LatencyObserver()
        #: optional :class:`repro.sim.trace.FlitTracer` receiving every send
        self.tracer = tracer
        self.debug = debug

    def run(
        self,
        release_horizon: int,
        *,
        drain_limit: int | None = None,
    ) -> SimulationResult:
        """Simulate all releases before ``release_horizon`` and drain.

        ``drain_limit`` bounds the total simulated time (default: horizon
        plus ten times the largest period, plenty for any schedulable
        scenario); hitting it marks the result ``drained=False``.
        """
        flowset = self.flowset
        platform = flowset.platform
        state = NetworkState(flowset, credit_delay=self.credit_delay)
        tables = state.tables
        observer = self.observer
        on_delivery = observer.on_delivery
        result = SimulationResult(observer=observer)
        linkl, routl = platform.linkl, platform.routl
        credit_delay = self.credit_delay
        tracer = self.tracer
        debug = self.debug

        nf = state.num_flows
        ejection = tables.ejection
        buffered = tables.buffered
        capacity = tables.capacity
        prio = tables.priority_of
        is_local = tables.is_local
        names = tables.flow_names
        first_link = tables.first_link
        next_of = tables.next_of
        credits = state.credits
        buffers = state.buffers
        occupied = state.occupied
        source_active = state.source_active
        source_queue = state.source_queue
        injected = state.injected_of_head
        slot_seq = state.slot_seq
        track_order = credit_delay == 0  # visit order is observable then

        if drain_limit is None:
            max_period = max(f.period for f in flowset.flows)
            drain_limit = release_horizon + 10 * max_period + 10 * linkl

        # All releases, globally sorted by time; per-flow counters live in
        # arrays and become name-keyed dicts only at the result boundary.
        released_packets = [0] * nf
        released_flits = [0] * nf
        delivered = [0] * nf
        flits_per_link = [0] * state.num_links
        pending: list[Packet] = []
        for index in range(nf):
            for packet in self.releases.releases(flowset, index, release_horizon):
                pending.append(packet)
                released_packets[index] += 1
                released_flits[index] += packet.length
        pending.sort(key=lambda p: (p.release_time, p.flow_index, p.seq))
        release_ptr = 0
        num_releases = len(pending)

        # Backend seam: a compiled backend can drain the whole event
        # loop in one call (byte-identical contract, enforced by the
        # equivalence suite).  Observation hooks the kernel cannot call
        # (tracers, per-packet records, observer subclasses) and debug
        # invariants keep the Python loop below.
        backend = _backend.get_backend()
        if (
            backend.sim_run is not None
            and tracer is None
            and not debug
            and type(observer) is LatencyObserver
            and not observer.keep_records
        ):
            done = backend.sim_run(
                tables,
                pending,
                linkl=linkl,
                routl=routl,
                credit_delay=credit_delay,
                drain_limit=drain_limit,
            )
            if done is not None:
                state.flits_in_network = done["flits_in_network"]
                result.end_time = done["end_time"]
                result.drained = done["drained"]
                worst = done["worst"]
                obs_worst = observer.worst
                for index, count in enumerate(done["delivered_pkts"]):
                    if count:
                        name = names[index]
                        observer.delivered[name] += int(count)
                        latency = int(worst[index])
                        if latency > obs_worst.get(name, 0):
                            obs_worst[name] = latency
                result.released_packets = {
                    names[i]: count
                    for i, count in enumerate(released_packets) if count
                }
                result.released_flits = {
                    names[i]: count
                    for i, count in enumerate(released_flits) if count
                }
                result.delivered_flits = {
                    names[i]: int(count)
                    for i, count in enumerate(done["delivered_flits"])
                    if count
                }
                result.flits_per_link = {
                    link: int(count)
                    for link, count in enumerate(done["flits_per_link"])
                    if count
                }
                return result

        # Three monotone event streams instead of one heap: each kind is
        # scheduled a *fixed* distance ahead of the non-decreasing clock,
        # so append order is time order and pops are O(1).
        arrive_q: deque = deque()   # (time, out_link, flow, flit_idx, packet)
        credit_q: deque = deque()   # (time, slot)
        wake_q: deque = deque()     # bare times, coalesced on push

        busy_until = [0] * state.num_links
        flits_in_network = 0
        now = 0

        # Lone-packet jump (module docstring, phase 2): flows whose every
        # buffered route link is deep enough that a packet travelling
        # alone never waits for a credit.  Observation hooks that see
        # each send, debug invariants and in-cycle credit returns keep
        # the cycle loop.
        lone = None
        if tracer is None and not debug and credit_delay >= 1:
            need = linkl + routl + credit_delay
            lone = [depth * linkl >= need for depth in tables.min_depth]
        routes = tables.routes
        step = linkl + routl
        tail_credit = max(0, credit_delay - linkl)
        cross_idle = _cross_idle

        _BIG = 1 << 60

        def _discovery_key(entry: tuple[int, list[int]]) -> int:
            """Reference visit order: FIFO-creation order, then sources."""
            best = _BIG << 1
            for cand in entry[1]:
                key = (
                    slot_seq.get(cand, _BIG)
                    if cand >= 0
                    else _BIG + (-1 - cand)
                )
                if key < best:
                    best = key
            return best

        while True:
            if now > drain_limit:
                result.drained = False
                break
            if (
                release_ptr >= num_releases
                and not arrive_q
                and not credit_q
                and not wake_q
                and flits_in_network == 0
                and not source_active
            ):
                break

            # Phase 1: events due.  Same-timestamp events commute (they
            # touch disjoint state), so the three streams drain in any
            # order.
            while arrive_q and arrive_q[0][0] <= now:
                _, out, flow, fidx, packet = arrive_q.popleft()
                if ejection[out]:
                    flits_in_network -= 1
                    delivered[flow] += 1
                    if fidx == packet.length - 1:
                        on_delivery(names[flow], packet, now)
                else:
                    slot = out * nf + flow
                    dq = buffers[slot]
                    if debug and len(dq) >= capacity[out]:
                        raise AssertionError(
                            f"buffer overflow on link {out} flow {flow}; "
                            "credit flow control should prevent this"
                        )
                    if fidx == 0 and routl:
                        ready = now + routl
                        if not wake_q or wake_q[-1] != ready:
                            wake_q.append(ready)
                    else:
                        ready = now
                    dq.append((ready, fidx, packet))
                    if len(dq) == 1:
                        occupied.add(slot)
                        if track_order and slot not in slot_seq:
                            slot_seq[slot] = len(slot_seq)
            while credit_q and credit_q[0][0] <= now:
                slot = credit_q.popleft()[1]
                credits[slot] += 1
                if debug and credits[slot] > capacity[slot // nf]:
                    raise AssertionError(
                        f"credit overflow on link {slot // nf} flow "
                        f"{slot % nf}: {credits[slot]} > "
                        f"buf={capacity[slot // nf]}"
                    )
            while wake_q and wake_q[0] <= now:
                wake_q.popleft()

            # Phase 2: releases due now, a lone packet in one step.
            if (
                flits_in_network == 0
                and lone is not None
                and release_ptr < num_releases
                and not source_active
                and not arrive_q
                and not credit_q
                and not wake_q
            ):
                packet = pending[release_ptr]
                flow = packet.flow_index
                if lone[flow] and packet.release_time <= now:
                    route = routes[flow]
                    arrival = (
                        now + (len(route) - 1) * step + packet.length * linkl
                    )
                    last = arrival + tail_credit
                    after = release_ptr + 1
                    nxt = (
                        pending[after].release_time
                        if after < num_releases else last
                    )
                    if last <= nxt and last <= drain_limit:
                        release_ptr = after
                        cross_idle(
                            packet, route, step, linkl, busy_until,
                            flits_per_link,
                        )
                        delivered[flow] += packet.length
                        on_delivery(names[flow], packet, arrival)
                        now = nxt
                        continue
            while (
                release_ptr < num_releases
                and pending[release_ptr].release_time <= now
            ):
                packet = pending[release_ptr]
                release_ptr += 1
                flow = packet.flow_index
                if is_local[flow]:
                    on_delivery(names[flow], packet, now)
                    delivered[flow] += packet.length
                else:
                    source_queue[flow].append(packet)
                    source_active.add(flow)

            # Phase 3: collect per-link requests.  Buffer candidates are
            # encoded as their slot, source candidates as ``-1 - flow``.
            requests: dict[int, list[int]] = {}
            for slot in occupied:
                dq = buffers[slot]
                if dq[0][0] > now:
                    continue
                out = next_of[slot]
                cands = requests.get(out)
                if cands is None:
                    requests[out] = [slot]
                else:
                    cands.append(slot)
            for flow in source_active:
                out = first_link[flow]
                cands = requests.get(out)
                if cands is None:
                    requests[out] = [-1 - flow]
                else:
                    cands.append(-1 - flow)

            # Phase 4: arbitration + sends.  With a delayed credit return
            # the links' arbitrations are independent, so visit order is
            # free; with credit_delay == 0 an upstream credit comes back
            # within the cycle and the order is observable — then links
            # are visited in the reference's discovery order (buffers in
            # FIFO-creation order, then sources in flow order).
            items = requests.items()
            if track_order and len(requests) > 1:
                items = sorted(items, key=_discovery_key)
            sent_any = False
            for out, cands in items:
                if busy_until[out] > now:
                    continue
                needs_credit = buffered[out]
                base = out * nf
                best = None
                best_prio = 1 << 60
                for cand in cands:
                    flow = cand % nf if cand >= 0 else -1 - cand
                    p = prio[flow]
                    if p < best_prio:
                        if needs_credit and credits[base + flow] <= 0:
                            continue  # blocked upstream: yield priority
                        best = cand
                        best_prio = p
                        best_flow = flow
                if best is None:
                    continue
                if best < 0:
                    # inject from the source queue
                    queue = source_queue[best_flow]
                    packet = queue[0]
                    fidx = injected[best_flow]
                    if fidx + 1 == packet.length:
                        queue.popleft()
                        injected[best_flow] = 0
                        if not queue:
                            source_active.discard(best_flow)
                    else:
                        injected[best_flow] = fidx + 1
                    flits_in_network += 1
                else:
                    dq = buffers[best]
                    _, fidx, packet = dq.popleft()
                    if not dq:
                        occupied.discard(best)
                    if credit_delay == 0:
                        credits[best] += 1
                    else:
                        credit_q.append((now + credit_delay, best))
                if needs_credit:
                    if debug and credits[base + best_flow] <= 0:
                        raise AssertionError(
                            f"sent on link {out} for flow {best_flow} "
                            "without credit"
                        )
                    credits[base + best_flow] -= 1
                arrive_q.append((now + linkl, out, best_flow, fidx, packet))
                busy_until[out] = now + linkl
                flits_per_link[out] += 1
                if tracer is not None:
                    tracer.on_send(
                        now, out, best_flow, Flit(packet, fidx),
                        None if best < 0 else best // nf,
                    )
                sent_any = True

            # Phase 5: advance time.  With delayed credit returns every
            # blocked candidate is unblocked by an *event* (the link
            # frees with the in-flight arrival, credit with its return,
            # readiness with its wake), so after a send the loop can jump
            # straight to the next event/release without skipping a send
            # opportunity.  With credit_delay == 0 a send returns credit
            # within the cycle — an unblocking no event records — so a
            # sending cycle must walk to now + 1 exactly like the
            # reference (for linkl == 1 the two coincide anyway: the
            # send's own arrival is due then).
            nt = _NEVER
            if arrive_q:
                nt = arrive_q[0][0]
            if credit_q and credit_q[0][0] < nt:
                nt = credit_q[0][0]
            if wake_q and wake_q[0] < nt:
                nt = wake_q[0]
            if (
                release_ptr < num_releases
                and pending[release_ptr].release_time < nt
            ):
                nt = pending[release_ptr].release_time
            if nt == _NEVER:
                if flits_in_network or source_active:
                    raise AssertionError(
                        f"network stalled at cycle {now} with flits in place "
                        "and no future events; arbitration bug"
                    )
                break
            # After a send the reference walks one cycle before jumping;
            # clamping the jump at the drain limit reproduces its
            # truncation point (and hence end_time) exactly.
            if sent_any and (track_order or nt > drain_limit):
                now += 1
            else:
                now = nt

        state.flits_in_network = flits_in_network
        if debug and result.drained:
            state.check_buffer_occupancy()
        result.end_time = now
        result.released_packets = {
            names[i]: count
            for i, count in enumerate(released_packets) if count
        }
        result.released_flits = {
            names[i]: count
            for i, count in enumerate(released_flits) if count
        }
        result.delivered_flits = {
            names[i]: count for i, count in enumerate(delivered) if count
        }
        result.flits_per_link = {
            link: count for link, count in enumerate(flits_per_link) if count
        }
        return result

"""The lone-packet jump: a packet alone in an idle network, in one step.

A packet released into an idle network, on a route where no buffer can
throttle it (every buffered link has ``depth·linkl ≥ linkl + routl +
credit_delay``), reaches its sink exactly ``C_i`` (Equation 1) after its
release; the Python loop applies such a transit at once instead of flit
by flit.  This module pins Equation 1 in simulation on every simulator,
the jump's edges against the frozen oracle on every backend, and which
runs may take the jump at all.
"""

import pytest

from repro.core import backend as backend_mod
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.sim import simulator as simulator_mod
from repro.sim._reference import ReferenceSimulator
from repro.sim.simulator import WormholeSimulator
from repro.sim.trace import FlitTracer
from repro.sim.traffic import PeriodicReleases, single_shot
from repro.sim.worstcase import offset_search
from repro.util.rng import spawn_rng
from repro.workloads.didactic import didactic_flowset
from tests.sim.test_simulator_equivalence import assert_equivalent

@pytest.fixture(
    params=backend_mod.available_backend_names(),
    ids=lambda name: f"backend-{name}",
)
def every_backend(request):
    with backend_mod.use_backend(request.param):
        yield request.param


@pytest.fixture
def jumps(monkeypatch):
    """Packets the Python loop sent through the jump, in order."""
    seen = []
    real = simulator_mod._cross_idle

    def spy(packet, *args):
        seen.append(packet)
        return real(packet, *args)

    monkeypatch.setattr(simulator_mod, "_cross_idle", spy)
    return seen


def last_event(flowset, name, release, credit_delay):
    """Release + C_i + the tail credit's lag behind the tail."""
    linkl = flowset.platform.linkl
    return release + flowset.c(name) + max(0, credit_delay - linkl)


def line_set(*, buf=2, linkl=1, routl=0, buf_map=None, flows=None):
    """Flows on a 4×2 mesh (routes 0→3 cross routers 1 and 2)."""
    platform = NoCPlatform(Mesh2D(4, 2), buf=buf, linkl=linkl, routl=routl,
                           buf_map=buf_map)
    if flows is None:
        flows = [Flow("a", priority=1, period=300, length=9, src=0, dst=3)]
    return FlowSet(platform, flows)


class TestEquationOneInSimulation:
    """A lone packet's latency is C_i, and the run ends at its last event."""

    @pytest.mark.parametrize(
        "seed,buf,linkl,routl,credit_delay",
        [
            (0, 2, 1, 0, 1),    # the validate platform, at the edge
            (1, 3, 2, 1, 2),
            (2, 4, 1, 2, 1),    # at the edge, routl > 0
            (3, 2, 3, 1, 2),    # at the edge, credit_delay < linkl
            (4, 5, 1, 0, 4),    # at the edge, credit_delay > linkl
            (5, 3, 2, 0, 4),    # at the edge, credit_delay > linkl
            (6, 10, 1, 3, 3),
            (7, 16, 2, 2, 1),
        ],
    )
    def test_single_shot_latency_is_c(self, seed, buf, linkl, routl,
                                      credit_delay, every_backend, jumps):
        assert buf * linkl >= linkl + routl + credit_delay
        rng = spawn_rng(seed, "lone-packet")
        cols, rows = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        self._check(
            NoCPlatform(Mesh2D(cols, rows), buf=buf, linkl=linkl,
                        routl=routl),
            rng, credit_delay, every_backend, jumps,
        )

    def test_heterogeneous_buf_map(self, every_backend, jumps):
        """Per-router depths of 3–7 flits, all at or above the
        condition's 3 (linkl 1, routl 1, credit_delay 1)."""
        rng = spawn_rng(8, "lone-packet")
        mesh = Mesh2D(4, 3)
        buf_map = {r: int(rng.integers(3, 8)) for r in range(mesh.num_routers)}
        assert len(set(buf_map.values())) > 1
        self._check(
            NoCPlatform(mesh, buf=9, linkl=1, routl=1, buf_map=buf_map),
            rng, 1, every_backend, jumps,
        )

    @staticmethod
    def _check(platform, rng, credit_delay, backend, jumps):
        nodes = platform.topology.num_nodes
        for _ in range(4):
            src = int(rng.integers(nodes))
            dst = int(rng.integers(nodes - 1))
            if dst >= src:
                dst += 1
            flow = Flow("f", priority=1, period=10**6,
                        length=int(rng.integers(1, 40)), src=src, dst=dst)
            flowset = FlowSet(platform, [flow])
            release = int(rng.integers(0, 50))
            expected_end = last_event(flowset, "f", release, credit_delay)
            plan = single_shot(at={"f": release})
            for simulator in (WormholeSimulator, ReferenceSimulator):
                result = simulator(
                    flowset, plan, credit_delay=credit_delay
                ).run(release + 1)
                assert result.worst_latency("f") == flowset.c("f")
                assert result.end_time == expected_end
                assert result.drained
        if backend == "numpy":
            assert jumps, "no lone packet took the jump"


class TestJumpEdges:
    """Cycle-identical to the oracle where the jump starts and stops."""

    @pytest.mark.parametrize(
        "buf,linkl,routl,credit_delay",
        [(2, 1, 0, 1), (3, 2, 0, 4), (3, 2, 1, 3), (4, 1, 2, 1),
         (2, 3, 2, 1)],
    )
    @pytest.mark.parametrize("slack", [-1, 0])
    def test_depth_condition_edge(self, buf, linkl, routl, credit_delay,
                                  slack, jumps, every_backend):
        """``depth·linkl`` exactly at, and one below, ``linkl + routl +
        credit_delay``: at it the packet runs at C_i, below it a credit
        stalls its source and the cycle loop carries it."""
        credit_delay -= slack  # one more cycle of credit lag: one below
        assert buf * linkl - (linkl + routl + credit_delay) == slack
        flowset = line_set(buf=buf, linkl=linkl, routl=routl)
        result = assert_equivalent(
            flowset, PeriodicReleases(), 1200, credit_delay=credit_delay
        )
        c = flowset.c("a")
        if slack == 0:
            assert result.worst_latency("a") == c
            assert len(jumps) == (4 if every_backend == "numpy" else 0)
        else:
            assert not jumps
            if routl == 0:  # no header wait downstream absorbs the stall
                assert result.worst_latency("a") > c

    def test_one_throttling_link(self, jumps, every_backend):
        """A one-flit router on the route stalls the packet there; a
        route that avoids it still takes the jump."""
        flowset = line_set(
            buf=4, buf_map={2: 1},
            flows=[
                Flow("through", priority=1, period=500, length=12, src=0,
                     dst=3),
                Flow("around", priority=2, period=700, length=12, src=0,
                     dst=1),
            ],
        )
        result = assert_equivalent(
            flowset,
            PeriodicReleases(offsets={"around": 250}),
            2000,
        )
        assert result.worst_latency("through") > flowset.c("through")
        assert result.worst_latency("around") == flowset.c("around")
        if every_backend == "numpy":
            assert {p.flow_index for p in jumps} == {1}
            assert len(jumps) == 3

    @pytest.mark.parametrize("credit_delay", [1, 2, 5])
    def test_one_flit_packets(self, credit_delay, jumps, every_backend):
        flowset = line_set(
            buf=8,
            flows=[
                Flow("a", priority=1, period=30, length=1, src=0, dst=3),
                Flow("b", priority=2, period=45, length=1, src=4, dst=2),
            ],
        )
        assert_equivalent(
            flowset, PeriodicReleases(offsets={"b": 7}), 400,
            credit_delay=credit_delay,
        )
        if every_backend == "numpy":
            assert jumps

    @pytest.mark.parametrize("linkl", [1, 2])
    def test_credit_delay_beyond_linkl(self, linkl, jumps, every_backend):
        """The run ends at the tail's credit return, after its arrival."""
        credit_delay = linkl + 3
        flowset = line_set(buf=6, linkl=linkl, routl=1)
        result = assert_equivalent(
            flowset, single_shot(at={"a": 4}), 10, credit_delay=credit_delay
        )
        assert result.end_time == last_event(flowset, "a", 4, credit_delay)
        assert result.end_time > 4 + flowset.c("a")
        assert len(jumps) == (every_backend == "numpy")

    @pytest.mark.parametrize("credit_delay", [1, 3])
    @pytest.mark.parametrize("early", [0, 1])
    def test_release_at_previous_last_event(self, credit_delay, early, jumps,
                                            every_backend):
        """Period equal to the lone transit: each packet is released at
        its predecessor's last event (every one jumps); one cycle
        shorter and they overlap (none after the first does)."""
        probe = line_set(buf=5, routl=1)
        period = last_event(probe, "a", 0, credit_delay) - early
        flowset = line_set(
            buf=5, routl=1,
            flows=[Flow("a", priority=1, period=period, length=9, src=0,
                        dst=3)],
        )
        result = assert_equivalent(
            flowset, PeriodicReleases(), 6 * period,
            credit_delay=credit_delay,
        )
        assert result.released_packets == {"a": 6}
        if every_backend == "numpy":
            assert len(jumps) == (6 if early == 0 else 0)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_drain_limit_around_last_event(self, offset, jumps,
                                           every_backend):
        """``drain_limit`` one below, at and one above the last event of
        a lone packet, alone and with a later release beyond the limit."""
        flowset = line_set(buf=3, linkl=2, routl=1)
        end = last_event(flowset, "a", 5, 3)
        for plan, horizon in (
            (single_shot(at={"a": 5}), 6),
            (PeriodicReleases(offsets={"a": 5}), 5 + 2 * 300),
        ):
            result = assert_equivalent(
                flowset, plan, horizon, credit_delay=3,
                drain_limit=end + offset,
            )
            assert result.drained == (offset >= 0 and horizon == 6)
        if every_backend == "numpy":
            assert len(jumps) == (0 if offset < 0 else 2)

    def test_two_releases_at_one_instant(self, jumps, every_backend):
        """Two packets released into an idle network at the same cycle
        take the cycle loop, even on disjoint routes."""
        flowset = line_set(
            buf=4,
            flows=[
                Flow("a", priority=1, period=400, length=9, src=0, dst=1),
                Flow("b", priority=2, period=400, length=9, src=6, dst=7),
            ],
        )
        result = assert_equivalent(
            flowset, PeriodicReleases(offsets={"a": 3, "b": 3}), 1200
        )
        assert result.worst_latency("a") == flowset.c("a")
        assert not jumps


class TestWhoJumps:
    """The jump is the numpy fast lane's default path for lone packets,
    and never runs where every send is observed or checked."""

    @pytest.fixture(autouse=True)
    def _python_loop(self):
        with backend_mod.use_backend("numpy"):
            yield

    def test_didactic_sweep_mostly_jumps(self, jumps):
        flowset = didactic_flowset(buf=10)
        search = offset_search(
            flowset, {"t1": range(0, 200, 25)}, release_horizon=6001
        )
        released = sum(
            len(list(PeriodicReleases(offsets={"t1": phase}).releases(
                flowset, index, 6001)))
            for phase in range(0, 200, 25)
            for index in range(len(flowset))
        )
        assert search.runs == 8
        assert len(jumps) > released / 2

    @pytest.mark.parametrize(
        "options",
        [{"tracer": FlitTracer()}, {"debug": True}, {"credit_delay": 0}],
        ids=["tracer", "debug", "credit_delay-0"],
    )
    def test_observed_runs_never_jump(self, options, jumps):
        flowset = didactic_flowset(buf=10)
        plan = PeriodicReleases(offsets={"t1": 100})
        WormholeSimulator(flowset, plan, **options).run(6001)
        assert not jumps
        WormholeSimulator(flowset, plan).run(6001)
        assert jumps  # the same run, unobserved

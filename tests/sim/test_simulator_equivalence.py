"""Fast simulator vs. the frozen oracle: cycle-identical behaviour.

The fast-lane simulator (flat arrays, monotone event deques, incremental
candidate sets) must reproduce the pre-optimisation simulator — kept
verbatim in :mod:`repro.sim._reference` — observation for observation:
per-flow worst latencies, delivered/released flit counts, per-link
traffic, end times and the drained flag, across workloads, release
phasings, credit delays and platform latencies.
"""

import pytest

from repro.campaigns.scheduler import Scheduler
from repro.campaigns.store import MemoryStore
from repro.core import backend as backend_mod
from repro.experiments.sim_jobs import expand_sim_chunks, fold_worst
from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.flows.priority import rate_monotonic
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D, chain
from repro.sim._reference import ReferenceSimulator
from repro.sim.simulator import WormholeSimulator
from repro.sim.traffic import PeriodicReleases, single_shot
from repro.sim.worstcase import offset_search, simulate_offsets
from repro.util.rng import spawn_rng
from repro.workloads.didactic import didactic_flowset


@pytest.fixture(
    autouse=True,
    params=backend_mod.available_backend_names(),
    ids=lambda name: f"backend-{name}",
)
def _every_backend(request):
    """Run the whole suite once per available backend — the frozen
    oracle never uses backend kernels, so each parametrization checks
    one backend's event drain against the same reference."""
    with backend_mod.use_backend(request.param):
        yield request.param


def assert_equivalent(flowset, plan, horizon, *, credit_delay=1,
                      drain_limit=None, debug=False):
    """Run both simulators and compare every observable outcome."""
    fast = WormholeSimulator(
        flowset, plan, credit_delay=credit_delay, debug=debug
    ).run(horizon, drain_limit=drain_limit)
    ref = ReferenceSimulator(flowset, plan, credit_delay=credit_delay).run(
        horizon, drain_limit=drain_limit
    )
    assert dict(fast.observer.worst) == dict(ref.observer.worst)
    assert dict(fast.observer.delivered) == dict(ref.observer.delivered)
    assert fast.released_packets == ref.released_packets
    assert fast.released_flits == ref.released_flits
    assert fast.delivered_flits == ref.delivered_flits
    assert fast.flits_per_link == ref.flits_per_link
    assert fast.end_time == ref.end_time
    assert fast.drained == ref.drained
    return fast


def random_scenario(seed, *, buf=2, linkl=1, routl=0, max_flows=6):
    """A small random flow set plus a random release phasing."""
    rng = spawn_rng(seed, "sim-equivalence")
    cols = int(rng.integers(2, 5))
    rows = int(rng.integers(1, 4))
    platform = NoCPlatform(Mesh2D(cols, rows), buf=buf, linkl=linkl,
                           routl=routl)
    nodes = platform.topology.num_nodes
    n = int(rng.integers(2, max_flows + 1))
    flows = []
    for index in range(n):
        src = int(rng.integers(nodes))
        dst = int(rng.integers(nodes - 1))
        if dst >= src:
            dst += 1
        flows.append(
            Flow(
                f"f{index}",
                priority=1,
                period=int(rng.integers(200, 2000)),
                length=int(rng.integers(2, 40)),
                src=src,
                dst=dst,
            )
        )
    flows = rate_monotonic(flows)
    flowset = FlowSet(platform, flows)
    offsets = {f.name: int(rng.integers(0, f.period)) for f in flows}
    return flowset, offsets


class TestDidacticEquivalence:
    """The paper's scenario, including the MPB-exposing phasings."""

    @pytest.mark.parametrize("buf", [2, 10])
    @pytest.mark.parametrize("offset", [0, 37, 120])
    def test_periodic_sweep_phases(self, buf, offset):
        flowset = didactic_flowset(buf=buf)
        assert_equivalent(
            flowset, PeriodicReleases(offsets={"t1": offset}), 6001
        )

    @pytest.mark.parametrize("credit_delay", [0, 1, 3])
    def test_credit_delays(self, credit_delay):
        flowset = didactic_flowset(buf=2)
        assert_equivalent(
            flowset,
            PeriodicReleases(offsets={"t1": 40}),
            6001,
            credit_delay=credit_delay,
        )

    def test_single_shot(self):
        flowset = didactic_flowset(buf=2)
        assert_equivalent(
            flowset, single_shot(at={"t1": 5, "t2": 0, "t3": 3}), 10
        )

    def test_debug_mode_identical(self):
        flowset = didactic_flowset(buf=10)
        result = assert_equivalent(
            flowset, PeriodicReleases(offsets={"t1": 0}), 6001, debug=True
        )
        result.check_conservation()


class TestRandomizedEquivalence:
    """Randomized meshes, flows, phasings and router parameters."""

    @pytest.mark.parametrize("seed", range(6))
    def test_default_parameters(self, seed):
        flowset, offsets = random_scenario(seed)
        horizon = 2 * max(f.period for f in flowset.flows)
        assert_equivalent(flowset, PeriodicReleases(offsets=offsets), horizon)

    @pytest.mark.parametrize(
        "seed,credit_delay,linkl,routl,buf",
        [
            (100, 0, 1, 0, 2),
            (101, 2, 2, 1, 4),
            (102, 0, 2, 2, 3),
            (103, 1, 1, 3, 2),
            (104, 3, 3, 0, 16),
            (105, 0, 1, 1, 1),
            # congested instant-credit cases: buf=1 keeps buffers full,
            # so in-cycle credit returns (credit_delay=0) actually gate
            # sends while slow links (linkl>1) separate the next event
            # from now+1 — the regime where the phase-5 jump must fall
            # back to the reference's one-cycle walk.
            (0, 0, 2, 0, 1),
            (106, 0, 2, 0, 1),
            (107, 0, 3, 1, 1),
            (108, 0, 2, 0, 2),
        ],
    )
    def test_parameter_space(self, seed, credit_delay, linkl, routl, buf):
        flowset, offsets = random_scenario(
            seed, buf=buf, linkl=linkl, routl=routl
        )
        horizon = 2 * max(f.period for f in flowset.flows)
        assert_equivalent(
            flowset,
            PeriodicReleases(offsets=offsets),
            horizon,
            credit_delay=credit_delay,
        )

    def test_truncated_run_matches(self):
        """drain_limit cuts both simulators at the same point."""
        platform = NoCPlatform(chain(4), buf=2)
        flowset = FlowSet(
            platform,
            [Flow("a", priority=1, period=50, length=10, src=0, dst=3)],
        )
        for limit in (0, 17, 55, 200):
            fast = assert_equivalent(
                flowset, PeriodicReleases(), 100, drain_limit=limit
            )
            assert not fast.drained or limit == 200

    def test_local_flows_equivalent(self):
        platform = NoCPlatform(Mesh2D(2, 2), buf=2)
        flowset = FlowSet(
            platform,
            [
                Flow("loc", priority=1, period=70, length=9, src=1, dst=1),
                Flow("net", priority=2, period=90, length=12, src=0, dst=3),
            ],
        )
        assert_equivalent(flowset, PeriodicReleases(), 400)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", range(40))
    def test_broad_sweep(self, seed):
        """Paper-scale randomized equivalence sweep (make test-slow)."""
        rng = spawn_rng(seed, "equiv-params")
        flowset, offsets = random_scenario(
            seed,
            buf=int(rng.integers(1, 20)),
            linkl=int(rng.integers(1, 4)),
            routl=int(rng.integers(0, 4)),
            max_flows=8,
        )
        horizon = 3 * max(f.period for f in flowset.flows)
        assert_equivalent(
            flowset,
            PeriodicReleases(offsets=offsets),
            horizon,
            credit_delay=int(rng.integers(0, 4)),
        )


class TestOffsetSearchEquivalence:
    """The pruned and the campaign-chunked searches equal the exhaustive
    serial sweep."""

    def test_search_matches_reference_maxima(self):
        flowset = didactic_flowset(buf=10)
        grid = {"t1": range(0, 200, 25)}
        search = offset_search(flowset, grid, release_horizon=6001)
        expected = {}
        for phase in grid["t1"]:
            run = ReferenceSimulator(
                flowset, PeriodicReleases(offsets={"t1": phase})
            ).run(6001)
            for name, latency in run.observer.worst.items():
                expected[name] = max(expected.get(name, 0), latency)
        assert search.worst == expected

    def test_sim_chunk_campaign_identical_to_serial(self):
        """Parallel searches run as ``sim_chunk`` jobs on the scheduler's
        pool; folded back in phasing order they equal the serial loop."""
        flowset = didactic_flowset(buf=2)
        grid = {"t1": range(0, 120, 15)}
        serial = offset_search(flowset, grid, release_horizon=6001)
        jobs, pruned = expand_sim_chunks(
            "equivalence", "didactic", {"kind": "didactic", "buf": 2},
            flowset, grid, 6001, chunk_size=3,
        )
        assert len(jobs) > 1 and pruned == serial.pruned
        results, stats = Scheduler(workers=2).run(jobs, MemoryStore())
        assert stats.jobs_run == len(jobs)
        chunks = [results[job.job_id] for job in jobs]
        assert fold_worst(chunks) == serial.worst
        assert sum(chunk["runs"] for chunk in chunks) == serial.runs

    def test_pruned_identical_to_exhaustive(self):
        flowset = didactic_flowset(buf=2)
        vary = {
            "t1": range(0, 60, 20),
            "t2": range(0, 60, 20),
            "t3": range(0, 60, 20),
        }
        full = offset_search(
            flowset, vary, release_horizon=6001, prune_shifts=False
        )
        pruned = offset_search(flowset, vary, release_horizon=6001)
        assert pruned.pruned > 0
        assert pruned.runs + pruned.pruned == full.runs
        assert pruned.worst == full.worst

    def test_single_phasing_matches_simulate_offsets(self):
        flowset = didactic_flowset(buf=2)
        direct = simulate_offsets(
            flowset, {"t1": 60}, release_horizon=6001
        )
        search = offset_search(
            flowset, {"t1": (60,)}, release_horizon=6001
        )
        assert search.worst == direct

    @pytest.mark.slow
    def test_paper_scale_didactic_search(self):
        """Every 4th τ1 phase, both buffer depths (make test-slow)."""
        for buf in (2, 10):
            flowset = didactic_flowset(buf=buf)
            grid = {"t1": range(0, 200, 4)}
            search = offset_search(flowset, grid, release_horizon=6001)
            expected = {}
            for phase in grid["t1"]:
                run = ReferenceSimulator(
                    flowset, PeriodicReleases(offsets={"t1": phase})
                ).run(6001)
                for name, latency in run.observer.worst.items():
                    expected[name] = max(expected.get(name, 0), latency)
            assert search.worst == expected

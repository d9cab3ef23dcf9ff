"""The Section VI synthetic generator: ranges, determinism, priorities."""

import numpy as np
import pytest

from repro.flows.flow import Flow
from repro.flows.flowset import FlowSet
from repro.flows.priority import rate_monotonic
from repro.noc.platform import NoCPlatform
from repro.noc.topology import Mesh2D
from repro.util.rng import spawn_rng
from repro.workloads.synthetic import (
    SyntheticConfig,
    synthetic_flows,
    synthetic_flowset,
)


class TestConfigValidation:
    def test_defaults_follow_the_paper(self):
        config = SyntheticConfig(num_flows=10)
        assert config.period_min_s == pytest.approx(0.5e-3)
        assert config.period_max_s == pytest.approx(0.5)
        assert (config.length_min, config.length_max) == (128, 4096)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_flows": 0},
            {"num_flows": 5, "period_min_s": 0.0},
            {"num_flows": 5, "period_min_s": 0.2, "period_max_s": 0.1},
            {"num_flows": 5, "length_min": 0},
            {"num_flows": 5, "length_min": 10, "length_max": 5},
            {"num_flows": 5, "clock_hz": 0},
            {"num_flows": 5, "clock_hz": 100},  # sub-cycle min period
        ],
    )
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticConfig(**kwargs)


class TestGeneration:
    @pytest.fixture
    def flows(self):
        rng = spawn_rng(7, "test-synth")
        return synthetic_flows(SyntheticConfig(num_flows=200), 16, rng)

    def test_count(self, flows):
        assert len(flows) == 200

    def test_period_range_in_cycles(self, flows):
        lo = 0.5e-3 * 10e6
        hi = 0.5 * 10e6
        assert all(lo - 1 <= f.period <= hi for f in flows)

    def test_length_range(self, flows):
        assert all(128 <= f.length <= 4096 for f in flows)
        assert {f.length for f in flows} != {flows[0].length}

    def test_deadlines_equal_periods(self, flows):
        assert all(f.deadline == f.period for f in flows)

    def test_no_jitter(self, flows):
        assert all(f.jitter == 0 for f in flows)

    def test_src_dst_distinct_by_default(self, flows):
        assert all(f.src != f.dst for f in flows)

    def test_rate_monotonic_priorities(self, flows):
        ordered = sorted(flows, key=lambda f: f.priority)
        periods = [f.period for f in ordered]
        assert periods == sorted(periods)
        assert [f.priority for f in ordered] == list(range(1, 201))

    def test_self_traffic_opt_in(self):
        rng = np.random.default_rng(0)
        config = SyntheticConfig(num_flows=300, allow_self_traffic=True)
        flows = synthetic_flows(config, 4, rng)
        assert any(f.src == f.dst for f in flows)

    def test_two_node_minimum(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            synthetic_flows(SyntheticConfig(num_flows=3), 1, rng)

    def test_log_uniform_shifts_mass_to_short_periods(self):
        rng_a = spawn_rng(3, "uniform")
        rng_b = spawn_rng(3, "log")
        uniform = synthetic_flows(SyntheticConfig(num_flows=400), 16, rng_a)
        log = synthetic_flows(
            SyntheticConfig(num_flows=400, log_uniform_periods=True), 16, rng_b
        )
        median = sorted(f.period for f in uniform)[200]
        median_log = sorted(f.period for f in log)[200]
        assert median_log < median


class TestDeterminism:
    def test_same_seed_same_set(self, platform4x4):
        a = synthetic_flowset(platform4x4, SyntheticConfig(num_flows=30), seed=9)
        b = synthetic_flowset(platform4x4, SyntheticConfig(num_flows=30), seed=9)
        assert a.flows == b.flows

    def test_set_index_varies(self, platform4x4):
        a = synthetic_flowset(
            platform4x4, SyntheticConfig(num_flows=30), seed=9, set_index=0
        )
        b = synthetic_flowset(
            platform4x4, SyntheticConfig(num_flows=30), seed=9, set_index=1
        )
        assert a.flows != b.flows

    def test_returns_bound_flowset(self, platform4x4):
        fs = synthetic_flowset(platform4x4, SyntheticConfig(num_flows=5), seed=1)
        assert isinstance(fs, FlowSet)
        assert len(fs) == 5


def _placeholder_then_rate_monotonic(config, num_nodes, rng):
    """The generator as it was: draw flows with placeholder priorities in
    draw order, then assign priorities with :func:`rate_monotonic`."""
    period_lo = config.period_min_s * config.clock_hz
    period_hi = config.period_max_s * config.clock_hz
    flows = []
    for index in range(config.num_flows):
        if config.log_uniform_periods:
            period = int(
                np.exp(rng.uniform(np.log(period_lo), np.log(period_hi)))
            )
        else:
            period = int(rng.uniform(period_lo, period_hi))
        period = max(period, 1)
        length = int(rng.integers(config.length_min, config.length_max + 1))
        src = int(rng.integers(num_nodes))
        if config.allow_self_traffic:
            dst = int(rng.integers(num_nodes))
        else:
            dst = int(rng.integers(num_nodes - 1))
            if dst >= src:
                dst += 1
        flows.append(Flow(name=f"f{index}", priority=index + 1,
                          period=period, deadline=period, jitter=0,
                          length=length, src=src, dst=dst))
    return rate_monotonic(flows)


#: (config, node count) draws: the paper's defaults, log-uniform periods,
#: self traffic, and two ranges where many or all periods tie.
_REFERENCE_CONFIGS = [
    (SyntheticConfig(num_flows=40), 16),
    (SyntheticConfig(num_flows=25, log_uniform_periods=True), 64),
    (SyntheticConfig(num_flows=30, allow_self_traffic=True), 4),
    (SyntheticConfig(num_flows=20, period_min_s=1e-3, period_max_s=1e-3), 9),
    (SyntheticConfig(num_flows=50, period_min_s=1e-6, period_max_s=4e-6), 16),
]


class TestRateMonotonicReference:
    @pytest.mark.parametrize("config, nodes", _REFERENCE_CONFIGS)
    def test_equals_rate_monotonic_over_placeholder_flows(self, config, nodes):
        """Flows built once with their final priority equal the old
        placeholder-then-:func:`rate_monotonic` flows, and the RNG ends in
        the same state, over 48 seeds per config (240 draws)."""
        for seed in range(48):
            rng = spawn_rng(seed, "rm-reference", config.num_flows)
            reference_rng = spawn_rng(seed, "rm-reference", config.num_flows)
            flows = synthetic_flows(config, nodes, rng)
            reference = _placeholder_then_rate_monotonic(
                config, nodes, reference_rng
            )
            assert flows == reference
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_tied_periods_order_by_name_as_strings(self):
        config = SyntheticConfig(
            num_flows=12, period_min_s=1e-3, period_max_s=1e-3
        )
        flows = synthetic_flows(config, 16, spawn_rng(1, "ties"))
        assert len({f.period for f in flows}) == 1
        # "f10" < "f11" < "f2": names compare as strings.
        assert [f.name for f in flows][:4] == ["f0", "f1", "f10", "f11"]
        assert [f.priority for f in flows] == list(range(1, 13))

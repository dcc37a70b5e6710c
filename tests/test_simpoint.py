"""Tests for the SimPoint pipeline (BBVs, selection, noisy estimation)."""

import numpy as np
import pytest

import repro.simpoint.simpoint as simpoint_module
from repro.cpu import MachineConfig, get_interval_simulator
from repro.cpu.interval import ApplicationProfile
from repro.obs import load_cached_arrays
from repro.simpoint import (
    SimPointSimulator,
    basic_block_vector,
    get_interval_profiles,
    interval_bbvs,
    random_projection,
    select_simpoints,
)
from repro.workloads import generate_trace

from .test_checkpoint import SENTINEL, hostile_cache_files
from .test_simulator import assert_profiles_identical

TRACE_LEN = 12_000
INTERVAL = 2_000


@pytest.fixture(scope="module")
def trace():
    return generate_trace("mesa", TRACE_LEN)


class TestBBV:
    def test_normalized(self, trace):
        n_blocks = int(trace.block_id.max()) + 1
        bbv = basic_block_vector(trace, n_blocks)
        assert bbv.sum() == pytest.approx(1.0)
        assert np.all(bbv >= 0)

    def test_interval_bbvs_shape(self, trace):
        matrix, bounds = interval_bbvs(trace, INTERVAL)
        assert matrix.shape[0] == len(bounds)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0)

    def test_different_phases_have_different_bbvs(self, trace):
        matrix, _ = interval_bbvs(trace, INTERVAL)
        first, last = matrix[0], matrix[-1]
        # mesa's two phases execute different static code
        assert np.linalg.norm(first - last) > 0.01

    def test_projection_reduces_dimensions(self, trace):
        matrix, _ = interval_bbvs(trace, INTERVAL)
        projected = random_projection(matrix, dimensions=15)
        assert projected.shape == (matrix.shape[0], 15)

    def test_projection_roughly_preserves_distances(self, trace):
        matrix, _ = interval_bbvs(trace, INTERVAL)
        projected = random_projection(matrix, dimensions=15)
        orig = np.linalg.norm(matrix[0] - matrix[-1])
        proj = np.linalg.norm(projected[0] - projected[-1])
        assert proj == pytest.approx(orig, rel=0.8)

    def test_projection_noop_when_small(self):
        small = np.random.default_rng(0).random((4, 8))
        assert random_projection(small, dimensions=15).shape == (4, 8)

    def test_projection_validation(self, trace):
        matrix, _ = interval_bbvs(trace, INTERVAL)
        with pytest.raises(ValueError):
            random_projection(matrix, dimensions=0)


class TestSelection:
    def test_weights_sum_to_one(self, trace):
        selection = select_simpoints(trace, INTERVAL)
        assert sum(selection.weights) == pytest.approx(1.0)
        assert selection.k == len(selection.points)

    def test_points_are_valid_intervals(self, trace):
        selection = select_simpoints(trace, INTERVAL)
        assert all(0 <= p < len(selection.intervals) for p in selection.points)
        assert len(set(selection.points)) == selection.k

    def test_simulated_fraction(self, trace):
        selection = select_simpoints(trace, INTERVAL)
        assert 0.0 < selection.simulated_fraction <= 1.0

    def test_no_more_points_than_intervals(self, trace):
        selection = select_simpoints(trace, INTERVAL)
        assert selection.k <= len(selection.intervals)

    def test_compresses_full_length_trace(self):
        """On the real 200K trace, SimPoint picks far fewer simulation
        points than intervals (the whole point of the technique)."""
        full = generate_trace("mesa")
        selection = select_simpoints(full)
        assert selection.k < len(selection.intervals)

    def test_instruction_reduction_factor(self, trace):
        selection = select_simpoints(trace, INTERVAL)
        factor = selection.instruction_reduction_factor()
        # mesa: 1.5B instructions / (k x 10M) -> paper's 8-62x range
        assert 2.0 < factor < 200.0

    def test_deterministic(self, trace):
        a = select_simpoints(trace, INTERVAL, seed=42)
        b = select_simpoints(trace, INTERVAL, seed=42)
        assert a.points == b.points


def _decode_intervals(arrays):
    n_intervals = len(generate_trace("mesa", TRACE_LEN).intervals(INTERVAL))
    return [
        ApplicationProfile.from_arrays(arrays, f"{i}.") for i in range(n_intervals)
    ]


class TestIntervalProfileCache:
    def test_warm_intervals_identical_to_built(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(simpoint_module, "_INTERVAL_PROFILE_CACHE", {})
        built = get_interval_profiles("mesa", INTERVAL, TRACE_LEN)
        simpoint_module._INTERVAL_PROFILE_CACHE.clear()
        warm = get_interval_profiles("mesa", INTERVAL, TRACE_LEN)
        assert warm is not built and len(warm) == len(built) > 1
        for loaded, original in zip(warm, built):
            assert_profiles_identical(loaded, original)

    def test_corrupt_cache_entry_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(simpoint_module, "_INTERVAL_PROFILE_CACHE", {})
        built = get_interval_profiles("mesa", INTERVAL, TRACE_LEN)
        (path,) = tmp_path.glob("intervals-*.npz")
        for data in hostile_cache_files(path.read_bytes()).values():
            path.write_bytes(data)
            simpoint_module._INTERVAL_PROFILE_CACHE.clear()
            profiles = get_interval_profiles("mesa", INTERVAL, TRACE_LEN)
            assert len(profiles) == len(built)
            for rebuilt, original in zip(profiles, built):
                assert_profiles_identical(rebuilt, original)
            assert len(load_cached_arrays(path, _decode_intervals)) == len(built)
        assert not SENTINEL["tripped"]


@pytest.mark.slow
class TestSimPointSimulator:
    def test_estimates_within_noise_band(self):
        """SimPoint estimates should be a few percent off full evaluation
        (the paper's premise for the noisy-training study)."""
        simulator = SimPointSimulator(
            "mesa", interval_length=INTERVAL, trace_length=TRACE_LEN
        )
        full = get_interval_simulator("mesa", TRACE_LEN)
        rng = np.random.default_rng(3)
        errors = []
        for _ in range(30):
            cfg = MachineConfig(
                width=int(rng.choice([4, 6, 8])),
                rob_size=int(rng.choice([96, 128, 160])),
                l1d_size=int(rng.choice([8, 32])) * 1024,
                l2_size=int(rng.choice([256, 1024])) * 1024,
            )
            truth = full.evaluate_ipc(cfg)
            estimate = simulator.simulate_ipc(cfg)
            errors.append(abs(estimate - truth) / truth * 100)
        assert 0.0 < np.mean(errors) < 15.0

    def test_callable_interface(self):
        simulator = SimPointSimulator(
            "mesa", interval_length=INTERVAL, trace_length=TRACE_LEN
        )
        cfg = MachineConfig()
        assert simulator(cfg) == simulator.simulate_ipc(cfg)

"""Tests for the SIM(p, A) facade and its caches."""

import pickle

import numpy as np
import pytest

from repro.cpu import (
    ApplicationProfile,
    IntervalSimulator,
    MachineConfig,
    Simulator,
    clear_simulator_caches,
    get_application_profile,
    get_interval_simulator,
)
from repro.memory.stackdist import ReuseProfile
from repro.obs import load_cached_arrays

from .test_checkpoint import SENTINEL, hostile_cache_files

TRACE_LEN = 6_000


def assert_identical(loaded, built):
    """Equal down to types: arrays by value and dtype, dicts by keys,
    key types and order, reuse profiles attribute by attribute."""
    assert type(loaded) is type(built)
    if isinstance(built, np.ndarray):
        assert loaded.dtype == built.dtype
        np.testing.assert_array_equal(loaded, built)
    elif isinstance(built, dict):
        assert list(loaded) == list(built)
        assert [type(k) for k in loaded] == [type(k) for k in built]
        for key in built:
            assert_identical(loaded[key], built[key])
    elif isinstance(built, (ApplicationProfile, ReuseProfile)):
        assert_identical(vars(loaded), vars(built))
    else:
        assert loaded == built


def assert_profiles_identical(loaded, built):
    assert_identical(loaded, built)
    assert pickle.dumps(loaded) == pickle.dumps(built)


class TestFacade:
    def test_interval_engine(self):
        sim = Simulator("interval", trace_length=TRACE_LEN)
        ipc = sim.simulate_ipc(MachineConfig(), "gzip")
        assert 0.0 < ipc < 4.0

    def test_cycle_engine(self):
        sim = Simulator("cycle", trace_length=TRACE_LEN)
        ipc = sim.simulate_ipc(MachineConfig(), "gzip")
        assert 0.0 < ipc < 4.0

    def test_callable(self):
        sim = Simulator("interval", trace_length=TRACE_LEN)
        assert sim(MachineConfig(), "gzip") == sim.simulate_ipc(
            MachineConfig(), "gzip"
        )

    def test_detailed_result(self):
        sim = Simulator("interval", trace_length=TRACE_LEN)
        result = sim.simulate_detailed(MachineConfig(), "gzip")
        assert result.instructions > 0

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            Simulator("magic")


class TestCaches:
    def test_profile_memoized(self):
        a = get_application_profile("gzip", TRACE_LEN)
        b = get_application_profile("gzip", TRACE_LEN)
        assert a is b

    def test_interval_simulator_memoized(self):
        a = get_interval_simulator("gzip", TRACE_LEN)
        b = get_interval_simulator("gzip", TRACE_LEN)
        assert a is b

    def test_clear_caches(self):
        a = get_interval_simulator("gzip", TRACE_LEN)
        clear_simulator_caches()
        b = get_interval_simulator("gzip", TRACE_LEN)
        assert a is not b

    def test_disk_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_simulator_caches()
        first = get_application_profile("gzip", TRACE_LEN)
        clear_simulator_caches()
        second = get_application_profile("gzip", TRACE_LEN)
        assert first is not second
        assert_profiles_identical(second, first)
        assert any(tmp_path.glob("profile-*.npz"))
        clear_simulator_caches()

    @pytest.mark.parametrize("workload", ["mcf", "gzip"])
    def test_warm_profile_identical_to_built(self, tmp_path, monkeypatch, workload):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_simulator_caches()
        built = get_application_profile(workload, 20_000)
        (path,) = tmp_path.glob(f"profile-*-{workload}-*.npz")
        warm = load_cached_arrays(path, ApplicationProfile.from_arrays)
        assert_profiles_identical(warm, built)
        config = MachineConfig()
        assert IntervalSimulator(warm).evaluate_ipc(config) == (
            IntervalSimulator(built).evaluate_ipc(config)
        )
        clear_simulator_caches()

    def test_disk_cache_disabled_by_empty_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "")
        clear_simulator_caches()
        profile = get_application_profile("gzip", TRACE_LEN)
        assert profile.n_instructions > 0
        clear_simulator_caches()

    def test_corrupt_cache_entry_rebuilt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        clear_simulator_caches()
        built = get_application_profile("gzip", TRACE_LEN)
        (path,) = tmp_path.glob("profile-*.npz")
        for data in hostile_cache_files(path.read_bytes()).values():
            path.write_bytes(data)
            clear_simulator_caches()
            profile = get_application_profile("gzip", TRACE_LEN)
            assert_profiles_identical(profile, built)
            assert load_cached_arrays(path, ApplicationProfile.from_arrays)
        assert not SENTINEL["tripped"]
        clear_simulator_caches()

"""Tests for the SIM(p, A) facade and its caches."""

import pytest

from repro.cpu import (
    ApplicationProfile,
    MachineConfig,
    Simulator,
    clear_simulator_caches,
    get_application_profile,
    get_interval_simulator,
)
from repro.obs import load_cached_pickle

from .test_checkpoint import CORRUPT_PICKLES

TRACE_LEN = 6_000


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
        assert first.mix == second.mix
        assert first.mispredict_rates == second.mispredict_rates
        assert any(tmp_path.glob("profile-*.pkl"))
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
        (path,) = tmp_path.glob("profile-*.pkl")
        for data in CORRUPT_PICKLES.values():
            path.write_bytes(data)
            clear_simulator_caches()
            profile = get_application_profile("gzip", TRACE_LEN)
            assert profile.mispredict_rates == built.mispredict_rates
            assert load_cached_pickle(path, ApplicationProfile) is not None
        clear_simulator_caches()

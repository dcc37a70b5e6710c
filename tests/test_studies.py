"""Tests for the paper's two study definitions (Tables 4.1/4.2)."""

import dataclasses
import os

import numpy as np
import pytest

import repro.experiments.studies as studies_module
from repro.cpu.simulator import get_interval_simulator
from repro.designspace import DesignSpace
from repro.experiments import (
    SCALAR_STUDY_NAMES,
    STUDY_NAMES,
    full_space_ground_truth,
    get_study,
    list_studies,
    make_simulate_fn,
    memory_system_machine,
    processor_machine,
)
from repro.experiments.studies import REGISTER_FILE_CHOICES
from repro.obs import load_cached_arrays

from .test_checkpoint import SENTINEL, hostile_cache_files, npz_bytes


class TestMemorySystemSpace:
    def setup_method(self):
        self.study = get_study("memory-system")

    def test_paper_space_size(self):
        """Table 4.1: 23,040 simulations per benchmark."""
        assert len(self.study.space) == 23_040

    def test_parameter_values_match_table41(self):
        space = self.study.space
        assert space.parameter("l1d_size_kb").values == (8, 16, 32, 64)
        assert space.parameter("l1d_block").values == (32, 64)
        assert space.parameter("l1d_associativity").values == (1, 2, 4, 8)
        assert space.parameter("l1d_write_policy").values == ("WT", "WB")
        assert space.parameter("l2_size_kb").values == (256, 512, 1024, 2048)
        assert space.parameter("l2_block").values == (64, 128)
        assert space.parameter("l2_associativity").values == (1, 2, 4, 8, 16)
        assert space.parameter("l2_bus_width").values == (8, 16, 32)
        assert space.parameter("fsb_frequency_ghz").values == (0.533, 0.8, 1.4)

    def test_machine_mapping(self):
        point = {
            "l1d_size_kb": 16,
            "l1d_block": 64,
            "l1d_associativity": 4,
            "l1d_write_policy": "WT",
            "l2_size_kb": 512,
            "l2_block": 128,
            "l2_associativity": 16,
            "l2_bus_width": 16,
            "fsb_frequency_ghz": 1.4,
        }
        cfg = memory_system_machine(point)
        assert cfg.l1d_size == 16 * 1024
        assert cfg.l1d_write_policy == "WT"
        assert cfg.l2_associativity == 16
        # constants from the right half of Table 4.1
        assert cfg.frequency_ghz == 4.0
        assert cfg.rob_size == 128

    def test_table51_sample_fractions(self):
        # the paper's 1.08% / 2.17% / 4.12% columns
        fractions = [
            self.study.sample_fraction(n) for n in self.study.table51_samples
        ]
        np.testing.assert_allclose(fractions, [0.0108, 0.0217, 0.0412], atol=5e-4)


class TestProcessorSpace:
    def setup_method(self):
        self.study = get_study("processor")

    def test_paper_space_size(self):
        """Table 4.2: 20,736 simulations per benchmark."""
        assert len(self.study.space) == 20_736

    def test_register_file_constraint(self):
        for config in self.study.space.sample(50, np.random.default_rng(0)):
            assert (
                config["register_file"]
                in REGISTER_FILE_CHOICES[config["rob_size"]]
            )

    def test_dependent_associativities(self):
        small = processor_machine(
            self.study.space.config_at(0)
            | {"l1d_size_kb": 8, "l1i_size_kb": 8, "l2_size_kb": 256}
        )
        large = processor_machine(
            self.study.space.config_at(0)
            | {"l1d_size_kb": 32, "l1i_size_kb": 32, "l2_size_kb": 1024}
        )
        assert small.l1d_associativity == 1 and large.l1d_associativity == 2
        assert small.l2_associativity == 4 and large.l2_associativity == 8

    def test_fixed_parameters(self):
        cfg = processor_machine(self.study.space.config_at(123))
        assert cfg.l1d_block == 32
        assert cfg.l2_block == 64
        assert cfg.l1d_write_policy == "WB"
        assert cfg.l2_bus_width == 32
        assert cfg.fsb_frequency_ghz == 0.8

    def test_machine_mapping_round_trip(self):
        point = self.study.space.config_at(777)
        cfg = processor_machine(point)
        assert cfg.width == point["width"]
        assert cfg.rob_size == point["rob_size"]
        assert cfg.int_registers == point["register_file"]

    def test_table51_sample_fractions(self):
        fractions = [
            self.study.sample_fraction(n) for n in self.study.table51_samples
        ]
        np.testing.assert_allclose(fractions, [0.0096, 0.0193, 0.0410], atol=5e-4)


class TestStudyRegistry:
    def test_names(self):
        assert set(STUDY_NAMES) == {
            "memory-system", "processor", "cache-policy"
        }
        assert set(SCALAR_STUDY_NAMES) == {"memory-system", "processor"}

    def test_get_study_caches(self):
        assert get_study("processor") is get_study("processor")

    def test_unknown_study(self):
        with pytest.raises(KeyError):
            get_study("network-on-chip")

    def test_unknown_study_names_choices(self):
        with pytest.raises(KeyError, match="cache-policy"):
            get_study("network-on-chip")

    def test_machine_at(self):
        study = get_study("memory-system")
        cfg = study.machine_at(0)
        assert cfg.l1d_size == 8 * 1024

    def test_scalar_studies_declare_single_ipc_target(self):
        for name in SCALAR_STUDY_NAMES:
            study = get_study(name)
            assert study.targets == ("ipc",)
            assert study.primary_target == "ipc"
            assert not study.is_multi_target

    def test_cache_policy_study_declares_target_vector(self):
        study = get_study("cache-policy")
        assert study.targets == ("ipc", "hit_rate", "energy_nj")
        assert study.primary_target == "ipc"
        assert study.is_multi_target
        assert study.workloads == ("osc-tight", "osc-scan", "osc-pointer")

    def test_list_studies(self):
        infos = {info.name: info for info in list_studies()}
        assert set(infos) == set(STUDY_NAMES)
        mem = infos["memory-system"]
        assert mem.n_points == 23_040
        assert mem.n_parameters == 9
        assert mem.targets == ("ipc",)
        cp = infos["cache-policy"]
        assert cp.n_points == 600
        assert cp.n_parameters == 4
        assert cp.targets == ("ipc", "hit_rate", "energy_nj")
        row = cp.to_dict()
        assert row["targets"] == ["ipc", "hit_rate", "energy_nj"]
        assert row["workloads"] == ["osc-tight", "osc-scan", "osc-pointer"]


class TestSimulationEndpoints:
    def test_make_simulate_fn(self):
        study = get_study("memory-system")
        simulate = make_simulate_fn(study, "gzip")
        ipc = simulate(study.space.config_at(100))
        assert 0.0 < ipc < 4.0

    def test_unknown_benchmark(self):
        study = get_study("memory-system")
        with pytest.raises(KeyError):
            make_simulate_fn(study, "povray")

    @pytest.mark.slow
    def test_ground_truth_full_space(self):
        study = get_study("memory-system")
        truth = full_space_ground_truth(study, "gzip")
        assert truth.shape == (len(study.space),)
        assert np.all(truth > 0)
        assert truth.std() / truth.mean() > 0.05  # real sensitivity

    @pytest.mark.slow
    def test_ground_truth_cached(self):
        import time

        study = get_study("memory-system")
        full_space_ground_truth(study, "gzip")
        started = time.perf_counter()
        full_space_ground_truth(study, "gzip")
        assert time.perf_counter() - started < 0.1


class TestGroundTruthCache:
    """Every bad ground-truth cache file is a miss that rebuilds, and a
    failed cache write leaves nothing behind.  Runs on a 512-point
    memory-system subspace over a short trace to stay fast."""

    @pytest.fixture
    def tiny(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(studies_module, "_TRUTH_CACHE", {})
        monkeypatch.setattr(
            studies_module,
            "get_interval_simulator",
            lambda benchmark: get_interval_simulator(benchmark, 6_000),
        )
        full = get_study("memory-system")
        space = DesignSpace(
            "memory-system-tiny",
            [type(p)(p.name, p.values[:2]) for p in full.space.parameters],
        )
        return dataclasses.replace(full, name="memory-system-tiny", space=space)

    def _rebuilt(self, study):
        studies_module._TRUTH_CACHE.clear()
        return full_space_ground_truth(study, "gzip")

    def test_warm_truth_identical_to_built(self, tiny, tmp_path):
        built = full_space_ground_truth(tiny, "gzip")
        (path,) = tmp_path.glob("truth-*.npz")
        warm = self._rebuilt(tiny)
        assert warm is not built and warm.dtype == built.dtype
        np.testing.assert_array_equal(warm, built)
        np.testing.assert_array_equal(
            load_cached_arrays(path, lambda arrays: arrays["truth"]), built
        )

    def test_bad_truth_file_rebuilt(self, tiny, tmp_path):
        built = full_space_ground_truth(tiny, "gzip")
        assert built.shape == (512,)
        (path,) = tmp_path.glob("truth-*.npz")
        valid = path.read_bytes()
        payloads = {
            **hostile_cache_files(valid),
            "garbage": os.urandom(len(valid)),
            "stale-shape": npz_bytes({"truth": built[:-1]}),
            "wrong-dtype": npz_bytes({"truth": built.astype(np.float32)}),
        }
        for name, data in payloads.items():
            path.write_bytes(data)
            rebuilt = self._rebuilt(tiny)
            np.testing.assert_array_equal(rebuilt, built, err_msg=name)
            assert path.read_bytes() != data, name
        assert not SENTINEL["tripped"]

    def test_failed_write_leaves_no_temp_file(self, tiny, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("injected rename failure")

        expected = full_space_ground_truth(tiny, "gzip")
        for path in tmp_path.iterdir():
            path.unlink()
        monkeypatch.setattr(os, "replace", failing_replace)
        np.testing.assert_array_equal(self._rebuilt(tiny), expected)
        assert list(tmp_path.iterdir()) == []

"""Tests for ensemble save/load."""

import numpy as np
import pytest

from repro.core import (
    CrossValidationEnsemble,
    RunContext,
    load_predictor,
    save_predictor,
)
from repro.core.persistence import FORMAT_VERSION
from repro.core.training import TrainingConfig

FAST = TrainingConfig(
    hidden_layers=(8,), max_epochs=150, patience=5, check_interval=10
)


@pytest.fixture
def trained(rng):
    x = rng.random((120, 4))
    y = 0.5 + 0.6 * x[:, 0] + 0.3 * x[:, 1] * x[:, 2]
    ensemble = CrossValidationEnsemble(
        k=4, training=FAST, context=RunContext(rng=rng)
    )
    ensemble.fit(x, y)
    return ensemble.predictor, x


class TestRoundTrip:
    def test_predictions_identical(self, trained, tmp_path):
        predictor, x = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        restored = load_predictor(str(path))
        np.testing.assert_allclose(
            restored.predict(x), predictor.predict(x), rtol=1e-12
        )

    def test_structure_preserved(self, trained, tmp_path):
        predictor, _ = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        restored = load_predictor(str(path))
        assert restored.size == predictor.size
        assert restored.scaler.low == predictor.scaler.low
        assert restored.scaler.high == predictor.scaler.high
        for a, b in zip(restored.networks, predictor.networks):
            assert a.hidden_layers == b.hidden_layers
            assert a.hidden_activation.name == b.hidden_activation.name

    def test_member_variance_preserved(self, trained, tmp_path):
        predictor, x = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        restored = load_predictor(str(path))
        np.testing.assert_allclose(
            restored.prediction_variance(x[:10]),
            predictor.prediction_variance(x[:10]),
            rtol=1e-9,
        )

    def test_two_hidden_layer_networks(self, rng, tmp_path):
        cfg = TrainingConfig(
            hidden_layers=(6, 4), max_epochs=80, patience=4, check_interval=10
        )
        x = rng.random((80, 3))
        y = 0.5 + x[:, 0]
        ensemble = CrossValidationEnsemble(
            k=4, training=cfg, context=RunContext(rng=rng)
        )
        ensemble.fit(x, y)
        path = tmp_path / "deep.npz"
        save_predictor(ensemble.predictor, str(path))
        restored = load_predictor(str(path))
        np.testing.assert_allclose(
            restored.predict(x), ensemble.predictor.predict(x), rtol=1e-12
        )

    def test_version_mismatch_rejected(self, trained, tmp_path):
        predictor, _ = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        data = dict(np.load(str(path), allow_pickle=False))
        data["format_version"] = np.array(FORMAT_VERSION + 1)
        np.savez_compressed(str(path), **data)
        with pytest.raises(ValueError, match="unsupported"):
            load_predictor(str(path))


class TestMultiTargetAndLegacyFiles:
    def test_multi_target_round_trip_is_bit_exact(self, rng, tmp_path):
        x = rng.random((60, 3))
        y = np.column_stack([0.5 + x[:, 0], 1.0 + x[:, 1], 2.0 - x[:, 2]])
        ensemble = CrossValidationEnsemble(
            k=4, training=FAST, context=RunContext.seeded(4),
            target_names=("ipc", "hit_rate", "energy_nj"),
        )
        ensemble.fit(x, y)
        predictor = ensemble.predictor
        path = tmp_path / "multi.npz"
        save_predictor(predictor, str(path))
        restored = load_predictor(str(path))
        assert restored.target_names == ("ipc", "hit_rate", "energy_nj")
        assert len(restored.scalers) == predictor.size
        np.testing.assert_array_equal(
            restored.predict_all(x), predictor.predict_all(x)
        )
        np.testing.assert_array_equal(
            restored.prediction_variance(x), predictor.prediction_variance(x)
        )

    def test_version_1_scalar_file_still_loads(self, trained, tmp_path):
        predictor, x = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, str(path))
        # the v1 layout: no target names, format_version 1
        data = dict(np.load(str(path), allow_pickle=False))
        del data["target_names"]
        data["format_version"] = np.array(1)
        np.savez_compressed(str(path), **data)
        restored = load_predictor(str(path))
        assert restored.target_names == ()
        np.testing.assert_array_equal(restored.predict(x), predictor.predict(x))


class TestAtomicSave:
    def test_failed_save_keeps_previous_file(self, trained, tmp_path, monkeypatch):
        """A save that dies after writing part of the archive leaves the
        previous model loadable and no temporary file behind."""
        predictor, x = trained
        path = tmp_path / "model.npz"
        save_predictor(predictor, path)
        written = []

        def write_array(fid, array, *args, **kwargs):
            if written:
                raise OSError("injected failure mid-archive")
            written.append(array)
            real_write_array(fid, array, *args, **kwargs)

        real_write_array = np.lib.format.write_array
        monkeypatch.setattr(np.lib.format, "write_array", write_array)
        with pytest.raises(OSError, match="mid-archive"):
            save_predictor(predictor, path)
        monkeypatch.undo()
        assert written
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        np.testing.assert_array_equal(
            load_predictor(path).predict(x), predictor.predict(x)
        )

    def test_npz_suffix_appended_to_bare_path(self, trained, tmp_path):
        predictor, x = trained
        save_predictor(predictor, tmp_path / "model")
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        np.testing.assert_array_equal(
            load_predictor(tmp_path / "model.npz").predict(x), predictor.predict(x)
        )

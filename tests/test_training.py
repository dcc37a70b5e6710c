"""Tests for the early-stopping training recipe and its percentage-error
weighting, driven one fold at a time through the fold program."""

import numpy as np
import pytest

from repro.core import TargetScaler, percentage_errors
from repro.core.training import (
    FoldTask,
    StackedEnsembleTrainer,
    TrainingConfig,
    presentation_cdf,
    presentation_probabilities,
)


def make_problem(rng, n=300):
    """A smooth positive target over [0,1]^3."""
    x = rng.random((n, 3))
    y = 0.5 + x[:, 0] * 0.8 + 0.4 * x[:, 1] * x[:, 2]
    return x, y


def fit_one(config, x, y, x_es, y_es, seed=0):
    """Train one fold on ``(x, y)``, early-stopping on ``(x_es, y_es)``.

    Returns the fold's result, the scaler it trained against, its
    ``train.stop`` payload and its early-stopping error trace.
    """
    x_all = np.vstack([x, x_es])
    y_all = np.concatenate([y, y_es])[:, None]
    es_idx = np.arange(len(x), len(x_all))
    scaler = TargetScaler().fit(y)
    task = FoldTask(np.arange(len(x)), es_idx, es_idx, seed, scaler)
    (result,) = StackedEnsembleTrainer(config).fit_folds(
        x_all, y_all, [task], capture_telemetry=True
    )
    (stop,) = [payload for name, payload in result.events if name == "train.stop"]
    checks = [
        payload["es_error"] for name, payload in result.events
        if name == "train.check"
    ]
    return result, scaler, stop, checks


class TestTrainingConfig:
    def test_defaults_valid(self):
        TrainingConfig()

    def test_paper_settings(self):
        cfg = TrainingConfig.paper_settings()
        assert cfg.learning_rate == pytest.approx(0.001)
        assert cfg.momentum == pytest.approx(0.5)
        assert cfg.hidden_layers == (16,)
        assert cfg.hidden_activation == "sigmoid"

    def test_fast_settings(self):
        assert TrainingConfig.fast_settings().max_epochs <= 1000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learning_rate=0.0),
            dict(momentum=1.0),
            dict(batch_size=0),
            dict(max_epochs=0),
            dict(patience=0),
            dict(lr_decay=0.0),
            dict(decay_after=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)


class TestPresentationWeighting:
    def test_inverse_target_frequencies(self):
        probs = presentation_probabilities(np.array([1.0, 2.0, 4.0]))
        # frequencies proportional to 1/y
        np.testing.assert_allclose(probs, np.array([4, 2, 1]) / 7.0)

    def test_uniform_when_disabled(self):
        probs = presentation_probabilities(
            np.array([1.0, 2.0]), weight_by_inverse_target=False
        )
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(ValueError):
            presentation_probabilities(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("n", [1, 2, 37, 180])
    def test_cdf_block_draws_match_choice(self, n):
        """Rows of one ``rng.random((rows, n))`` block searched in the
        cached CDF are ``rng.choice(p=)`` draws, bit for bit."""
        targets = np.random.default_rng(n).uniform(0.01, 3.0, n)
        probabilities = presentation_probabilities(targets)
        cdf = presentation_cdf(probabilities)
        one, block = np.random.default_rng(9), np.random.default_rng(9)
        want = [one.choice(n, size=n, p=probabilities) for _ in range(10)]
        got = cdf.searchsorted(block.random((10, n)), side="right")
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a, b)
        # both streams are left at the same state
        assert one.random() == block.random()

    @pytest.mark.parametrize(
        "p, match",
        [
            ([0.5, np.nan], "finite"),
            ([1.5, -0.5], "non-negative"),
            ([0.5, 0.4], "sum to 1"),
            ([[0.5, 0.5]], "1-D"),
        ],
    )
    def test_cdf_validates_once(self, p, match):
        with pytest.raises(ValueError, match=match):
            presentation_cdf(np.array(p))


class TestTraining:
    def test_learns_smooth_function(self, rng, fast_training):
        x, y = make_problem(rng)
        _, _, stop, _ = fit_one(fast_training, x[:200], y[:200], x[200:], y[200:])
        assert stop["best_error"] < 5.0

    def test_early_stopping_restores_best(self, rng):
        x, y = make_problem(rng)
        cfg = TrainingConfig(
            hidden_layers=(8,), max_epochs=100, patience=3, check_interval=5
        )
        result, scaler, stop, _ = fit_one(
            cfg, x[:200], y[:200], x[200:], y[200:]
        )
        # final network must reproduce the best ES error exactly
        predictions = scaler.inverse_transform(
            result.network.predict(x[200:])[:, 0]
        )
        final = float(np.mean(percentage_errors(predictions, y[200:])))
        assert final == pytest.approx(stop["best_error"], rel=1e-9)

    def test_stops_early_on_plateau(self, rng):
        x, y = make_problem(rng, n=120)
        cfg = TrainingConfig(
            hidden_layers=(4,),
            max_epochs=5000,
            patience=3,
            check_interval=5,
            learning_rate=0.5,  # converges quickly, then plateaus
        )
        _, _, stop, _ = fit_one(cfg, x[:100], y[:100], x[100:], y[100:])
        assert stop["stopped_early"]
        assert stop["epochs_run"] < 100

    def test_history_records_checks(self, rng, fast_training):
        x, y = make_problem(rng, n=150)
        _, _, stop, checks = fit_one(
            fast_training, x[:100], y[:100], x[100:], y[100:]
        )
        assert len(checks) >= 1
        assert stop["best_epoch"] % fast_training.check_interval == 0
        assert stop["best_error"] == min(checks)

    def test_validation_errors(self, rng, fast_training):
        x, y = make_problem(rng, n=50)
        scaler = TargetScaler().fit(y)
        trainer = StackedEnsembleTrainer(fast_training)
        empty = np.arange(0)
        some = np.arange(10)
        for train_idx, es_idx in ((empty, some), (some, empty)):
            with pytest.raises(ValueError, match="non-empty"):
                trainer.fit_folds(
                    x, y[:, None], [FoldTask(train_idx, es_idx, some, 0, scaler)]
                )

    def test_paper_settings_converge_slowly_but_surely(self, rng):
        """The paper's literal hyperparameters on a small problem."""
        x, y = make_problem(rng, n=200)
        cfg = TrainingConfig(
            hidden_layers=(16,),
            hidden_activation="sigmoid",
            learning_rate=0.001,
            momentum=0.5,
            max_epochs=800,
            patience=100,
            lr_decay=1.0,
        )
        _, _, stop, _ = fit_one(cfg, x[:150], y[:150], x[150:], y[150:])
        # slow but must clearly beat the trivial predict-the-mean model
        trivial = float(
            np.mean(np.abs(y[150:] - y[:150].mean()) / y[150:] * 100)
        )
        assert stop["best_error"] < trivial

"""Tests for the multi-task learning extension: one network per fold
with an output head per target, trained by the same fold program as a
scalar fit."""

import numpy as np
import pytest

from repro.core import (
    CrossValidationEnsemble,
    MultiTargetScaler,
    RunContext,
    StackedEnsembleTrainer,
    auxiliary_target_names,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry

NAMES = ("ipc", "miss_rate", "mispredicts")


def make_multitask_problem(rng, n=300):
    """Primary target plus two correlated auxiliary metrics."""
    x = rng.random((n, 3))
    primary = 0.5 + 0.8 * x[:, 0] + 0.4 * x[:, 1] * x[:, 2]
    miss_rate = 0.1 + 0.5 * x[:, 1]  # correlated with the product term
    mispredicts = 0.05 + 0.3 * x[:, 0]
    return x, np.column_stack([primary, miss_rate, mispredicts])


def multitask(training, names=NAMES, k=5, seed=0):
    metrics = MetricsRegistry(enabled=True)
    context = RunContext(
        rng=np.random.default_rng(seed),
        telemetry=RunTelemetry(),
        metrics=metrics,
    )
    return CrossValidationEnsemble(
        k=k, training=training, context=context, target_names=names
    )


class TestMultiTaskNetwork:
    def test_shapes(self, rng, fast_training):
        x, y = make_multitask_problem(rng, n=100)
        cv = multitask(fast_training)
        estimate = cv.fit(x, y)
        assert estimate.target_names == NAMES
        assert cv.predictor.predict_all(x[:5]).shape == (5, 3)
        assert cv.predictor.predict(x[:5]).shape == (5,)
        np.testing.assert_array_equal(
            cv.predictor.predict_all(x[:5])[:, 0], cv.predict(x[:5])
        )

    def test_learns_primary_task(self, rng, fast_training):
        x, y = make_multitask_problem(rng)
        cv = multitask(fast_training)
        cv.fit(x[:250], y[:250])
        predictions = cv.predict(x[250:])
        errors = np.abs(predictions - y[250:, 0]) / y[250:, 0]
        assert errors.mean() < 0.10

    def test_single_task_degenerates_gracefully(self, rng, fast_training):
        x, y = make_multitask_problem(rng, n=120)
        cv = multitask(fast_training, names=("ipc",))
        estimate = cv.fit(x, y[:, :1])
        assert estimate.target_names == ("ipc",)
        assert cv.predictor.predict(x[:3]).shape == (3,)
        assert cv.predictor.predict_all(x[:3]).shape == (3, 1)

    def test_history_returned(self, rng, fast_training):
        """Multi-target folds record the same per-fold training events
        and counters as scalar ones."""
        x, y = make_multitask_problem(rng, n=120)
        cv = multitask(fast_training)
        cv.fit(x, y)
        assert len(cv.telemetry.events_named("train.check")) >= cv.k
        assert len(cv.telemetry.events_named("train.stop")) == cv.k
        assert len(cv.telemetry.events_named("crossval.fold")) == cv.k
        assert cv.metrics.counter("train.epochs") > 0

    def test_validation(self, rng, fast_training):
        x, y = make_multitask_problem(rng, n=50)
        cv = multitask(fast_training, names=NAMES[:2])
        with pytest.raises(ValueError, match="target_names"):
            cv.fit(x, y)  # 3 columns != 2 names
        with pytest.raises(ValueError, match="target_names"):
            cv.fit(x, y[:, 0])  # a declared fit needs a target matrix
        zeroed = y.copy()
        zeroed[3, 2] = 0.0
        with pytest.raises(ValueError, match="zero targets"):
            multitask(fast_training).fit(x, zeroed)
        with pytest.raises(ValueError, match="non-finite"):
            y_nan = y.copy()
            y_nan[3, 1] = np.nan
            multitask(fast_training).fit(x, y_nan)

    def test_rejects_nonpositive_primary(self, rng, fast_training):
        x, y = make_multitask_problem(rng, n=20)
        y[:, 0] = -y[:, 0]
        with pytest.raises(ValueError, match="positive"):
            multitask(fast_training, k=4).fit(x, y)


class TestFitMembersStacked:
    def test_bitwise_equivalent_to_sequential_fits(self, fast_training):
        """All multi-target folds stacked == the same folds fitted one at
        a time: identical early-stopping traces, test errors and final
        weights."""
        x, y = make_multitask_problem(np.random.default_rng(2), n=120)
        cv = multitask(fast_training)
        tasks, config = cv._fold_tasks(y)
        trainer = StackedEnsembleTrainer(config)
        stacked = trainer.fit_folds(x, y, tasks, capture_telemetry=True)
        for task, got in zip(tasks, stacked):
            (want,) = trainer.fit_folds(x, y, [task], capture_telemetry=True)
            assert got.events == want.events
            np.testing.assert_array_equal(got.test_errors, want.test_errors)
            assert got.test_errors.shape[1] == len(NAMES)
            for got_w, want_w in zip(got.network.weights, want.network.weights):
                np.testing.assert_array_equal(got_w, want_w)

    def test_empty_and_validation(self, fast_training):
        trainer = StackedEnsembleTrainer(fast_training)
        x, y = make_multitask_problem(np.random.default_rng(2), n=40)
        assert trainer.fit_folds(x, y, []) == []
        cv = multitask(fast_training)
        tasks, _ = cv._fold_tasks(y)
        assert isinstance(tasks[0].scaler, MultiTargetScaler)
        with pytest.raises(ValueError, match="3 target columns"):
            trainer.fit_folds(x, y[:, :2], tasks)


class TestAuxiliaryNames:
    def test_prepends_ipc(self):
        assert auxiliary_target_names(["l2_miss"]) == ["ipc", "l2_miss"]

    def test_dedupes_ipc(self):
        assert auxiliary_target_names(["ipc", "l2_miss"]) == ["ipc", "l2_miss"]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            auxiliary_target_names(["a", "a"])

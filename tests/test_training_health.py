"""Tests for the training-health subsystem.

Covers divergence detection (weight health, exploding early-stopping
error, dead networks), deterministic restarts, fold quarantine in the
cross-validation ensemble — for scalar and multi-target fits alike, all
through the one fold program — the outlier fault mode, and the
unseeded-generator warning.
"""

import dataclasses
import warnings

import numpy as np
import pytest

import repro.core.network as network_mod
from repro.core import (
    EnsemblePredictor,
    FeedForwardNetwork,
    TargetScaler,
    TrainingConfig,
    TrainingDiverged,
)
from repro.core.context import RunContext
from repro.core.crossval import CrossValidationEnsemble
from repro.core.faults import FaultInjectingBackend, FaultPlan
from repro.core.kernels import EnsembleTrainingKernel
from repro.core.training import presentation_probabilities
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry


def linear_data(seed=0, n=30):
    """A smooth positive regression problem the trainer handles easily."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    y = 1.0 + x @ np.array([0.5, 0.25, 0.1])
    return x, y


def three_targets(x, y):
    """``y`` plus two positive auxiliary targets, and their names."""
    aux = np.column_stack([0.1 + 0.5 * x[:, 1], 2.0 + x[:, 2]])
    return np.column_stack([y, aux]), ("ipc", "hit_rate", "energy")


def ensemble(config, k=4, seed=3, n_jobs=1, target_names=(), **kwargs):
    """A seeded ensemble recording into fresh telemetry and metrics."""
    metrics = MetricsRegistry(enabled=True)
    context = RunContext(
        rng=np.random.default_rng(seed),
        telemetry=RunTelemetry(),
        metrics=metrics,
        n_jobs=n_jobs,
    )
    return CrossValidationEnsemble(
        k=k, training=config, context=context, target_names=target_names,
        **kwargs,
    )


def fit_all_diverging(config, x, y, **kwargs):
    """Fit where every fold must diverge: no restarts, so every fold is
    quarantined and the fit raises ``min_folds``.  Returns the ensemble
    for its recorded telemetry and metrics."""
    cv = ensemble(dataclasses.replace(config, max_restarts=0), **kwargs)
    with pytest.raises(TrainingDiverged) as info:
        cv.fit(x, y)
    assert info.value.reason == "min_folds"
    return cv


def inject_nonfinite(monkeypatch, calls):
    """Make the first ``calls`` batched finiteness checks report every
    member diverged (``None``: every check)."""
    original = EnsembleTrainingKernel.members_finite
    seen = {"n": 0}

    def flaky(self):
        seen["n"] += 1
        if calls is None or seen["n"] <= calls:
            return np.zeros(self.n_members, dtype=bool)
        return original(self)

    monkeypatch.setattr(EnsembleTrainingKernel, "members_finite", flaky)


class TestWeightHealth:
    def test_fresh_network_is_healthy(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        health = net.weight_health()
        assert health.finite
        assert health.max_abs <= 0.01
        assert health.saturation == 0.0
        assert health.ok(max_weight=1e6)

    def test_non_finite_weights_flagged(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        net.weights[0][0, 0] = np.nan
        health = net.weight_health()
        assert not health.finite
        assert not health.ok(max_weight=1e6)

    def test_explosion_and_saturation_flagged(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        net.weights[1][0, 0] = 50.0
        health = net.weight_health()
        assert health.finite
        assert health.max_abs == 50.0
        assert health.saturation > 0.0
        assert not health.ok(max_weight=10.0)
        assert health.ok(max_weight=100.0)


class TestFiniteGuards:
    def test_forward_raises_on_non_finite_output(self, rng):
        net = FeedForwardNetwork(3, (8,), 1, rng=rng)
        net.weights[-1][...] = np.nan
        with pytest.raises(TrainingDiverged) as info:
            net.predict(rng.random((5, 3)))
        assert info.value.reason == "non-finite output"

    def test_gradients_raise_on_non_finite(self, rng):
        net = FeedForwardNetwork(3, (4,), 1, rng=rng)
        x = rng.random((5, 3))
        y = rng.random((5, 1))
        with pytest.raises(TrainingDiverged) as info:
            net.gradients(x, y, sample_weights=np.full(5, np.nan))
        assert info.value.reason == "non-finite gradients"


class TestPresentationProbabilities:
    def test_non_finite_targets_named(self):
        with pytest.raises(ValueError, match=r"indices \[1, 3\]"):
            presentation_probabilities(np.array([1.0, np.nan, 2.0, np.inf]))

    def test_non_positive_targets_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            presentation_probabilities(np.array([1.0, 0.0]))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"max_restarts": -1},
            {"divergence_error": 0.0},
            {"max_weight": -1.0},
            {"dead_checks": 0},
        ],
    )
    def test_health_fields_validated(self, overrides):
        with pytest.raises(ValueError):
            dataclasses.replace(TrainingConfig(), **overrides)


class TestDivergenceDetection:
    def test_exploding_es_error(self, fast_training):
        # any real percentage error exceeds a near-zero threshold, so
        # every fold's first early-stopping check must report divergence
        config = dataclasses.replace(fast_training, divergence_error=1e-9)
        x, y = linear_data()
        cv = fit_all_diverging(config, x, y)
        events = cv.telemetry.events_named("train.diverged")
        assert len(events) == cv.k
        for event in events:
            assert event.payload["reason"] == "exploding es_error"
            assert event.payload["epoch"] == config.check_interval
            assert np.isfinite(event.payload["es_error"])
        assert cv.metrics.counter("train.diverged") == cv.k
        # the doomed fits' epochs still count as work done
        assert cv.metrics.counter("train.epochs") == (
            cv.k * config.check_interval
        )

    def test_weight_explosion(self, fast_training):
        # the init-range weights (~0.01) already exceed a tiny max_weight
        config = dataclasses.replace(fast_training, max_weight=1e-6)
        x, y = linear_data()
        cv = fit_all_diverging(config, x, y)
        for event in cv.telemetry.events_named("train.diverged"):
            assert event.payload["reason"] == "weight explosion"
            assert event.payload["max_abs"] > 1e-6

    def test_dead_network(self, fast_training):
        # identical inputs give bit-identical predictions: zero spread
        # at every check, declared dead after dead_checks checks
        config = dataclasses.replace(fast_training, dead_checks=2)
        x, y = linear_data()
        x = np.tile(x[0], (len(x), 1))
        cv = fit_all_diverging(config, x, y)
        events = cv.telemetry.events_named("train.diverged")
        assert len(events) == cv.k
        for event in events:
            assert event.payload["reason"] == "dead network"
            assert event.payload["epoch"] == 2 * config.check_interval

    def test_single_point_es_is_not_dead(self, fast_training):
        # regression: spread over one prediction is zero by definition;
        # a 1-point early-stopping set (n == k) must not trip the dead
        # detector
        config = dataclasses.replace(fast_training, dead_checks=1)
        x, y = linear_data(n=4)
        cv = ensemble(config, k=4)
        estimate = cv.fit(x, y)
        assert estimate.n_folds_used == 4
        assert cv.metrics.counter("train.diverged") == 0
        assert cv.metrics.counter("train.epochs") > 0

    def test_healthy_fit_completes(self, fast_training):
        x, y = linear_data()
        cv = ensemble(fast_training)
        estimate = cv.fit(x, y)
        assert np.isfinite(estimate.mean)
        for network in cv.predictor.networks:
            assert network.weight_health().ok(fast_training.max_weight)


class TestRobustTrainer:
    """Deterministic restarts: attempt 0 draws from the fold seed,
    restart ``a`` from ``[seed, a]``."""

    def test_attempt_zero_matches_unwrapped_fit(self, fast_training):
        """On a healthy fit the restart budget is invisible: a fold
        with restarts available trains bit-identically to one with
        none."""
        x, y = linear_data(seed=3, n=36)
        fits = []
        for max_restarts in (0, 2):
            config = dataclasses.replace(
                fast_training, max_restarts=max_restarts
            )
            cv = ensemble(config)
            fits.append((cv.fit(x, y), cv))
        (est_a, cv_a), (est_b, cv_b) = fits
        assert est_a == est_b
        np.testing.assert_array_equal(cv_a.predict(x), cv_b.predict(x))
        assert [e.payload for e in cv_a.telemetry.events_named("train.check")] == [
            e.payload for e in cv_b.telemetry.events_named("train.check")
        ]

    def test_restarted_fit_is_deterministic(self, fast_training, monkeypatch):
        x, y = linear_data(seed=3, n=36)
        baseline = ensemble(fast_training)
        baseline.fit(x, y)

        restarted = []
        for _ in range(2):
            # every fold's first epoch reports non-finite weights
            inject_nonfinite(monkeypatch, calls=1)
            cv = ensemble(fast_training)
            cv.fit(x, y)
            restarted.append(cv)
            monkeypatch.undo()
        first, second = restarted

        # the restart is bit-reproducible...
        np.testing.assert_array_equal(first.predict(x), second.predict(x))
        # ...and uses a genuinely different stream than attempt 0
        assert not np.array_equal(first.predict(x), baseline.predict(x))
        events = first.telemetry.events_named("train.restart")
        assert len(events) == first.k
        tasks_seeds = [
            e.payload["seed"] for e in second.telemetry.events_named(
                "train.restart"
            )
        ]
        assert [e.payload["seed"] for e in events] == tasks_seeds
        for event in events:
            assert event.payload["attempt"] == 1
            assert event.payload["reason"] == "non-finite weights"
        assert first.metrics.counter("train.restarts") == first.k

    def test_restarts_exhausted(self, fast_training, monkeypatch):
        inject_nonfinite(monkeypatch, calls=None)
        x, y = linear_data(seed=3, n=36)
        config = dataclasses.replace(fast_training, max_restarts=2)
        cv = ensemble(config)
        with pytest.raises(TrainingDiverged) as info:
            cv.fit(x, y)
        assert info.value.reason == "min_folds"
        quarantines = cv.telemetry.events_named("crossval.quarantine")
        assert len(quarantines) == cv.k
        seeds = [
            e.payload["seed"] for e in cv.telemetry.events_named(
                "train.restart"
            )
        ][::2]
        for event, seed in zip(quarantines, seeds):
            assert event.payload["error"].startswith(
                "restarts exhausted: training diverged on all 3 attempts "
                f"(seed {seed}; last failure: training epoch produced "
                "non-finite weights"
            )
        assert len(cv.telemetry.events_named("train.restart")) == 2 * cv.k
        assert cv.metrics.counter("train.restarts") == 2 * cv.k

    def test_negative_restart_budget_rejected(self, fast_training):
        with pytest.raises(ValueError):
            dataclasses.replace(fast_training, max_restarts=-1)


class TestFoldQuarantine:
    def test_outlier_fold_is_quarantined(self, fast_training):
        """A near-zero target in one fold's early-stopping set makes that
        fold diverge through all restarts; the fit degrades gracefully
        and the estimate reports the reduced coverage."""
        x, y = linear_data(seed=0, n=40)
        y[0] = 1e-9
        cv = ensemble(fast_training, k=10)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            estimate = cv.fit(x, y)

        assert estimate.n_folds == 10
        assert 0 < estimate.n_folds_used < 10
        assert estimate.fold_coverage == estimate.n_folds_used / 10
        assert f"[{estimate.n_folds_used}/10 folds]" in str(estimate)
        quarantined = 10 - estimate.n_folds_used
        assert cv.metrics.counter("crossval.quarantined") == quarantined
        events = cv.telemetry.events_named("crossval.quarantine")
        assert len(events) == quarantined
        assert all(e.payload["error"] for e in events)
        # the surviving members form the predictor; no holes
        assert cv.predictor.size == estimate.n_folds_used
        assert np.isfinite(cv.predict(x)).all()
        # restarts were actually spent before quarantining
        assert cv.metrics.counter("train.restarts") >= quarantined

    def test_multi_target_fold_restarts_before_quarantine(self, fast_training):
        """Multi-target folds run the same supervision: the fold whose
        early-stopping set holds a near-zero primary target restarts
        through its whole budget and only then is quarantined."""
        x, y = linear_data(seed=0, n=40)
        y[0] = 1e-9
        y, names = three_targets(x, y)
        cv = ensemble(fast_training, k=10, target_names=names)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            estimate = cv.fit(x, y)
        quarantined = 10 - estimate.n_folds_used
        assert quarantined > 0
        assert estimate.for_target("hit_rate").n_folds_used == (
            estimate.n_folds_used
        )
        names_in_order = [
            event.name for event in cv.telemetry.events
            if event.name in ("train.restart", "crossval.quarantine")
        ]
        budget = fast_training.max_restarts
        assert names_in_order == (
            ["train.restart"] * budget * quarantined
            + ["crossval.quarantine"] * quarantined
        )
        for event in cv.telemetry.events_named("crossval.quarantine"):
            assert event.payload["error"].startswith("restarts exhausted")
        assert cv.metrics.counter("train.restarts") == budget * quarantined

    @pytest.mark.parametrize("n_jobs", [1, 2], ids=["stacked", "pooled"])
    def test_min_folds_raises(self, fast_training, monkeypatch, n_jobs):
        # total divergence, in-process or inherited by forked workers
        inject_nonfinite(monkeypatch, calls=None)
        x, y = linear_data(seed=1, n=12)
        cv = ensemble(fast_training, k=4, seed=0, n_jobs=n_jobs)
        with pytest.raises(TrainingDiverged) as info:
            cv.fit(x, y)
        assert info.value.reason == "min_folds"

    def test_min_folds_validated(self, fast_training):
        with pytest.raises(ValueError, match="min_folds"):
            CrossValidationEnsemble(k=4, training=fast_training, min_folds=5)
        with pytest.raises(ValueError, match="min_folds"):
            CrossValidationEnsemble(k=4, training=fast_training, min_folds=0)

    def test_ensemble_rejects_quarantined_member(self, rng):
        scaler = TargetScaler().fit(np.array([1.0, 2.0]))
        net = FeedForwardNetwork(2, (4,), 1, rng=rng)
        with pytest.raises(ValueError, match="quarantined"):
            EnsemblePredictor(networks=[net, None], scaler=scaler)


class TestOutlierFaults:
    def test_parse_accepts_outlier_keys(self):
        plan = FaultPlan.parse("outlier=0.3,outlier_small=1e-6,outlier_large=1e6")
        assert plan.outlier == 0.3
        assert plan.outlier_small == 1e-6
        assert plan.outlier_large == 1e6

    def test_pick_edges(self):
        plan = FaultPlan(crash=0.1, nan=0.1, hang=0.1, slow=0.1, outlier=0.2)
        assert plan.pick(0.05) == "crash"
        assert plan.pick(0.15) == "nan"
        assert plan.pick(0.25) == "hang"
        assert plan.pick(0.35) == "slow"
        assert plan.pick(0.45) == "outlier"
        assert plan.pick(0.55) == "outlier"
        assert plan.pick(0.65) is None

    def test_outliers_injected_without_consulting_inner(self, tiny_space):
        calls = []

        def inner(config):
            calls.append(config)
            return 1.0

        metrics = MetricsRegistry(enabled=True)
        backend = FaultInjectingBackend(
            inner, FaultPlan(outlier=1.0), seed=0, metrics=metrics
        )
        configs = [tiny_space.config_at(i) for i in range(8)]
        values = backend.evaluate(configs)
        assert calls == []
        assert metrics.counter("fault.outlier") == 8
        # outliers are hostile but pass the backend boundary's checks:
        # finite, positive, drawn from the two configured magnitudes
        assert np.isfinite(values).all()
        assert (values > 0).all()
        assert set(values) == {1e-9, 1e9}


class TestUnseededWarning:
    def test_warns_once_and_names_the_fix(self, monkeypatch):
        monkeypatch.setattr(network_mod, "_UNSEEDED_WARNED", False)
        with pytest.warns(RuntimeWarning, match="RunContext.seeded"):
            FeedForwardNetwork(2, (4,), 1)
        # the second unseeded construction stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FeedForwardNetwork(2, (4,), 1)

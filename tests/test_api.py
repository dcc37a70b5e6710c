"""The ``repro.api`` facade and the deprecation policy around it.

Covers the consolidated public surface (exports, entry points, the
``seed``/``context`` convention), the removal of expired deprecated
spellings (legacy constructor keywords, ``sampler=``,
``RetryPolicy(max_attempts=)``), the canonical ``max_retries`` on
:class:`RetryPolicy`, and — crucially — that no *internal* code path
emits a DeprecationWarning (the facade and everything under it run
clean with warnings escalated to errors).
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

import repro.api as api
from repro.api import (
    RunContext,
    Environment,
    RandomAgent,
    explore,
    fit_ensemble,
    get_study,
    predict_space,
)
from repro.core.crossapp import CrossApplicationModel
from repro.core.crossval import CrossValidationEnsemble
from repro.core.encoding import ParameterEncoder, TargetScaler, design_matrix
from repro.core.resilience import RetryPolicy
from repro.core.training import (
    FoldTask,
    StackedEnsembleTrainer,
    TrainingConfig,
)


@pytest.fixture()
def strict_deprecations():
    """Escalate DeprecationWarning to an error inside the test."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


# ----------------------------------------------------------------------
# the facade itself
# ----------------------------------------------------------------------
def test_facade_exports_resolve():
    for name in api.__all__:
        assert getattr(api, name) is not None, name
    # sorted __all__ keeps the surface reviewable
    assert list(api.__all__) == sorted(api.__all__)


def test_facade_reexports_are_canonical_objects():
    from repro.core.context import RunContext as DeepRunContext
    from repro.core.training import TrainingConfig as DeepTrainingConfig
    from repro.experiments.studies import get_study as deep_get_study

    assert api.RunContext is DeepRunContext
    assert api.TrainingConfig is DeepTrainingConfig
    assert api.get_study is deep_get_study


def test_seed_and_context_are_exclusive(tiny_space):
    x = design_matrix(tiny_space)[:12]
    y = 1.0 + x.sum(axis=1)
    with pytest.raises(ValueError, match="not both"):
        fit_ensemble(
            x, y, k=4, seed=1, context=RunContext.seeded(1),
        )


def _simulate_fn(space):
    encoder = ParameterEncoder(space)
    return lambda config: float(1.0 + encoder.encode(config).sum())


def test_explore_end_to_end_matches_explorer(
    tiny_space, fast_training, strict_deprecations
):
    """``api.explore(seed=...)`` reproduces a hand-built
    ``Environment.run`` bit-for-bit, and emits zero DeprecationWarnings
    along the way."""
    simulate = _simulate_fn(tiny_space)
    result = explore(
        tiny_space,
        simulate,
        target_error=100.0,
        max_simulations=24,
        batch_size=12,
        k=4,
        training=fast_training,
        seed=7,
    )
    assert result.final_estimate is result.rounds[-1].estimate
    assert len(result.sampled_indices) <= 24

    env = Environment(
        tiny_space,
        simulate,
        target_error=100.0,
        max_simulations=24,
        batch_size=12,
        k=4,
        training=fast_training,
        context=RunContext.seeded(7),
    )
    direct = env.run(RandomAgent())
    assert direct.sampled_indices == result.sampled_indices
    assert direct.primary_targets == result.primary_targets
    np.testing.assert_array_equal(
        predict_space(direct.predictor, tiny_space),
        predict_space(result.predictor, tiny_space),
    )


def test_fit_ensemble_and_predict_space(
    tiny_space, fast_training, strict_deprecations
):
    matrix = design_matrix(tiny_space)
    idx = np.random.default_rng(0).choice(len(matrix), 16, replace=False)
    x = matrix[idx]
    y = 1.0 + x.sum(axis=1)

    outcome = fit_ensemble(x, y, k=4, training=fast_training, seed=3)
    assert outcome.estimate.n_training == len(x)

    predictions = predict_space(outcome.ensemble.predictor, tiny_space)
    assert predictions.shape == (len(tiny_space),)
    # the encoder spelling is equivalent to the space spelling
    np.testing.assert_array_equal(
        predictions,
        predict_space(
            outcome.ensemble.predictor, ParameterEncoder(tiny_space)
        ),
    )


def test_fit_ensemble_engine_is_a_deprecated_no_op(tiny_space, fast_training):
    matrix = design_matrix(tiny_space)
    idx = np.random.default_rng(0).choice(len(matrix), 16, replace=False)
    x = matrix[idx]
    y = 1.0 + x.sum(axis=1)
    plain = fit_ensemble(x, y, k=4, training=fast_training, seed=3)
    with pytest.warns(DeprecationWarning, match="engine"):
        legacy = fit_ensemble(
            x, y, k=4, training=fast_training, seed=3, engine="perfold"
        )
    assert legacy.estimate == plain.estimate
    np.testing.assert_array_equal(
        legacy.ensemble.predict(x), plain.ensemble.predict(x)
    )


def test_get_study_and_simulate_fn_importable_from_api():
    study = get_study("memory-system")
    assert len(study.space) == 23040


# ----------------------------------------------------------------------
# the search layer on the facade
# ----------------------------------------------------------------------
def test_agent_registry_exported_and_canonical(strict_deprecations):
    from repro.search import CommitteeAgent as DeepCommitteeAgent

    assert set(api.AGENTS) == {
        "random", "committee", "evolutionary", "annealing", "bayesopt"
    }
    assert api.CommitteeAgent is DeepCommitteeAgent
    for name in api.AGENTS:
        assert api.make_agent(name).name == name


def test_explore_agent_name_matches_default(
    tiny_space, fast_training, strict_deprecations
):
    """``agent="random"`` and the default are the same code path."""
    simulate = _simulate_fn(tiny_space)
    kwargs = dict(
        target_error=100.0, max_simulations=16, batch_size=8, k=4,
        training=fast_training,
    )
    default = explore(tiny_space, simulate, seed=7, **kwargs)
    named = explore(tiny_space, simulate, seed=7, agent="random", **kwargs)
    assert named.sampled_indices == default.sampled_indices
    assert named.primary_targets == default.primary_targets


# ----------------------------------------------------------------------
# expired deprecations are gone, not silently accepted
# ----------------------------------------------------------------------
def _explore_with(keyword):
    """An ``explore`` call that passes the expired ``keyword``."""
    return lambda space: explore(
        space, _simulate_fn(space), target_error=1.0, max_simulations=8,
        **{keyword: None},
    )


def _environment_with(keyword):
    """An ``Environment``, the explorer class's successor, built with the
    expired ``keyword``."""
    return lambda space: Environment(
        space, _simulate_fn(space), target_error=1.0, max_simulations=8,
        **{keyword: None},
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda space: CrossValidationEnsemble(k=4, rng=None),
        lambda space: CrossValidationEnsemble(k=4, n_jobs=1),
        lambda space: CrossValidationEnsemble(k=4, telemetry=None),
        lambda space: CrossValidationEnsemble(k=4, metrics=None),
        lambda space: CrossApplicationModel(space, ("a", "b"), rng=None),
        lambda space: RetryPolicy(max_attempts=3),
        _explore_with("rng"),
        _explore_with("telemetry"),
        _explore_with("metrics"),
        _explore_with("sampler"),
        _environment_with("rng"),
        _environment_with("telemetry"),
        _environment_with("metrics"),
        _environment_with("sampler"),
    ],
    ids=[
        "crossval-rng", "crossval-n_jobs", "crossval-telemetry",
        "crossval-metrics", "crossapp-rng", "retry-max_attempts",
        "explore-rng", "explore-telemetry", "explore-metrics",
        "explore-sampler", "explorer-rng", "explorer-telemetry",
        "explorer-metrics", "explorer-sampler",
    ],
)
def test_expired_keywords_are_rejected(build, tiny_space):
    with pytest.raises(TypeError, match="unexpected keyword"):
        build(tiny_space)


def test_expired_names_are_gone():
    import repro.core
    import repro.search
    from repro.search import ExplorationResult

    assert not hasattr(repro.core, "QueryByCommitteeSampler")
    assert not hasattr(repro.search, "SamplerAgent")
    assert "targets" not in vars(ExplorationResult)


def test_context_spelling_is_clean(strict_deprecations):
    CrossValidationEnsemble(k=4, context=RunContext.seeded(0))


# ----------------------------------------------------------------------
# RetryPolicy: max_retries is the setting, max_attempts derived
# ----------------------------------------------------------------------
def test_retry_policy_canonical_name(strict_deprecations):
    policy = RetryPolicy(max_retries=2)
    assert policy.max_retries == 2
    assert policy.max_attempts == 3


def test_retry_policy_default_unchanged(strict_deprecations):
    policy = RetryPolicy()
    assert policy.max_attempts == 3
    assert policy.max_retries == 2


def test_retry_policy_replace_roundtrips(strict_deprecations):
    policy = RetryPolicy(max_retries=1, base_delay_s=0.5)
    clone = dataclasses.replace(policy, base_delay_s=0.25)
    assert clone.max_retries == 1
    assert clone.max_attempts == 2
    assert clone.base_delay_s == 0.25


def test_retry_policy_zero_attempts_rejected():
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=-1)


# ----------------------------------------------------------------------
# internal paths are warning-free
# ----------------------------------------------------------------------
def test_robust_trainer_is_warning_free(strict_deprecations):
    """The restart-supervised fold trainer runs clean of our own
    DeprecationWarnings."""
    rng = np.random.default_rng(9)
    x = rng.uniform(0, 1, (20, 3))
    y = (0.5 + x.sum(axis=1))[:, None]
    task = FoldTask(
        train_idx=np.arange(4, 20),
        es_idx=np.arange(4),
        test_idx=np.arange(4),
        seed=4,
        scaler=TargetScaler().fit(y),
    )
    (result,) = StackedEnsembleTrainer(
        TrainingConfig(
            hidden_layers=(4,), max_epochs=20, check_interval=10, patience=5
        )
    ).fit_folds(x, y, [task])
    assert result.epochs >= 1
    assert result.network.predict(x).shape == (20, 1)

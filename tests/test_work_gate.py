"""Exact work-counter and result gate for the training hot path.

Performance work on the fold program (presentation draws, the stacked
epoch body, early-stopping checks) must change how fast training runs,
never what it computes or how much of it there is.  This gate pins both
with no timing noise:

* one seeded small ``explore`` per study (memory-system, processor,
  cache-policy) on the fast recipe, asserting the exact work counters
  (``train.epochs``, ``crossval.epochs``, ``crossval.fits``,
  ``explore.simulations``), the number of ``train.check`` events, and
  the final estimate compared with ``==``;
* a sha256 over every member's weights after one 10-fold default-recipe
  fit, plus the same for a fit whose skewed targets make folds diverge,
  restart and get quarantined.

The trajectory locks elsewhere compare at ``rtol=1e-9``; this gate is
exact.  Its values were recorded before the fold program was optimized
and must not be edited to make a change pass.
"""

import hashlib

import numpy as np
import pytest

from repro import api
from repro.core.context import RunContext
from repro.core.encoding import design_matrix
from repro.core.training import TrainingConfig
from repro.experiments.studies import get_study
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry

COUNTERS = (
    "train.epochs",
    "crossval.epochs",
    "crossval.fits",
    "explore.simulations",
)

#: study -> (explore keywords, expected counters, expected train.check
#: events, expected per-target (mean, std) of the final estimate)
EXPLORE_GOLDEN = {
    "memory-system": (
        dict(workload="mesa", max_simulations=40),
        {"train.epochs": 5750, "crossval.epochs": 5750,
         "crossval.fits": 2, "explore.simulations": 40},
        575,
        {"primary": (29.290980029789136, 24.659681292278655)},
    ),
    "processor": (
        dict(workload="mcf", max_simulations=40),
        {"train.epochs": 5510, "crossval.epochs": 5510,
         "crossval.fits": 2, "explore.simulations": 40},
        551,
        {"primary": (42.857796183967764, 30.789899077094777)},
    ),
    "cache-policy": (
        dict(workload="osc-tight", max_simulations=60, agent="committee"),
        {"train.epochs": 10990, "crossval.epochs": 10990,
         "crossval.fits": 3, "explore.simulations": 60},
        1099,
        {
            "primary": (12.100366306128219, 10.046235418533218),
            "ipc": (12.100366306128219, 10.046235418533218),
            "hit_rate": (2.881244578208582, 3.2845075423092505),
            "energy_nj": (9.814788748971747, 6.786231748399418),
        },
    ),
}

#: case -> sha256 of the fitted members' weights
WEIGHTS_GOLDEN = {
    "default-recipe": (
        "c51b982040a719904d72ad85773c9618bdb779a7cdb6817a5b1cc1fb3da91ea2"
    ),
    "quarantine": (
        "091c8fe88bd89adb7fbe498691c5d4ca43a798dea7d91c90bd468ee9be62f85f"
    ),
}


def _explore(study, **kwargs):
    metrics = MetricsRegistry(enabled=True)
    telemetry = RunTelemetry(metrics=metrics)
    context = RunContext(
        rng=np.random.default_rng(7), telemetry=telemetry, metrics=metrics
    )
    result = api.explore(
        study=study,
        target_error=1e-6,
        batch_size=20,
        training=TrainingConfig.fast_settings(),
        context=context,
        **kwargs,
    )
    return result, telemetry, metrics


def _per_target(estimate):
    values = {"primary": (estimate.mean, estimate.std)}
    for name in estimate.target_names:
        per = estimate.for_target(name)
        values[name] = (per.mean, per.std)
    return values


def _weights_digest(networks):
    digest = hashlib.sha256()
    for network in networks:
        for weight in network.weights:
            digest.update(np.ascontiguousarray(weight).tobytes())
    return digest.hexdigest()


def _study_sample(n, seed):
    matrix = design_matrix(get_study("memory-system").space)
    idx = np.random.default_rng(seed).choice(len(matrix), n, replace=False)
    x = np.array(matrix[idx])
    y = 0.5 + 1.5 * np.abs(np.sin(x.sum(axis=1))) + 0.1
    return x, y


@pytest.mark.parametrize("study", sorted(EXPLORE_GOLDEN))
def test_explore_work_and_estimate_exact(study):
    kwargs, counters, checks, per_target = EXPLORE_GOLDEN[study]
    result, telemetry, metrics = _explore(study, **kwargs)
    assert {name: metrics.counter(name) for name in COUNTERS} == counters
    assert len(telemetry.events_named("train.check")) == checks
    assert _per_target(result.final_estimate) == per_target


def test_default_recipe_weights_exact():
    """One 10-fold fit on the default (paper-adapted) recipe."""
    x, y = _study_sample(150, seed=11)
    outcome = api.fit_ensemble(
        x, y, k=10, training=TrainingConfig(), seed=5
    )
    networks = outcome.ensemble.predictor.networks
    assert len(networks) == 10
    assert _weights_digest(networks) == WEIGHTS_GOLDEN["default-recipe"]


def test_restart_and_quarantine_weights_exact():
    """A near-zero target skews presentation sampling so that folds
    diverge, restart from reseeded weights and get quarantined; the
    survivors' weights and the restart accounting are exact."""
    x, y = _study_sample(120, seed=3)
    y[0] = 1e-9
    config = TrainingConfig(
        hidden_layers=(8,), max_epochs=60, patience=6, max_restarts=2
    )
    metrics = MetricsRegistry(enabled=True)
    context = RunContext(
        rng=np.random.default_rng(3),
        telemetry=RunTelemetry(metrics=metrics),
        metrics=metrics,
    )
    with pytest.warns(RuntimeWarning, match="quarantined"):
        outcome = api.fit_ensemble(
            x, y, k=10, training=config, context=context, min_folds=1
        )
    counts = {
        name: metrics.counter(name)
        for name in ("train.diverged", "train.restarts",
                     "crossval.quarantined", "train.epochs")
    }
    assert counts == {
        "train.diverged": 3,
        "train.restarts": 2,
        "crossval.quarantined": 1,
        "train.epochs": 570,
    }
    assert len(outcome.ensemble.predictor.networks) == 9
    assert _weights_digest(outcome.ensemble.predictor.networks) == (
        WEIGHTS_GOLDEN["quarantine"]
    )

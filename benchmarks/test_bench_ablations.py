"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but quantified justifications for the
reproduction's choices and for claims the paper makes in passing:

* ANN ensemble vs the baseline regressors of Chapter 3 (linear,
  polynomial, kNN) on the same training data;
* rank vs raw-value minimax encoding of cardinal parameters;
* ensemble averaging vs the single best fold network (Section 3.2);
* active learning vs random sampling (the Chapter 7 extension);
* multi-task learning with auxiliary simulator statistics (Chapter 7).
"""

import numpy as np
from bench_utils import emit

from repro.core import (
    CrossValidationEnsemble,
    KNNRegressor,
    LinearRegression,
    ParameterEncoder,
    PolynomialRegression,
    TrainingConfig,
    percentage_errors,
)
from repro.api import explore, fit_ensemble
from repro.core.context import RunContext
from repro.cpu import get_interval_simulator
from repro.experiments import (
    encoded_space,
    full_space_ground_truth,
    get_study,
)
from repro.experiments.reporting import format_table
from repro.search import CommitteeAgent

BENCHMARK = "mesa"
TRAIN_SIZE = 400
SEED = 31


def _data():
    study = get_study("memory-system")
    truth = full_space_ground_truth(study, BENCHMARK)
    x_full = encoded_space(study)
    rng = np.random.default_rng(SEED)
    idx = rng.choice(len(study.space), TRAIN_SIZE, replace=False)
    heldout = np.ones(len(truth), dtype=bool)
    heldout[idx] = False
    return study, truth, x_full, idx, heldout


def test_ablation_model_family(once):
    """ANN ensemble vs linear/polynomial/kNN baselines."""

    def run():
        study, truth, x_full, idx, heldout = _data()
        results = {}
        ensemble = CrossValidationEnsemble(context=RunContext.seeded(SEED))
        ensemble.fit(x_full[idx], truth[idx])
        results["ANN ensemble"] = percentage_errors(
            ensemble.predict(x_full[heldout]), truth[heldout]
        ).mean()
        for name, model in (
            ("linear", LinearRegression()),
            ("polynomial(2)", PolynomialRegression()),
            ("kNN(5)", KNNRegressor(5)),
        ):
            model.fit(x_full[idx], truth[idx])
            results[name] = percentage_errors(
                model.predict(x_full[heldout]), truth[heldout]
            ).mean()
        return results

    results = once(run)
    emit(
        format_table(
            ["Model", "Mean % error (full space)"],
            [[k, f"{v:.2f}%"] for k, v in results.items()],
            title=f"Ablation: model family ({BENCHMARK}, {TRAIN_SIZE} sims)",
        )
    )
    assert results["ANN ensemble"] < results["linear"]
    assert results["ANN ensemble"] < results["kNN(5)"]


def test_ablation_cardinal_encoding(once):
    """Rank (log-like) vs raw-value minimax encoding."""

    def run():
        study, truth, _, idx, heldout = _data()
        results = {}
        for encoding in ("rank", "value"):
            encoder = ParameterEncoder(study.space, cardinal_encoding=encoding)
            x_full = encoder.encode_space()
            ensemble = CrossValidationEnsemble(
                context=RunContext.seeded(SEED)
            )
            ensemble.fit(x_full[idx], truth[idx])
            results[encoding] = percentage_errors(
                ensemble.predict(x_full[heldout]), truth[heldout]
            ).mean()
        return results

    results = once(run)
    emit(
        format_table(
            ["Cardinal encoding", "Mean % error"],
            [[k, f"{v:.2f}%"] for k, v in results.items()],
            title="Ablation: cardinal parameter encoding",
        )
    )
    assert results["rank"] <= results["value"] * 1.25


def test_ablation_ensemble_vs_single(once):
    """Averaging the k fold networks vs any individual member."""

    def run():
        _, truth, x_full, idx, heldout = _data()
        ensemble = CrossValidationEnsemble(context=RunContext.seeded(SEED))
        ensemble.fit(x_full[idx], truth[idx])
        member_preds = ensemble.predictor.member_predictions(x_full[heldout])
        member_errors = [
            percentage_errors(p, truth[heldout]).mean() for p in member_preds
        ]
        ensemble_error = percentage_errors(
            ensemble.predict(x_full[heldout]), truth[heldout]
        ).mean()
        return ensemble_error, member_errors

    ensemble_error, member_errors = once(run)
    emit(
        format_table(
            ["Predictor", "Mean % error"],
            [["ensemble average", f"{ensemble_error:.2f}%"]]
            + [
                [f"fold model {i}", f"{e:.2f}%"]
                for i, e in enumerate(member_errors)
            ],
            title="Ablation: ensemble averaging (Section 3.2)",
        )
    )
    # the paper: averaging often beats single models; it must at least
    # beat the average member
    assert ensemble_error <= np.mean(member_errors)


def test_ablation_active_learning(once):
    """Query-by-committee sampling vs uniform random sampling."""

    def run():
        study = get_study("memory-system")
        truth = full_space_ground_truth(study, BENCHMARK)
        x_full = encoded_space(study)
        evaluator = get_interval_simulator(BENCHMARK)
        training = TrainingConfig(max_epochs=1500, patience=25)

        def simulate(point):
            return evaluator.evaluate_ipc(study.to_machine(point))

        results = {}
        for label, agent in (
            ("random", None),
            ("active (QBC)", CommitteeAgent()),
        ):
            result = explore(
                study.space,
                simulate,
                target_error=0.1,
                max_simulations=300,
                batch_size=100,
                training=training,
                context=RunContext.seeded(SEED),
                agent=agent,
            )
            heldout = np.ones(len(truth), dtype=bool)
            heldout[result.sampled_indices] = False
            errors = percentage_errors(
                result.predict_space()[heldout], truth[heldout]
            )
            results[label] = errors.mean()
        return results

    results = once(run)
    emit(
        format_table(
            ["Sampling strategy", "Mean % error @ 300 sims"],
            [[k, f"{v:.2f}%"] for k, v in results.items()],
            title="Ablation: active learning (Chapter 7 extension)",
        )
    )
    # active learning should be at least competitive with random
    assert results["active (QBC)"] <= results["random"] * 1.5


def test_ablation_multitask(once):
    """Multi-task learning with auxiliary simulator statistics."""

    def run():
        study = get_study("memory-system")
        truth = full_space_ground_truth(study, BENCHMARK)
        x_full = encoded_space(study)
        evaluator = get_interval_simulator(BENCHMARK)
        rng = np.random.default_rng(SEED)
        idx = rng.choice(len(study.space), TRAIN_SIZE, replace=False)
        metrics = [
            evaluator.evaluate(study.machine_at(int(i))) for i in idx
        ]
        y = np.array(
            [
                [
                    m["ipc"],
                    m["l1d_misses_per_instruction"] + 1e-6,
                    m["l2_misses_per_instruction"] + 1e-6,
                ]
                for m in metrics
            ]
        )
        training = TrainingConfig(max_epochs=1500, patience=25)
        model = fit_ensemble(
            x_full[idx],
            y,
            training=training,
            seed=SEED,
            target_names=("ipc", "l1d_mpi", "l2_mpi"),
        ).ensemble.predictor
        heldout = np.ones(len(truth), dtype=bool)
        heldout[idx] = False
        errors = percentage_errors(
            model.predict(x_full[heldout]), truth[heldout]
        )
        return float(errors.mean())

    error = once(run)
    emit(
        format_table(
            ["Model", "Mean % error"],
            [["multi-task (IPC + miss rates)", f"{error:.2f}%"]],
            title="Ablation: multi-task learning (Chapter 7 extension)",
        )
    )
    assert error < 15.0

#!/usr/bin/env python
"""Quickstart: model a design space from a handful of simulations.

Reproduces the paper's core loop on the memory-system study (Table 4.1)
for one benchmark:

1. define the design space (23,040 points);
2. simulate small random batches of configurations;
3. train a 10-fold cross-validation ANN ensemble after each batch;
4. stop when the cross-validation error estimate is low enough;
5. predict the entire space and find the best configuration without
   simulating it exhaustively.

The run is instrumented with ``repro.obs``: a telemetry stream records
every exploration round and a metrics registry counts simulations and
simulated instructions; the summary you see is a rendered
``TelemetryReport`` (the same document ``repro explore
--telemetry-out`` writes), not ad-hoc prints.

Run:  python examples/quickstart.py [benchmark] [target_error%]
"""

import sys

import numpy as np

from repro import (
    RunContext,
    RunTelemetry,
    TelemetryReport,
    enable_metrics,
    get_study,
    make_simulate_fn,
)
from repro.api import explore
from repro.core.training import TrainingConfig
from repro.experiments import full_space_ground_truth


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "mcf"
    target_error = float(sys.argv[2]) if len(sys.argv) > 2 else 3.0

    study = get_study("memory-system")
    print(f"design space: {study.space.name}, {len(study.space):,} points")
    print(f"benchmark:    {benchmark}")
    print(f"target:       {target_error:.1f}% estimated mean error\n")

    # observability: metrics count what happened, telemetry narrates it;
    # a RunContext bundles them with the seeded rng so every layer
    # (exploration loop, ensemble, trainer) shares the same hooks
    metrics = enable_metrics()
    telemetry = RunTelemetry(metrics=metrics)
    context = RunContext.seeded(42, telemetry=telemetry, metrics=metrics)

    simulate = make_simulate_fn(study, benchmark)
    result = explore(
        study.space,
        simulate,
        target_error=target_error,
        max_simulations=800,
        batch_size=50,  # the paper collects results in batches of 50
        training=TrainingConfig(),
        context=context,
    )

    # the run summary: simulations used, error trajectory, time per phase
    report = TelemetryReport(
        telemetry, metrics, title=f"quickstart: {benchmark}"
    )
    print(report.to_markdown())

    # predict the whole space and pick the best configuration
    predictions = result.predict_space()
    best_index = int(np.argmax(predictions))
    best = study.space.config_at(best_index)
    print(f"predicted-best configuration (IPC {predictions[best_index]:.3f}):")
    for key, value in best.items():
        print(f"  {key:>20} = {value}")

    # how good was the model really?  (we can afford exhaustive truth)
    truth = full_space_ground_truth(study, benchmark)
    heldout = np.ones(len(truth), dtype=bool)
    heldout[result.sampled_indices] = False
    errors = 100 * np.abs(predictions[heldout] - truth[heldout]) / truth[heldout]
    print(f"\ntrue error on the {heldout.sum():,} unsimulated points: "
          f"{errors.mean():.2f}% +/- {errors.std():.2f}%")
    true_best = int(np.argmax(truth))
    print(f"true-best IPC {truth[true_best]:.3f}; "
          f"model's pick achieves {truth[best_index]:.3f} "
          f"({100 * truth[best_index] / truth[true_best]:.1f}% of optimal)")


if __name__ == "__main__":
    main()

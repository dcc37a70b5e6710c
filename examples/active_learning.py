#!/usr/bin/env python
"""Active learning and multi-task learning (Chapter 7's future work).

Two extensions the paper proposes, implemented here:

* **Active learning** — rather than sampling the design space uniformly,
  let the model pick the points it is least sure about
  (query-by-committee over the cross-validation ensemble).
* **Multi-task learning** — train one network that predicts IPC *and*
  auxiliary simulator statistics (L1/L2 miss rates; the memory-system
  study holds the branch predictor fixed, so the misprediction rate is
  constant and carries no trainable signal), sharing hidden-layer
  features across the correlated metrics.

Run:  python examples/active_learning.py [benchmark]
"""

import sys

import numpy as np

from repro import get_study
from repro.api import fit_ensemble
from repro.core import DesignSpaceExplorer, RunContext, percentage_errors
from repro.cpu import get_interval_simulator
from repro.experiments import encoded_space, full_space_ground_truth
from repro.search import CommitteeAgent

BUDGET = 300
BATCH = 50


def run_strategy(study, simulate, agent, seed):
    explorer = DesignSpaceExplorer(
        study.space,
        simulate,
        batch_size=BATCH,
        context=RunContext.seeded(seed),
        agent=agent,
    )
    return explorer.explore(target_error=0.1, max_simulations=BUDGET)


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "twolf"
    study = get_study("memory-system")
    evaluator = get_interval_simulator(benchmark)
    truth = full_space_ground_truth(study, benchmark)
    x_full = encoded_space(study)

    def simulate(point):
        return evaluator.evaluate_ipc(study.to_machine(point))

    # --- active vs random sampling --------------------------------------
    print(f"{benchmark}: {BUDGET} simulations "
          f"({100 * BUDGET / len(study.space):.2f}% of the space)\n")
    print("strategy        estimated      true (full space)")
    # agent= accepts any repro.search strategy; "evolutionary",
    # "annealing" and "bayesopt" plug in the same way (or via the CLI's
    # --agent flag)
    for label, agent in (
        ("random", None),
        ("active (QBC)", CommitteeAgent()),
    ):
        result = run_strategy(study, simulate, agent, seed=5)
        heldout = np.ones(len(truth), dtype=bool)
        heldout[result.sampled_indices] = False
        errors = percentage_errors(
            result.predict_space()[heldout], truth[heldout]
        )
        print(f"{label:<14}  {result.final_estimate.mean:5.2f}%        "
              f"{errors.mean():5.2f}% +/- {errors.std():.2f}%")

    # --- multi-task learning ---------------------------------------------
    print("\nmulti-task learning (IPC + L1/L2 miss rates):")
    rng = np.random.default_rng(9)
    indices = study.space.sample_indices(BUDGET, rng)
    metrics = [evaluator.evaluate(study.machine_at(i)) for i in indices]
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
    # one network per fold with an output head per metric, IPC first
    model = fit_ensemble(
        x_full[indices], y, target_names=("ipc", "l1_mpi", "l2_mpi"), seed=9
    ).ensemble.predictor
    heldout = np.ones(len(truth), dtype=bool)
    heldout[indices] = False
    errors = percentage_errors(model.predict(x_full[heldout]), truth[heldout])
    print(f"  IPC error with shared auxiliary heads: "
          f"{errors.mean():.2f}% +/- {errors.std():.2f}%")
    predictions = model.predict_all(x_full[:3])
    print("  sample predictions (ipc, l1_mpi, l2_mpi):")
    for row in predictions:
        print("   ", " ".join(f"{v:.4f}" for v in row))


if __name__ == "__main__":
    main()

"""One benchmark repetition, in a fresh process.

Run by ``run.py``, never by hand: set-up, the fixed-budget exploration
and the full-space prediction of one workload, timed from process
launch, followed by the output checks and the model's error against the
study's own simulator (outside every timed region).  With ``--trace``
the calls into each layer are also recorded as spans.  The result is
written as JSON to ``<dir>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

# every import below is set-up time: the clock started at launch
import numpy as np  # noqa: E402
from metrics import layer_metrics  # noqa: E402
from spans import SpanRecorder, chrome_trace  # noqa: E402
from workloads import (  # noqa: E402
    THREAD_VARS,
    UNREACHABLE_TARGET_ERROR,
    WORKLOADS,
)

from repro.api import (  # noqa: E402
    Environment,
    RunContext,
    explore,
    get_study,
    make_agent,
    make_simulate_fn,
    predict_space,
)
from repro.core.backend import ProcessPoolBackend, SerialBackend  # noqa: E402
from repro.core.encoding import design_matrix  # noqa: E402
from repro.core.kernels import EnsembleTrainingKernel, TrainingKernel  # noqa: E402
from repro.core.resilience import ResilientBackend, RetryPolicy  # noqa: E402
from repro.cpu.simulator import get_interval_simulator  # noqa: E402

IMPORTED = time.monotonic()


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() when the process was spawned")
    parser.add_argument("--dir", type=Path, required=True,
                        help="private directory for this repetition")
    parser.add_argument("--reference-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--budget", type=int,
                        help="override the workload's budget (smoke tests)")
    parser.add_argument("--batch-size", type=int,
                        help="override the workload's batch size (smoke tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    launch = args.launch
    workload = WORKLOADS[args.workload]
    if args.budget is not None:
        workload = replace(workload, budget=args.budget)
    if args.batch_size is not None:
        workload = replace(workload, batch_size=args.batch_size)
    recorder = SpanRecorder(worker_dir=args.dir / "workers") if args.trace else None
    if recorder is not None:
        (args.dir / "workers").mkdir(parents=True, exist_ok=True)
        root = recorder.begin("run", launch)
        setup = recorder.begin("setup", launch)
        recorder.add("imports", launch, IMPORTED)

    study = get_study(workload.study)
    simulate = make_simulate_fn(study, workload.trace)

    def span(name):
        return recorder.span(name) if recorder is not None else nullcontext()

    with span("workloads.profile"):
        if not study.is_multi_target:
            get_interval_simulator(workload.trace)
    with span("encoding.design_matrix"):
        design_matrix(study.space)
    with span("backend.start"):
        if workload.n_jobs > 1:
            backend = ProcessPoolBackend(simulate, n_jobs=workload.n_jobs)
            # start the workers now, so pool start-up is set-up time
            backend.evaluate(
                [study.space.config_at(i) for i in range(workload.n_jobs)]
            )
        else:
            backend = SerialBackend(simulate)
        if workload.max_retries:
            backend = ResilientBackend(
                backend,
                policy=RetryPolicy(
                    max_retries=workload.max_retries,
                    base_delay_s=0.05,
                    seed=args.seed,
                ),
            )
    checkpoint = (
        str(args.dir / "explore.ckpt") if workload.checkpoint else None
    )
    context = RunContext.seeded(args.seed, n_jobs=workload.n_jobs)

    restore = []
    if recorder is not None:
        recorder.end(setup)
        instrument = recorder.instrument
        restore = [
            instrument(type(make_agent(workload.agent)), "propose",
                       "search.propose", lambda a, r: len(r or ())),
            instrument(type(backend), "evaluate", "backend.evaluate",
                       lambda a, r: len(a[1])),
            instrument(Environment, "step", "fit.round", _quarantined),
            instrument(Environment, "save", "checkpoint.save", _saved_bytes),
            instrument(TrainingKernel, "run_epoch", "kernels.epoch",
                       lambda a, r: 1),
            instrument(EnsembleTrainingKernel, "run_epoch", "kernels.epoch",
                       lambda a, r: len(a[1])),
            instrument(EnsembleTrainingKernel, "predict_member",
                       "kernels.member_predict"),
        ]
        explore_span = recorder.begin("explore")

    t_setup = time.monotonic()
    try:
        result = explore(
            study.space,
            backend,
            target_error=UNREACHABLE_TARGET_ERROR,
            max_simulations=workload.budget,
            batch_size=workload.batch_size,
            context=context,
            agent=workload.agent,
            checkpoint=checkpoint,
        )
        t_explore = time.monotonic()
        if recorder is not None:
            recorder.end(explore_span)
        with span("predict.space"):
            predictions = predict_space(result.predictor, study.space)
        t_model = time.monotonic()
        if recorder is not None:
            recorder.end(root)
    finally:
        for undo in restore:
            undo()
        backend.close()

    usage_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage_workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    # -- outside every timed region: reference, checks, accounting ----
    reference = _reference(args.reference_dir, study, workload, simulate)
    sampled = np.asarray(result.sampled_indices, dtype=np.intp)
    targets = np.asarray(result.primary_targets, dtype=np.float64)
    finite = np.isfinite(targets)
    unsampled = np.ones(len(study.space), dtype=bool)
    unsampled[sampled] = False
    predictions = np.asarray(predictions, dtype=np.float64)
    primary = predictions if predictions.ndim == 1 else predictions[:, 0]
    true_error = float(
        np.mean(
            np.abs(primary[unsampled] - reference[unsampled])
            / reference[unsampled]
        )
        * 100.0
    )
    checks = {
        "budget_spent": (
            result.n_simulations == workload.budget and not result.converged
        ),
        "distinct_in_space": (
            len(set(result.sampled_indices)) == len(sampled)
            and bool(np.all((sampled >= 0) & (sampled < len(study.space))))
        ),
        "targets_match_simulator": bool(
            np.array_equal(targets[finite], reference[sampled][finite])
        ),
        "predictions_finite": (
            primary.shape == (len(study.space),)
            and bool(np.all(np.isfinite(primary)))
        ),
        "checkpoint_cleared": (
            checkpoint is None or not Path(checkpoint).exists()
        ),
    }
    estimates = [round_.estimate for round_ in result.rounds]
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": t_setup - launch,
        "explore_s": t_explore - t_setup,
        "predict_s": t_model - t_explore,
        "time_to_model_s": t_model - launch,
        "peak_rss_mb": (usage_self + usage_workers) / 1024.0,
        "cv_error_pct": float(result.final_estimate.mean),
        "true_error_pct": true_error,
        "trajectory": [[r.n_samples, r.estimate.mean] for r in result.rounds],
        "simulations": int(len(sampled)),
        "nan_simulations": int((~finite).sum()),
        "folds_trained": int(sum(e.n_folds for e in estimates)),
        "folds_quarantined": int(
            sum(e.n_folds - e.n_folds_used for e in estimates)
        ),
        "checks": checks,
        "threads": {var: os.environ.get(var, "") for var in THREAD_VARS},
    }
    if recorder is not None:
        workers = recorder.worker_spans()
        out["layers"] = layer_metrics(
            recorder.spans, workers, points=len(study.space)
        )
        with open(args.dir / "trace.json", "w") as handle:
            json.dump(chrome_trace(recorder.spans + workers), handle)
    with open(args.dir / "result.json", "w") as handle:
        json.dump(out, handle)
    return 0


def _quarantined(args, round_) -> float:
    if round_ is None:
        return 0.0
    return float(round_.estimate.n_folds - round_.estimate.n_folds_used)


def _saved_bytes(args, result) -> float:
    path = args[0].checkpoint_path
    return float(path.stat().st_size) if path is not None else 0.0


def _reference(directory: Path, study, workload, simulate) -> np.ndarray:
    """The primary target of every design point, from the study's own
    simulator; computed once per checkout and kept in ``directory``."""
    path = directory / f"{study.name}-{workload.trace}.npy"
    if path.exists():
        return np.load(path)
    values = np.fromiter(
        (simulate(config) for config in study.space),
        dtype=np.float64,
        count=len(study.space),
    )
    if not np.all(np.isfinite(values) & (values > 0)):
        raise SystemExit(f"reference for {study.name} has invalid targets")
    directory.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npy")
    np.save(tmp, values)
    os.replace(tmp, path)
    return values


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's metric declarations and the arithmetic behind them.

``END_TO_END`` are what the architect running an exploration sees, and
are measured with tracing off.  ``PER_LAYER`` come from the traced run
of the same seed; each is derived from the spans of
:mod:`spans` by :func:`layer_metrics`, except ``trace.overhead_frac``
(traced against untraced ``explore_s``) and the run accounting that
``run.py`` adds.  ``BENCHMARK.json`` declares the same names.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from spans import Span, layer_self_times, totals_by_name


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median the metric may worsen by (end-to-end)
    bound: Optional[float] = None


END_TO_END: Sequence[Metric] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("explore_s", "s", "lower", 0.25),
    Metric("time_to_model_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

#: layers charged with self time, in report order; ``unattributed`` is
#: the self time of the structural spans (explore loop, study lookup...)
LAYERS = (
    "imports", "workloads", "encoding", "backend", "search", "fit",
    "kernels", "checkpoint", "predict", "unattributed",
)

PER_LAYER: Sequence[Metric] = (
    Metric("search.propose_s", "s", "lower"),
    Metric("search.proposals", "count", "lower"),
    Metric("backend.start_s", "s", "lower"),
    Metric("backend.evaluate_s", "s", "lower"),
    Metric("backend.evaluations", "count", "lower"),
    Metric("backend.us_per_eval", "us", "lower"),
    Metric("backend.failed", "count", "lower"),
    Metric("workloads.profile_s", "s", "lower"),
    Metric("encoding.design_matrix_s", "s", "lower"),
    Metric("fit.s", "s", "lower"),
    Metric("fit.rounds", "count", "lower"),
    Metric("fit.share", "frac", "lower"),
    Metric("fit.folds_quarantined", "count", "lower"),
    Metric("fit.overhead_s", "s", "lower"),
    Metric("kernels.epoch_calls", "count", "lower"),
    Metric("kernels.member_epochs", "count", "lower"),
    Metric("kernels.epoch_s", "s", "lower"),
    Metric("kernels.us_per_epoch", "us", "lower"),
    Metric("kernels.worker_frac", "frac", "lower"),
    Metric("kernels.member_predict_calls", "count", "lower"),
    Metric("kernels.member_predict_s", "s", "lower"),
    Metric("checkpoint.save_s", "s", "lower"),
    Metric("checkpoint.saves", "count", "lower"),
    Metric("checkpoint.bytes", "B", "lower"),
    Metric("predict.space_s", "s", "lower"),
    Metric("predict.points_per_s", "1/s", "higher"),
    *(Metric(f"self.{layer}_s", "s", "lower") for layer in LAYERS),
    Metric("trace.run_s", "s", "lower"),
    Metric("trace.spans", "count", "lower"),
    Metric("trace.overhead_frac", "frac", "lower"),
    Metric("cv_error_pct", "%", "lower"),
    Metric("true_error_pct", "%", "lower"),
    Metric("failed_frac", "frac", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Sequence[Span], worker_spans: Sequence[Span], points: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced run.

    ``spans`` is the main process's span tree; ``worker_spans`` are
    the spans forked training workers recorded (their time overlaps the
    main process's and is counted in the kernel metrics only).  ``points`` is
    the design-space size ``predict_space`` covered.
    """
    main = totals_by_name(spans)
    every = totals_by_name(list(spans) + list(worker_spans))
    workers = totals_by_name(worker_spans)

    def get(table, name, key):
        return table.get(name, {}).get(key, 0.0)

    own = layer_self_times(spans)
    explore_s = get(main, "explore", "s")
    evaluate_s = get(main, "backend.evaluate", "s")
    evaluations = get(main, "backend.evaluate", "count")
    fit_s = get(main, "fit.round", "s") - evaluate_s
    epoch_s = get(every, "kernels.epoch", "s")
    epoch_calls = get(every, "kernels.epoch", "calls")
    predict_s = get(main, "predict.space", "s")
    saves = sum(
        1 for span in spans if span.name == "checkpoint.save" and span.count
    )
    out = {
        "search.propose_s": get(main, "search.propose", "s"),
        "search.proposals": get(main, "search.propose", "count"),
        "backend.start_s": get(main, "backend.start", "s"),
        "backend.evaluate_s": evaluate_s,
        "backend.evaluations": evaluations,
        "backend.us_per_eval": _ratio(evaluate_s, evaluations) * 1e6,
        "workloads.profile_s": get(main, "workloads.profile", "s"),
        "encoding.design_matrix_s": get(main, "encoding.design_matrix", "s"),
        "fit.s": fit_s,
        "fit.rounds": get(main, "fit.round", "calls"),
        "fit.share": _ratio(fit_s, explore_s),
        "fit.folds_quarantined": get(main, "fit.round", "count"),
        "fit.overhead_s": own.get("fit", 0.0),
        "kernels.epoch_calls": epoch_calls,
        "kernels.member_epochs": get(every, "kernels.epoch", "count"),
        "kernels.epoch_s": epoch_s,
        "kernels.us_per_epoch": _ratio(epoch_s, epoch_calls) * 1e6,
        "kernels.worker_frac": _ratio(
            get(workers, "kernels.epoch", "s"), epoch_s
        ),
        "kernels.member_predict_calls": get(
            every, "kernels.member_predict", "calls"
        ),
        "kernels.member_predict_s": get(every, "kernels.member_predict", "s"),
        "checkpoint.save_s": get(main, "checkpoint.save", "s"),
        "checkpoint.saves": float(saves),
        "checkpoint.bytes": get(main, "checkpoint.save", "count"),
        "predict.space_s": predict_s,
        "predict.points_per_s": _ratio(points, predict_s),
        "trace.run_s": get(main, "run", "s"),
        "trace.spans": float(len(spans) + len(worker_spans)),
    }
    for layer in LAYERS:
        key = None if layer == "unattributed" else layer
        out[f"self.{layer}_s"] = own.get(key, 0.0)
    return out


class Accounting(NamedTuple):
    """Work attempted and failed over a run's repetitions."""

    attempted: int
    failed: int

    @property
    def failed_frac(self) -> float:
        return _ratio(self.failed, self.attempted)


def account(results: Sequence[Mapping], extra_checks: Mapping[str, bool]) -> Accounting:
    """Count simulations, trained folds and output checks as attempts;
    NaN-marked simulations, quarantined folds and failed checks as
    failures.  ``extra_checks`` are checks made across repetitions."""
    attempted = failed = 0
    for result in results:
        attempted += result["simulations"] + result["folds_trained"]
        failed += result["nan_simulations"] + result["folds_quarantined"]
        attempted += len(result["checks"])
        failed += sum(not ok for ok in result["checks"].values())
    attempted += len(extra_checks)
    failed += sum(not ok for ok in extra_checks.values())
    return Accounting(attempted, failed)


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (a single value stands for all three)."""
    values = list(values)
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]

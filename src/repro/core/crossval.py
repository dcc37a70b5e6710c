"""K-fold cross-validation ensembles (Section 3.2, Figure 3.3).

The training sample is split into ``k`` folds.  Model ``i`` trains on
``k-2`` folds, early-stops on one fold and is tested on another; rotating
the roles gives ``k`` models, each fold serving exactly once as the
early-stopping set and once as the test set.  The ``k`` models form an
ensemble whose prediction is the average of the members' predictions, and
whose accuracy on the full design space is estimated from the per-point
percentage errors the members make on their held-out test folds.

Every fit — one target or several (the Chapter 7 multi-task extension:
the same network with extra output heads) — trains its folds through
:class:`~repro.core.training.StackedEnsembleTrainer`.  ``n_jobs`` only
chooses *where* the folds train: in-process, or in round-robin shares
across worker processes (the paper trains its 10 folds on a 10-node
cluster, Section 5.4).  The dataset is shipped to each worker once,
through the pool initializer, tasks carry only index arrays, seeds and
scalers, and every fold's telemetry and metrics are replayed in fold
order, so results and observability streams do not depend on
``n_jobs``.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry
from .context import RunContext, default_n_jobs, resolve_context
from .encoding import MultiTargetScaler, TargetScaler
from .ensemble import EnsemblePredictor
from .error import ErrorEstimate
from .network import TrainingDiverged
from .training import (
    FoldResult,
    FoldTask,
    StackedEnsembleTrainer,
    TrainingConfig,
)

__all__ = [
    "DEFAULT_FOLDS",
    "DEFAULT_MIN_FOLDS",
    "CrossValidationEnsemble",
    "default_n_jobs",
    "make_folds",
]

#: the paper uses 10-fold cross validation throughout
DEFAULT_FOLDS = 10

#: minimum number of folds that must survive training (after restarts)
#: for an ensemble fit to stand; fewer raises instead of degrading
DEFAULT_MIN_FOLDS = 2


# ----------------------------------------------------------------------
# worker-process plumbing: the dataset is installed once per worker via
# the pool initializer; each task is then one worker's share of folds
# ----------------------------------------------------------------------
_FOLD_STATE: Optional[Tuple] = None


def _init_fold_worker(
    x: np.ndarray,
    y: np.ndarray,
    training: TrainingConfig,
    capture_telemetry: bool,
    capture_metrics: bool,
) -> None:
    """Pool initializer: receive the shared dataset once per worker."""
    global _FOLD_STATE
    _FOLD_STATE = (x, y, training, capture_telemetry, capture_metrics)


def _run_fold_share(tasks: Sequence[FoldTask]) -> List[FoldResult]:
    """Worker task: train a share of the folds against the dataset."""
    assert _FOLD_STATE is not None, "fold-worker initializer did not run"
    x, y, training, capture_telemetry, capture_metrics = _FOLD_STATE
    return StackedEnsembleTrainer(training).fit_folds(
        x, y, tasks, capture_telemetry, capture_metrics
    )


def make_folds(
    n: int, k: int, rng: Optional[np.random.Generator] = None
) -> List[np.ndarray]:
    """Split ``range(n)`` into ``k`` near-equal shuffled folds."""
    if k < 3:
        raise ValueError(
            f"cross validation needs k >= 3 (train/ES/test roles), got {k}"
        )
    if n < k:
        raise ValueError(f"cannot split {n} points into {k} non-empty folds")
    indices = np.arange(n)
    if rng is not None:
        rng.shuffle(indices)
    return [fold.copy() for fold in np.array_split(indices, k)]


class CrossValidationEnsemble:
    """Train and hold a k-fold ANN ensemble.

    Parameters
    ----------
    k:
        Number of folds (and ensemble members).
    training:
        Hyperparameters shared by all members (including the
        ``max_restarts`` budget each fold may spend on divergence).
    min_folds:
        Folds that must survive training for the fit to stand.  A fold
        whose training diverges through all restarts is *quarantined*:
        its model is dropped from the ensemble and its held-out test
        points from the error estimate.  When at least ``min_folds``
        survive the fit degrades gracefully (a ``RuntimeWarning`` plus
        ``crossval.quarantine`` telemetry); below that it raises
        :class:`~repro.core.network.TrainingDiverged`.
    target_names:
        Empty (the default) for a scalar fit on a 1-D ``y``.  Naming
        the columns of a 2-D ``y`` (primary first) makes a multi-target
        fit: one network per fold with one output head per target, an
        estimate carrying the per-target breakdown in ``per_target``,
        and a predictor whose ``predict_all`` returns every target.
    context:
        :class:`~repro.core.context.RunContext` supplying the generator
        (fold shuffling and per-fold seeds), the observability hooks and
        the fold-training worker budget ``n_jobs``.

    Each :meth:`fit` emits per-fold ``crossval.fold`` events (wall time,
    epochs) and one ``crossval.fit`` event carrying the
    worker-utilization summary, and records ``train.fold`` timings and
    ``crossval.*`` counters.  Per-check ``train.*`` events are recorded
    per fold and replayed in fold order, so the stream's contents do not
    depend on ``n_jobs``.
    """

    def __init__(
        self,
        k: int = DEFAULT_FOLDS,
        training: Optional[TrainingConfig] = None,
        context: Optional[RunContext] = None,
        min_folds: Optional[int] = None,
        target_names: Sequence[str] = (),
    ):
        self.k = k
        self.training = training or TrainingConfig()
        self.min_folds = DEFAULT_MIN_FOLDS if min_folds is None else min_folds
        if not 1 <= self.min_folds <= k:
            raise ValueError(
                f"min_folds must be in [1, k={k}], got {self.min_folds}"
            )
        self.target_names = tuple(target_names)
        self.context = resolve_context(context)
        self.predictor: Optional[EnsemblePredictor] = None
        self.estimate: Optional[ErrorEstimate] = None

    # -- context accessors (kept for pre-context call sites) -----------
    @property
    def rng(self) -> np.random.Generator:
        return self.context.rng

    @property
    def n_jobs(self) -> int:
        return self.context.n_jobs

    @property
    def telemetry(self) -> RunTelemetry:
        return self.context.telemetry

    @property
    def metrics(self) -> MetricsRegistry:
        return self.context.metrics

    def _target_matrix(self, y: np.ndarray) -> np.ndarray:
        """``y`` as the ``(n, n_targets)`` matrix the folds train on."""
        y = np.asarray(y, dtype=np.float64)
        names = self.target_names
        if not names:
            if y.ndim != 1:
                raise ValueError(
                    f"a scalar fit takes a 1-D target vector, got shape "
                    f"{y.shape}; name the columns with target_names= "
                    "for a multi-target fit"
                )
            return y.reshape(-1, 1)
        if y.ndim != 2 or y.shape[1] != len(names):
            raise ValueError(
                f"targets must have shape (n, {len(names)}) to match "
                f"target_names {names!r}, got {y.shape}"
            )
        if np.any(y == 0):
            raise ValueError(
                "percentage error is undefined for zero targets; every "
                "declared target must be nonzero at every sampled point"
            )
        return y

    def _fold_tasks(
        self, y: np.ndarray
    ) -> Tuple[List[FoldTask], TrainingConfig]:
        """Per-fold tasks, and the training recipe they run under.

        Figure 3.3 layout: model ``i`` early-stops on fold ``i+k-2`` and
        is tested on fold ``i+k-1``, so every fold plays each role
        exactly once.  The rng is consumed identically for every fit:
        the fold shuffle, then one seed per fold.

        This is the one place the scalar and multi-target recipes
        differ; the fold program itself never branches on target count.
        A scalar fit scales its target once, over the whole sample, and
        trains the configured recipe.  A multi-target fit follows two
        rules instead:

        1. Targets are min-max scaled per fold, on that fold's training
           rows, one range per column, so no fold's scaler sees its
           early-stopping or test rows.  The multi-target golden
           trajectory in ``tests/test_cachepolicy.py`` pins this
           scaling.
        2. Plateau learning-rate decay is off.  Turning it on raises
           the cache-policy ipc CV error, up to doubling it: 5.5%, 5.7%
           and 7.9% without decay against 10.1%, 7.9% and 9.4% with it
           (osc-tight, 100 random simulations in batches of 50, default
           recipe, seeds 1-3).
        """
        shared = None if self.target_names else TargetScaler().fit(y)
        config = self.training
        if self.target_names:
            config = dataclasses.replace(config, lr_decay=1.0)
        folds = make_folds(len(y), self.k, self.rng)
        seeds = self.rng.integers(0, 2**63 - 1, size=self.k)
        tasks = []
        for i in range(self.k):
            es = (i + self.k - 2) % self.k
            test = (i + self.k - 1) % self.k
            train_idx = np.concatenate(
                [folds[j] for j in range(self.k) if j not in (es, test)]
            )
            scaler = (
                shared if shared is not None
                else MultiTargetScaler().fit(y[train_idx])
            )
            tasks.append(
                FoldTask(train_idx, folds[es], folds[test], int(seeds[i]), scaler)
            )
        return tasks, config

    def _train_folds(
        self,
        x: np.ndarray,
        y: np.ndarray,
        tasks: List[FoldTask],
        config: TrainingConfig,
    ) -> Tuple[List[FoldResult], int]:
        """Train every fold; returns the results in fold order and the
        number of processes that trained them.

        With several workers each gets a round-robin share of the
        folds and runs it through the same stacked trainer, so
        ``n_jobs`` never changes how a fold trains.
        """
        capture = (self.telemetry.enabled, self.metrics.enabled)
        n_workers = min(self.n_jobs, self.k)
        if n_workers == 1:
            results = StackedEnsembleTrainer(config).fit_folds(
                x, y, tasks, *capture
            )
        else:
            with ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_fold_worker,
                initargs=(x, y, config, *capture),
            ) as pool:
                shares = list(
                    pool.map(
                        _run_fold_share,
                        [tasks[w::n_workers] for w in range(n_workers)],
                    )
                )
            results = [None] * len(tasks)
            for w, share in enumerate(shares):
                results[w::n_workers] = share
        for result in results:
            result.replay(self.telemetry, self.metrics)
        return results, n_workers

    def fit(self, x: np.ndarray, y: np.ndarray) -> ErrorEstimate:
        """Train the ensemble on raw targets; returns the CV error estimate.

        ``y`` is a 1-D vector for a scalar fit, or an ``(n, n_targets)``
        matrix matching ``target_names`` for a multi-target one; the
        returned estimate describes the primary target either way."""
        x = np.asarray(x, dtype=np.float64)
        y = self._target_matrix(y)
        if len(x) != len(y):
            raise ValueError("x and y must have equal length")
        n = len(x)
        tasks, config = self._fold_tasks(y)
        fit_start = time.perf_counter()
        results, n_workers = self._train_folds(x, y, tasks, config)
        wall_s = time.perf_counter() - fit_start
        # fold-training phase wall time: the number the ensemble_fit
        # bench gate tracks
        self.metrics.observe("crossval.ensemble_fit", wall_s)

        # -- fold quarantine: drop diverged folds, keep the honest rest
        healthy = [i for i, result in enumerate(results) if not result.diverged]
        for i, result in enumerate(results):
            if result.diverged:
                self.metrics.inc("crossval.quarantined")
                self.telemetry.emit(
                    "crossval.quarantine",
                    fold=i,
                    error=result.error,
                    n_test=len(tasks[i].test_idx),
                )
        if len(healthy) < self.min_folds:
            raise TrainingDiverged(
                f"only {len(healthy)} of {self.k} folds survived training "
                f"(min_folds={self.min_folds}); the sampled targets are "
                "numerically hostile — check for near-zero or huge target "
                "values in the training set",
                reason="min_folds",
            )
        if len(healthy) < self.k:
            warnings.warn(
                f"{self.k - len(healthy)} of {self.k} folds diverged and "
                "were quarantined; the ensemble and error estimate use "
                f"the surviving {len(healthy)} folds",
                RuntimeWarning,
                stacklevel=2,
            )

        def pooled(column: int) -> ErrorEstimate:
            return ErrorEstimate.from_fold_errors(
                [results[i].test_errors[:, column] for i in healthy],
                n_training=n,
                n_folds=self.k,
            )

        # the headline estimate is always the primary target's
        self.estimate = pooled(0)
        if self.target_names:
            self.estimate = dataclasses.replace(
                self.estimate,
                per_target=tuple(
                    (name, pooled(column))
                    for column, name in enumerate(self.target_names)
                ),
            )
        scalers = [tasks[i].scaler for i in healthy]
        self.predictor = EnsemblePredictor(
            networks=[results[i].network for i in healthy],
            # scalar folds share one scaler; multi-target folds own theirs
            scaler=scalers if self.target_names else scalers[0],
            target_names=self.target_names,
        )

        fold_seconds = [result.wall_s for result in results]
        for seconds in fold_seconds:
            self.metrics.observe("train.fold", seconds)
        self.metrics.inc("crossval.fits")
        self.metrics.inc("crossval.epochs", sum(r.epochs for r in results))
        busy_s = sum(fold_seconds)
        # fraction of the worker-seconds the pool had available that fold
        # training actually used (the paper's 10-node cluster view)
        utilization = busy_s / (wall_s * n_workers) if wall_s > 0 else 0.0
        for i, result in enumerate(results):
            self.telemetry.emit(
                "crossval.fold",
                fold=i,
                wall_s=result.wall_s,
                epochs=result.epochs,
                quarantined=result.diverged,
            )
        self.telemetry.emit(
            "crossval.fit",
            k=self.k,
            n_points=n,
            n_targets=y.shape[1],
            n_workers=n_workers,
            n_folds_used=len(healthy),
            fold_coverage=self.estimate.fold_coverage,
            wall_s=wall_s,
            busy_s=busy_s,
            worker_utilization=utilization,
            error_mean=self.estimate.mean,
            error_std=self.estimate.std,
            per_target_error={
                name: estimate.mean
                for name, estimate in self.estimate.per_target or ()
            },
        )
        return self.estimate

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Ensemble prediction of the primary target (average of
        members, denormalized)."""
        if self.predictor is None:
            raise RuntimeError("fit() must be called before predict()")
        return self.predictor.predict(x)

"""Shared experiment runner: incremental learning curves.

Every evaluation artifact (Table 5.1, Figures 5.1-5.5 and A.1-A.3) is a
view over the same primitive: train cross-validation ensembles on
progressively larger random samples of a study's design space and record,
at each size, the cross-validation *estimate* and the *true* error
measured on the full space.  ``run_learning_curve`` produces that
trajectory once per (study, benchmark, data source) and caches it on disk;
the figure/table modules then render their particular views.

The runner is built on the same primitives as the exploration loop
(:mod:`repro.core.fitting`): training targets are batch-evaluated
through an :class:`~repro.core.backend.EvaluationBackend` and every
ensemble trains under the caller's
:class:`~repro.core.context.RunContext`, so parallel fold training,
caching and telemetry behave identically here, in the exploration loop
(:func:`repro.api.explore`) and in the CLI.

Data sources:

* ``"true"`` — training targets come from the full simulator (the plain
  ANN studies);
* ``"simpoint"`` — training targets come from SimPoint's noisy estimates
  while error is still measured against the true full space (the
  ANN+SimPoint study of Section 5.3).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.backend import ProcessPoolBackend, as_backend
from ..core.checkpoint import (
    CheckpointError,
    clear_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from ..core.context import RunContext
from ..obs.atomicio import atomic_write_pickle, load_cached_pickle
from ..core.encoding import design_matrix
from ..core.error import percentage_errors
from ..core.fitting import evaluate_batch, fit_cv_round
from ..core.training import TrainingConfig
from ..workloads.spec import get_workload
from .studies import (
    SimPointStudySimulator,
    Study,
    full_space_ground_truth,
    get_study,
)

#: bump when the experiment pipeline changes incompatibly
RUNNER_VERSION = 2

#: the paper trains on 50..2000 simulations in increments of 50
PAPER_SIZES: Tuple[int, ...] = tuple(range(50, 2001, 50))

#: reduced default grid (same span, fewer points) for routine bench runs
DEFAULT_SIZES: Tuple[int, ...] = (50, 100, 200, 400, 700, 1000)

DATA_SOURCES = ("true", "simpoint")


def full_scale() -> bool:
    """Whether ``REPRO_FULL=1`` requests paper-scale experiment grids."""
    return os.environ.get("REPRO_FULL", "") == "1"


def curve_sizes() -> Tuple[int, ...]:
    """The training-set size grid for the current scale."""
    return PAPER_SIZES if full_scale() else DEFAULT_SIZES


@dataclass(frozen=True)
class CurvePoint:
    """One training round of the incremental procedure."""

    n_samples: int
    fraction: float  # of the full design space
    true_mean: float
    true_std: float
    estimated_mean: float
    estimated_std: float
    training_seconds: float


@dataclass
class LearningCurve:
    """The full trajectory for one (study, benchmark, source)."""

    study: str
    benchmark: str
    source: str
    seed: int
    points: List[CurvePoint] = field(default_factory=list)

    def to_payload(self) -> dict:
        """This curve as JSON-serializable data (its checkpoint codec)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_payload(cls, payload: object) -> "LearningCurve":
        """Rebuild a :meth:`to_payload` curve; malformed data raises
        :class:`~repro.core.checkpoint.CheckpointError`."""
        try:
            points = [CurvePoint(**point) for point in payload["points"]]
            return cls(**{**payload, "points": points})
        except (TypeError, KeyError) as exc:
            raise CheckpointError(
                f"checkpoint does not hold a learning curve: {exc!r}"
            ) from exc

    def at_size(self, n_samples: int) -> CurvePoint:
        """The curve point recorded at exactly ``n_samples``."""
        for point in self.points:
            if point.n_samples == n_samples:
                return point
        raise KeyError(
            f"no curve point at {n_samples} samples; available: "
            f"{[p.n_samples for p in self.points]}"
        )

    def smallest_size_reaching(self, mean_error: float) -> Optional[int]:
        """Smallest training-set size whose *true* error is <= the target
        (used by the gains analysis)."""
        for point in self.points:
            if point.true_mean <= mean_error:
                return point.n_samples
        return None


def encoded_space(study: Study) -> np.ndarray:
    """Feature matrix of every design point.

    Kept as the runner's historical entry point; the caching now lives
    in :func:`repro.core.encoding.design_matrix`, shared with the
    explorer and every other full-space consumer.
    """
    return design_matrix(study.space)


def _training_fingerprint(training: TrainingConfig) -> str:
    digest = hashlib.sha256(repr(training).encode()).hexdigest()
    return digest[:12]


def _curve_cache_path(
    study: Study,
    benchmark: str,
    source: str,
    sizes: Sequence[int],
    seed: int,
    training: TrainingConfig,
    cache_dir: Optional[Path],
):
    if cache_dir is None:
        return None
    sizes_digest = hashlib.sha256(repr(tuple(sizes)).encode()).hexdigest()[:10]
    workload_seed = get_workload(benchmark).seed
    return cache_dir / (
        f"curve-v{RUNNER_VERSION}-{study.name}-{benchmark}-w{workload_seed}-"
        f"{source}-{sizes_digest}-{seed}-{_training_fingerprint(training)}.pkl"
    )


def _load_cached_curve(
    path: Path, n_sizes: int, context: RunContext
) -> Optional[LearningCurve]:
    """Load a cached curve, narrating hits/misses/corruption.

    A missing file emits ``cache.miss``; an unreadable or
    incompatible one emits ``cache.read_error`` — both with matching
    counters — so corrupted caches are visible in the telemetry report
    instead of silently forcing a re-run.
    """
    telemetry, metrics = context.telemetry, context.metrics
    if not path.exists():
        telemetry.emit("cache.miss", kind="curve", path=str(path))
        metrics.inc("cache.misses")
        return None

    def read_error(error: str) -> None:
        telemetry.emit("cache.read_error", kind="curve", path=str(path), error=error)
        metrics.inc("cache.read_errors")

    cached = load_cached_pickle(path, LearningCurve, on_error=read_error)
    if cached is None:
        return None
    if len(cached.points) != n_sizes:
        read_error("stale cached curve: different size grid")
        return None
    telemetry.emit("cache.hit", kind="curve", path=str(path))
    metrics.inc("cache.hits")
    return cached


def _store_cached_curve(
    path: Path, curve: LearningCurve, context: RunContext
) -> None:
    """Write a curve atomically, narrating write failures."""
    try:
        atomic_write_pickle(path, curve)
    except OSError as exc:
        context.telemetry.emit(
            "cache.write_error", kind="curve", path=str(path),
            error=repr(exc),
        )
        context.metrics.inc("cache.write_errors")


def _progress_path(path: Optional[Path]) -> Optional[Path]:
    """Where a partially computed curve checkpoints its progress."""
    if path is None:
        return None
    return path.with_suffix(path.suffix + ".partial")


def _load_curve_progress(
    path: Optional[Path],
    study: Study,
    benchmark: str,
    source: str,
    seed: int,
    sizes: Tuple[int, ...],
    context: RunContext,
) -> Optional[LearningCurve]:
    """A resumable partial curve, or None when starting fresh.

    A partial curve is usable when its identity matches this run and
    its recorded points are a prefix of the requested size grid.
    Anything else (corrupt file, different grid) degrades to a fresh
    run — recomputing is cheaper than failing the sweep.
    """
    if path is None:
        return None
    partial = load_checkpoint(
        path, context.telemetry, context.metrics, strict=False,
        decode=LearningCurve.from_payload,
    )
    if partial is None:
        return None
    same_run = (
        partial.study == study.name
        and partial.benchmark == benchmark
        and partial.source == source
        and partial.seed == seed
    )
    done_sizes = tuple(point.n_samples for point in partial.points)
    if not same_run or done_sizes != sizes[: len(done_sizes)]:
        context.telemetry.emit(
            "checkpoint.incompatible", kind="curve", path=str(path)
        )
        return None
    return partial


def _target_backend(study: Study, benchmark: str, context: RunContext):
    """The backend that produces SimPoint training targets.

    Serial below the parallel threshold; above it, a process pool whose
    workers each build the SimPoint state once (selection + interval
    profiles) and then evaluate their share of the batch.
    """
    fn = SimPointStudySimulator(study.name, benchmark)
    if context.n_jobs > 1:
        return ProcessPoolBackend(fn, n_jobs=context.n_jobs)
    return as_backend(fn)


def run_learning_curve(
    study_name: str,
    benchmark: str,
    sizes: Optional[Sequence[int]] = None,
    source: str = "true",
    seed: int = 0,
    training: Optional[TrainingConfig] = None,
    use_cache: bool = True,
    context: Optional[RunContext] = None,
    resume: bool = False,
) -> LearningCurve:
    """Produce (or load) the learning curve for one benchmark.

    Mirrors the paper's protocol: a single random sample sequence is drawn
    once; each training round uses its first ``size`` elements, so later
    rounds *extend* earlier ones exactly as the incremental framework
    collects results in batches.

    ``context`` supplies telemetry/metrics, the fold-training worker
    budget and the on-disk cache root; randomness stays governed by
    ``seed`` (it is part of the cache key), so two contexts with
    different generators still produce identical curves.

    With ``resume=True`` (and a cache directory), completed curve
    points are checkpointed to a ``.partial`` file beside the cache
    entry after every training round (atomic write) and a killed run
    picks up where it left off.  Each size trains under its own forked
    generator, so a resumed curve is bit-identical to an uninterrupted
    one.
    """
    if source not in DATA_SOURCES:
        raise ValueError(f"source must be one of {DATA_SOURCES}, got {source!r}")
    context = context if context is not None else RunContext.seeded(seed)
    study = get_study(study_name)
    sizes = tuple(sizes) if sizes is not None else curve_sizes()
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sizes must be strictly increasing, got {sizes}")
    training = training or TrainingConfig()

    path = _curve_cache_path(
        study, benchmark, source, sizes, seed, training, context.cache_dir
    )
    if use_cache and path is not None:
        cached = _load_cached_curve(path, len(sizes), context)
        if cached is not None:
            return cached

    truth = full_space_ground_truth(study, benchmark)
    x_full = encoded_space(study)
    rng = np.random.default_rng(seed)
    order = rng.choice(len(study.space), size=max(sizes), replace=False)
    if source == "simpoint":
        with _target_backend(study, benchmark, context) as backend:
            targets = evaluate_batch(
                backend,
                [study.space.config_at(int(i)) for i in order],
                context=context,
                phase="curve.simulate",
                counter="curve.simulations",
            )
    else:
        targets = truth[order]

    progress = _progress_path(path)
    curve: Optional[LearningCurve] = None
    if resume:
        curve = _load_curve_progress(
            progress, study, benchmark, source, seed, sizes, context
        )
    if curve is None:
        curve = LearningCurve(
            study=study.name, benchmark=benchmark, source=source, seed=seed
        )
    done = {point.n_samples for point in curve.points}
    for size in sizes:
        if size in done:
            continue
        train_idx = order[:size]
        with context.telemetry.phase("curve.train"):
            outcome = fit_cv_round(
                x_full[train_idx],
                targets[:size],
                training=training,
                context=context.fork(seed + size),
            )

        heldout = np.ones(len(truth), dtype=bool)
        heldout[train_idx] = False
        errors = percentage_errors(
            outcome.ensemble.predict(x_full[heldout]), truth[heldout]
        )
        curve.points.append(
            CurvePoint(
                n_samples=size,
                fraction=study.sample_fraction(size),
                true_mean=float(errors.mean()),
                true_std=float(errors.std(ddof=0)),
                estimated_mean=outcome.estimate.mean,
                estimated_std=outcome.estimate.std,
                training_seconds=outcome.wall_s,
            )
        )
        context.telemetry.emit(
            "curve.point",
            study=study.name,
            benchmark=benchmark,
            source=source,
            n_samples=size,
            estimated_mean=outcome.estimate.mean,
            true_mean=curve.points[-1].true_mean,
            training_seconds=outcome.wall_s,
        )
        if resume and progress is not None:
            save_checkpoint(
                progress, curve, context.telemetry, context.metrics
            )

    if use_cache and path is not None:
        _store_cached_curve(path, curve, context)
    if progress is not None:
        clear_checkpoint(progress, context.telemetry, context.metrics)
    return curve

"""ANN training with percentage-error weighting and early stopping.

Implements Section 3.1-3.3's training recipe:

* gradient descent on squared error with a momentum term;
* data points presented at a frequency proportional to the inverse of
  their target value, which focuses backpropagation on *percentage* error
  rather than absolute error;
* early stopping on a held-aside set, evaluated on percentage error over
  actual (denormalized) values, with the best-so-far weights restored at
  the end.

The recipe can diverge — near-zero targets make the inverse-target
presentation weights degenerate, a too-large step size explodes the
weights, saturated units go dead — so every fit runs under *training
health* supervision: at every check interval a fold is tested for
non-finite/exploding early-stopping error, weight explosion and a dead
(constant-prediction) network, and a diverged fold is retried with
deterministically reseeded weights up to ``max_restarts`` times before
it is quarantined.

:class:`StackedEnsembleTrainer` is the one training loop: it runs the
recipe for every fold of a cross-validation ensemble, scalar or
multi-target, through fold-stacked
:class:`~repro.core.kernels.EnsembleTrainingKernel` s.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry
from .error import percentage_errors
from .kernels import EnsembleTrainingKernel
from .network import (
    DEFAULT_HIDDEN_UNITS,
    DEFAULT_INIT_RANGE,
    DEFAULT_LEARNING_RATE,
    DEFAULT_MOMENTUM,
    FeedForwardNetwork,
    TrainingDiverged,
    WeightHealth,
)

#: prediction spread below which an early-stopping check counts as
#: "dead": a network whose outputs are this close to constant has
#: collapsed (zeroed or fully saturated units), not merely plateaued
DEAD_PREDICTION_SPREAD = 1e-12


def presentation_probabilities(
    targets: np.ndarray, weight_by_inverse_target: bool = True
) -> np.ndarray:
    """Per-point presentation frequency, proportional to 1/target.

    The Section 3.1 percentage-error weighting, computed once per fold
    from its primary-target column.
    """
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    finite = np.isfinite(targets)
    if not finite.all():
        bad = np.flatnonzero(~finite).tolist()
        raise ValueError(
            "inverse-target weighting requires finite targets; "
            f"non-finite values at indices {bad} (NaN marks a failed "
            "evaluation — mask those rows out before fitting)"
        )
    if np.any(targets <= 0):
        raise ValueError(
            "inverse-target weighting requires strictly positive targets"
        )
    if not weight_by_inverse_target:
        return np.full(len(targets), 1.0 / len(targets))
    inverse = 1.0 / targets
    return inverse / inverse.sum()


def presentation_cdf(probabilities: np.ndarray) -> np.ndarray:
    """The cumulative distribution ``Generator.choice(p=)`` samples.

    ``cdf.searchsorted(rng.random(n), side="right")`` then reproduces
    ``rng.choice(n, size=n, p=probabilities)`` bit for bit, row by row
    from one ``rng.random((rows, n))`` block, without re-validating
    ``p`` on every draw.  The validation ``choice`` would repeat per
    call runs here once: finite, non-negative, summing to 1 within
    ``sqrt(eps)``.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("presentation probabilities must be a 1-D vector")
    if not np.isfinite(p).all():
        raise ValueError("presentation probabilities must be finite")
    if np.any(p < 0):
        raise ValueError("presentation probabilities must be non-negative")
    if abs(p.sum() - 1.0) > np.sqrt(np.finfo(np.float64).eps):
        raise ValueError("presentation probabilities must sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of one ANN training run.

    Defaults keep the paper's training recipe (near-zero uniform weight
    init, inverse-target presentation, early stopping on percentage error)
    with two practical adaptations, both documented in DESIGN.md: (a) two
    hidden layers of 16 units — Figure 3.1(b)'s deeper variant — because
    our substitute simulator's response surface has sharper multiplicative
    interactions than SESC's, and one hidden layer plateaus ~2x higher;
    (b) tanh hidden units with learning rate 0.3, momentum 0.9 and
    plateau-triggered decay, which reach the same solutions as the paper's
    sigmoid/0.001/0.5 one to two orders of magnitude faster.  Use
    :meth:`paper_settings` for the literal hyperparameters.
    """

    hidden_layers: tuple = (DEFAULT_HIDDEN_UNITS, DEFAULT_HIDDEN_UNITS)
    hidden_activation: str = "tanh"
    learning_rate: float = 0.3
    momentum: float = 0.9
    init_range: float = DEFAULT_INIT_RANGE
    batch_size: int = 32
    max_epochs: int = 3000
    check_interval: int = 10
    patience: int = 40
    lr_decay: float = 0.5
    decay_after: int = 10
    weight_by_inverse_target: bool = True
    # -- training-health supervision ----------------------------------
    #: reseeded restarts a diverged fold may spend before quarantine
    max_restarts: int = 2
    #: early-stopping percentage error above which a fit counts as
    #: diverged (a useful model is within ~tens of percent; 1e6% means
    #: the network left the target's order of magnitude entirely)
    divergence_error: float = 1e6
    #: largest tolerated weight magnitude before declaring explosion
    max_weight: float = 1e6
    #: consecutive constant-prediction checks before declaring the
    #: network dead
    dead_checks: int = 5

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size <= 0 or self.max_epochs <= 0:
            raise ValueError("batch_size and max_epochs must be positive")
        if self.check_interval <= 0 or self.patience <= 0:
            raise ValueError("check_interval and patience must be positive")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError("lr_decay must be in (0, 1]")
        if self.decay_after <= 0:
            raise ValueError("decay_after must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if self.divergence_error <= 0 or self.max_weight <= 0:
            raise ValueError(
                "divergence_error and max_weight must be positive"
            )
        if self.dead_checks <= 0:
            raise ValueError("dead_checks must be positive")

    @classmethod
    def paper_settings(cls) -> "TrainingConfig":
        """The paper's literal hyperparameters (Section 3.1): sigmoid
        hidden units, learning rate 0.001, momentum 0.5.  Converges to the
        same solutions as the default but needs many more epochs."""
        return cls(
            hidden_layers=(DEFAULT_HIDDEN_UNITS,),
            hidden_activation="sigmoid",
            learning_rate=DEFAULT_LEARNING_RATE,
            momentum=DEFAULT_MOMENTUM,
            max_epochs=20_000,
            patience=200,
            lr_decay=1.0,
        )

    @classmethod
    def fast_settings(cls) -> "TrainingConfig":
        """Cheaper settings for tests and quick sweeps."""
        return cls(max_epochs=600, patience=15, check_interval=10)

    #: preset names accepted by :meth:`from_preset` (and the CLI's
    #: ``--training`` flag / campaign specs' ``training`` key)
    PRESETS = ("default", "fast", "paper")

    @classmethod
    def from_preset(cls, name: str) -> "TrainingConfig":
        """Resolve a named training-recipe preset.

        The single source of truth behind ``repro explore --training``
        and the ``training`` key of campaign specs.
        """
        if name == "default":
            return cls()
        if name == "fast":
            return cls.fast_settings()
        if name == "paper":
            return cls.paper_settings()
        raise ValueError(
            f"unknown training preset {name!r}; choices: "
            f"{', '.join(cls.PRESETS)}"
        )


@dataclass
class TrainingHistory:
    """Early-stopping trace of one training run."""

    es_errors: List[float] = field(default_factory=list)
    best_error: float = float("inf")
    best_epoch: int = 0
    epochs_run: int = 0
    stopped_early: bool = False


@dataclass(frozen=True)
class FoldTask:
    """One cross-validation fold's training job.

    Row indices into the shared dataset (so tasks travel to pool
    workers without the data), the fold's integer seed, and the target
    scaler its network trains against: any scaler whose ``transform`` /
    ``inverse_transform`` work column-wise on an ``(n, n_targets)``
    matrix (:class:`~repro.core.encoding.TargetScaler`,
    :class:`~repro.core.encoding.MultiTargetScaler`).
    """

    train_idx: np.ndarray
    es_idx: np.ndarray
    test_idx: np.ndarray
    seed: int
    scaler: object


@dataclass
class FoldResult:
    """One trained fold plus the observability it recorded.

    ``test_errors`` holds the held-out percentage errors, one column per
    target.  ``events`` carries the fold's telemetry as ``(name,
    payload)`` pairs and ``metrics`` its local registry; the caller
    :meth:`replay`-s both into its own hooks in fold order, so the
    streams do not depend on where the fold trained.

    A quarantined fold — training exhausted its restart budget — has
    ``network=None``, no test errors and ``error`` describing the last
    failure.
    """

    network: Optional[FeedForwardNetwork]
    test_errors: np.ndarray
    wall_s: float
    epochs: int
    events: List[Tuple[str, Dict[str, object]]] = field(default_factory=list)
    metrics: Optional[MetricsRegistry] = None
    error: Optional[str] = None

    @property
    def diverged(self) -> bool:
        """Whether this fold was quarantined."""
        return self.network is None

    def replay(self, telemetry: RunTelemetry, metrics: MetricsRegistry) -> None:
        """Re-emit recorded events and merge recorded metrics."""
        for name, payload in self.events:
            telemetry.emit(name, **payload)
        if self.metrics is not None:
            metrics.merge(self.metrics)


# ----------------------------------------------------------------------
# fold-stacked ensemble training
# ----------------------------------------------------------------------
class _FoldProgram:
    """One fold's early-stopping/restart state machine.

    Driven one epoch at a time against one member slice of an
    :class:`~repro.core.kernels.EnsembleTrainingKernel`, so many folds'
    epochs share batched matmuls while each fold checks, decays, stops,
    restarts and quarantines on its own schedule.  Targets are
    ``(n, n_targets)`` matrices; early stopping, presentation weights
    and the health checks all read the primary (first) column, and the
    program never branches on the number of targets.
    """

    def __init__(
        self,
        member: int,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_es: np.ndarray,
        y_es: np.ndarray,
        scaler,
        config: TrainingConfig,
        seed: int,
        telemetry: RunTelemetry,
        metrics: MetricsRegistry,
    ):
        if len(x_train) == 0 or len(x_es) == 0:
            raise ValueError(
                "training and early-stopping sets must be non-empty"
            )
        self.member = member
        self.x_train = x_train
        self.y_norm = scaler.transform(y_train)
        self.x_es = x_es
        self.y_es = y_es[:, 0]
        self.scaler = scaler
        self.cfg = config
        self.seed = int(seed)
        self.telemetry = telemetry
        self.metrics = metrics
        self.n = len(x_train)
        # fixed targets: one probability computation per fold
        self.cdf = presentation_cdf(
            presentation_probabilities(
                y_train[:, 0], config.weight_by_inverse_target
            )
        )
        self.attempt = 0
        self.done = False
        self.error: Optional[str] = None
        self.network: Optional[FeedForwardNetwork] = None
        self.wall_s = 0.0
        self.attempt_wall = 0.0
        self.start_attempt()

    # -- restarts --------------------------------------------------------
    def _attempt_rng(self) -> np.random.Generator:
        # attempt 0 draws from the fold seed itself; restart a from the
        # distinct but seed-determined stream [seed, a]
        if self.attempt == 0:
            return np.random.default_rng(self.seed)
        return np.random.default_rng([self.seed, self.attempt])

    def start_attempt(self) -> None:
        """Fresh rng, network and early-stopping state for one attempt."""
        cfg = self.cfg
        self.rng = self._attempt_rng()
        # network init consumes the rng first; the same generator then
        # drives this attempt's presentation draws
        self.network = FeedForwardNetwork(
            n_inputs=self.x_train.shape[1],
            hidden_layers=cfg.hidden_layers,
            n_outputs=self.y_norm.shape[1],
            hidden_activation=cfg.hidden_activation,
            rng=self.rng,
            init_range=cfg.init_range,
        )
        self.history = TrainingHistory()
        self.best_weights = self.network.get_weights()
        self.checks_without_improvement = 0
        self.learning_rate = cfg.learning_rate
        self.dead_streak = 0
        self.epoch = 0
        self.attempt_wall = 0.0
        self.orders: Optional[np.ndarray] = None

    def draw_order(self) -> np.ndarray:
        """This attempt's next weighted presentation order.

        Orders come in blocks of ``check_interval`` epochs drawn from
        one ``rng.random((check_interval, n))`` call, which consumes the
        attempt's stream exactly as that many ``rng.choice(p=)`` calls
        would.  A restart replaces the rng, so the unused rest of a
        block is never needed.
        """
        row = self.epoch % self.cfg.check_interval
        if row == 0:
            self.orders = self.cdf.searchsorted(
                self.rng.random((self.cfg.check_interval, self.n)),
                side="right",
            )
        return self.orders[row]

    # -- early stopping and health checks --------------------------------
    def _diverged(
        self, message: str, *, reason: str, epoch: int, **payload
    ) -> None:
        # count the doomed epochs (train.epochs stays an honest work
        # measure across restarts), emit one train.diverged event, raise
        self.metrics.inc("train.epochs", self.history.epochs_run)
        self.metrics.inc("train.diverged")
        self.telemetry.emit(
            "train.diverged", reason=reason, epoch=epoch, **payload
        )
        raise TrainingDiverged(message, reason=reason, epoch=epoch)

    @property
    def check_due(self) -> bool:
        """Whether the epoch about to finish ends with an
        early-stopping check."""
        return (self.epoch + 1) % self.cfg.check_interval == 0

    def after_epoch(
        self,
        kernel: EnsembleTrainingKernel,
        weights_finite: bool,
        check: Optional[Tuple[WeightHealth, Optional[np.ndarray]]],
    ) -> None:
        """Post-epoch bookkeeping for this fold's member slice.

        Finite guard, periodic health/early-stopping check, plateau
        decay and patience, with divergence handed to the
        restart/quarantine layer.  ``weights_finite`` is the member's
        entry of one batched
        :meth:`EnsembleTrainingKernel.members_finite` check per epoch;
        ``check`` is the member's weight health and early-stopping
        outputs (``None`` when the weights are unhealthy) from
        :meth:`StackedEnsembleTrainer._batched_checks`, given whenever
        :attr:`check_due` and the weights are finite, else ``None``.
        """
        cfg = self.cfg
        self.epoch += 1
        epoch = self.epoch
        try:
            if not weights_finite:
                # the failed epoch is not counted as run
                self._diverged(
                    "training epoch produced non-finite weights",
                    reason="non-finite weights",
                    epoch=epoch,
                )
            self.history.epochs_run = epoch
            if epoch % cfg.check_interval == 0:
                self._run_check(kernel, epoch, *check)
        except TrainingDiverged as exc:
            self._restart_or_quarantine(kernel, exc)
            return
        if self.history.stopped_early or epoch >= cfg.max_epochs:
            self._complete(kernel)

    def _run_check(
        self,
        kernel: EnsembleTrainingKernel,
        epoch: int,
        health: WeightHealth,
        outputs: Optional[np.ndarray],
    ) -> None:
        cfg = self.cfg
        history = self.history
        if not health.ok(cfg.max_weight):
            reason = (
                "weight explosion" if health.finite else "non-finite weights"
            )
            self._diverged(
                f"unhealthy weights at epoch {epoch}: "
                f"max |w| = {health.max_abs:g}, "
                f"saturation = {health.saturation:.3f}",
                reason=reason,
                epoch=epoch,
                max_abs=health.max_abs,
                saturation=health.saturation,
            )
        if not np.isfinite(outputs).all():
            self._diverged(
                "network output contains non-finite values",
                reason="non-finite output",
                epoch=epoch,
            )
        raw = outputs[:, 0]
        predictions = self.scaler.inverse_transform(outputs)[:, 0]
        es_error = float(np.mean(percentage_errors(predictions, self.y_es)))
        if not np.isfinite(es_error) or es_error > cfg.divergence_error:
            self._diverged(
                f"early-stopping error {es_error:g} exceeds the "
                f"divergence threshold {cfg.divergence_error:g}",
                reason="exploding es_error",
                epoch=epoch,
                es_error=es_error,
            )
        # dead-network detection needs >= 2 ES points: spread over a
        # single prediction is zero by definition, not a collapse
        if len(raw) >= 2 and float(np.ptp(raw)) < DEAD_PREDICTION_SPREAD:
            self.dead_streak += 1
            if self.dead_streak >= cfg.dead_checks:
                self._diverged(
                    f"constant predictions for {self.dead_streak} "
                    "consecutive checks: the network is dead (zeroed or "
                    "saturated)",
                    reason="dead network",
                    epoch=epoch,
                    dead_streak=self.dead_streak,
                )
        else:
            self.dead_streak = 0
        history.es_errors.append(es_error)
        self.telemetry.emit(
            "train.check",
            epoch=epoch,
            es_error=es_error,
            best_error=min(history.best_error, es_error),
            learning_rate=self.learning_rate,
        )
        if es_error < history.best_error - 1e-12:
            history.best_error = es_error
            history.best_epoch = epoch
            self.best_weights = kernel.get_member_weights(self.member)
            self.checks_without_improvement = 0
        else:
            self.checks_without_improvement += 1
            if (
                cfg.lr_decay < 1.0
                and self.checks_without_improvement % cfg.decay_after == 0
            ):
                # plateau: anneal the step size and resume from the
                # best weights seen so far
                self.learning_rate *= cfg.lr_decay
                kernel.set_member_weights(self.member, self.best_weights)
                kernel.reset_member_velocity(self.member)
            if self.checks_without_improvement >= cfg.patience:
                history.stopped_early = True

    def _complete(self, kernel: EnsembleTrainingKernel) -> None:
        """Early stop (or epoch budget): freeze the best weights."""
        kernel.set_member_weights(self.member, self.best_weights)
        self.network = kernel.sync_member(self.member)
        self.metrics.inc("train.epochs", self.history.epochs_run)
        self.metrics.observe("train.fit", self.attempt_wall)
        self.telemetry.emit(
            "train.stop",
            epochs_run=self.history.epochs_run,
            best_epoch=self.history.best_epoch,
            best_error=self.history.best_error,
            stopped_early=self.history.stopped_early,
            n_train=self.n,
            n_es=len(self.x_es),
        )
        self.done = True
        kernel.deactivate(self.member)

    def _restart_or_quarantine(
        self, kernel: EnsembleTrainingKernel, exc: TrainingDiverged
    ) -> None:
        """Reseed a diverged fold, or quarantine it once the
        ``max_restarts`` budget is spent."""
        if self.attempt < self.cfg.max_restarts:
            self.metrics.inc("train.restarts")
            self.telemetry.emit(
                "train.restart",
                attempt=self.attempt + 1,
                max_restarts=self.cfg.max_restarts,
                seed=self.seed,
                reason=exc.reason,
            )
            self.attempt += 1
            self.start_attempt()
            kernel.reinit_member(self.member, self.network)
        else:
            self.error = (
                "restarts exhausted: training diverged on all "
                f"{self.cfg.max_restarts + 1} attempts "
                f"(seed {self.seed}; last failure: {exc})"
            )
            self.network = None
            self.done = True
            kernel.deactivate(self.member)


class StackedEnsembleTrainer:
    """Train cross-validation folds through fold-stacked kernels.

    The single training loop behind every ensemble fit.  Given
    :class:`FoldTask` s it runs every still-active fold's epoch as one
    batched matmul stack instead of one Python-level fit per fold.
    Folds are grouped by training-set length (``n % k != 0`` makes fold
    sizes differ by at most one) because stacking requires equal GEMM
    shapes for bit-identity; each group trains through its own
    :class:`~repro.core.kernels.EnsembleTrainingKernel` until every
    member has early-stopped, exhausted its epoch budget, or been
    quarantined.

    Each fold's trajectory is independent of which folds it is stacked
    with, so fitting folds one at a time, all together, or in shares
    across pool workers gives bit-identical results.  Each fold records
    its observability into its own buffer, returned on its
    :class:`FoldResult` for the caller to replay in fold order.
    """

    def __init__(self, config: Optional[TrainingConfig] = None):
        self.config = config or TrainingConfig()

    def fit_folds(
        self,
        x: np.ndarray,
        y: np.ndarray,
        tasks: Sequence[FoldTask],
        capture_telemetry: bool = False,
        capture_metrics: bool = False,
    ) -> List[FoldResult]:
        """Train every fold task; returns one result per task, in order.

        ``y`` is the ``(n, n_targets)`` target matrix the task indices
        address.  When ``capture_telemetry`` / ``capture_metrics`` are
        set each fold records events and counters into a private buffer;
        otherwise the hooks are no-ops.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        programs: List[_FoldProgram] = []
        fold_telemetry: List[RunTelemetry] = []
        fold_metrics: List[MetricsRegistry] = []
        groups: Dict[int, List[_FoldProgram]] = {}
        for task in tasks:
            telemetry = RunTelemetry(enabled=capture_telemetry)
            metrics = MetricsRegistry(enabled=capture_metrics)
            fold_telemetry.append(telemetry)
            fold_metrics.append(metrics)
            group = groups.setdefault(len(task.train_idx), [])
            program = _FoldProgram(
                member=len(group),
                x_train=x[task.train_idx],
                y_train=y[task.train_idx],
                x_es=x[task.es_idx],
                y_es=y[task.es_idx],
                scaler=task.scaler,
                config=self.config,
                seed=task.seed,
                telemetry=telemetry,
                metrics=metrics,
            )
            group.append(program)
            programs.append(program)

        for group in groups.values():
            self._train_group(group)

        results: List[FoldResult] = []
        for task, program, telemetry, metrics in zip(
            tasks, programs, fold_telemetry, fold_metrics
        ):
            started = time.perf_counter()
            if program.network is not None:
                y_test = y[task.test_idx]
                predictions = task.scaler.inverse_transform(
                    program.network.predict(x[task.test_idx])
                )
                test_errors = percentage_errors(predictions, y_test).reshape(
                    y_test.shape
                )
                epochs = program.history.epochs_run
            else:
                test_errors = np.empty((0, y.shape[1]))
                epochs = 0
            program.wall_s += time.perf_counter() - started
            results.append(
                FoldResult(
                    network=program.network,
                    test_errors=test_errors,
                    wall_s=program.wall_s,
                    epochs=epochs,
                    events=[
                        (event.name, dict(event.payload))
                        for event in telemetry.events
                    ],
                    metrics=metrics if capture_metrics else None,
                    error=program.error,
                )
            )
        return results

    def _train_group(self, group: List[_FoldProgram]) -> None:
        """Run one equal-length group of folds to completion."""
        cfg = self.config
        kernel = EnsembleTrainingKernel(
            [program.network for program in group],
            [program.x_train for program in group],
            [program.y_norm for program in group],
        )
        # one presentation row per fold, filled in place every epoch
        orders = np.empty((len(group), kernel.n_samples), dtype=np.intp)
        while True:
            active = [program for program in group if not program.done]
            if not active:
                break
            step_start = time.perf_counter()
            # one weighted presentation draw per active fold, from that
            # fold's own attempt rng
            for row, program in enumerate(active):
                orders[row] = program.draw_order()
            learning_rates = np.array(
                [program.learning_rate for program in active]
            )
            kernel.run_epoch(
                orders[: len(active)],
                cfg.batch_size,
                learning_rates,
                cfg.momentum,
            )
            finite = kernel.members_finite()
            checks = self._batched_checks(
                kernel,
                [
                    program for program in active
                    if program.check_due and finite[program.member]
                ],
            )
            for program in active:
                program.after_epoch(
                    kernel,
                    bool(finite[program.member]),
                    checks.get(program.member),
                )
            # attribute the step's wall time equally across the folds it
            # advanced, keeping per-fold wall_s an honest work share
            share = (time.perf_counter() - step_start) / len(active)
            for program in active:
                program.wall_s += share
                program.attempt_wall += share

    def _batched_checks(
        self, kernel: EnsembleTrainingKernel, due: List[_FoldProgram]
    ) -> Dict[int, Tuple[WeightHealth, Optional[np.ndarray]]]:
        """Weight health and early-stopping outputs for every fold due a
        check this epoch, keyed by member.

        Health comes from one batched pass over the due members; the
        healthy ones sharing an early-stopping length get their outputs
        from one stacked forward pass.  Each fold judges its own slice
        afterwards, so a diverged sibling cannot affect it.
        """
        if not due:
            return {}
        healths = kernel.members_weight_health(
            [program.member for program in due]
        )
        by_length: Dict[int, List[_FoldProgram]] = {}
        for program, health in zip(due, healths):
            if health.ok(self.config.max_weight):
                by_length.setdefault(len(program.x_es), []).append(program)
        outputs: Dict[int, np.ndarray] = {}
        for programs in by_length.values():
            members = [program.member for program in programs]
            block = kernel.predict_members(
                members, np.stack([program.x_es for program in programs])
            )
            outputs.update(zip(members, block))
        return {
            program.member: (health, outputs.get(program.member))
            for program, health in zip(due, healths)
        }

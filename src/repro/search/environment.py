"""The simulator-backed environment of the search layer.

:class:`Environment` owns everything about one exploration run except
the choice of the next batch: the evaluation backend, the feature
encoder, per-round cross-validation fitting, convergence/budget
accounting, and crash-safe checkpointing (including the agent's own
state, via the versioned agent-state slot of
:class:`~repro.core.checkpoint.ExplorerCheckpoint`).
:meth:`Environment.run` is the paper's Section 3.3 loop, the one driver
behind :func:`repro.api.explore`; stripped of telemetry it reads::

    while not env.done:
        configs = agent.propose(env.observe(), env.next_batch_size(), rng)
        env.step(configs)
        env.save(agent)

This module is the search layer's one foot in ``repro.core`` (fitting,
backends, checkpoints); the protocol and agents stay core-free — see
:mod:`repro.search.protocol`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from ..core.backend import EvaluationBackend, as_backend
from ..core.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    ExplorerCheckpoint,
    clear_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from ..core.context import RunContext
from ..core.crossval import DEFAULT_FOLDS
from ..core.encoding import ParameterEncoder
from ..core.ensemble import EnsemblePredictor
from ..core.fitting import evaluate_batch, fit_cv_round
from ..core.supervise import poll_shutdown
from ..core.training import TrainingConfig
from ..designspace.space import Config, DesignSpace
from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import RunTelemetry
from .protocol import (
    AGENT_STATE_VERSION,
    DEFAULT_BATCH_SIZE,
    Agent,
    Observation,
    SearchError,
)
from .result import ExplorationResult, ExplorationRound


def resolve_multi_target_simulator(backend: object) -> Optional[object]:
    """Find a multi-target simulator inside a composed backend chain.

    Walks the wrapper chain every backend composition uses —
    ``ResilientBackend.inner`` / ``FaultInjectingBackend.inner`` /
    ``CachingBackend.inner``, then ``SerialBackend.fn`` /
    ``ProcessPoolBackend.fn`` — looking for an object that declares
    ``target_names`` (more than one) and a ``targets_at`` accessor, the
    duck-typed contract of a multi-target ``SIM(p, A)`` such as
    :class:`repro.experiments.cachepolicy.CachePolicySimulator`.
    Returns ``None`` for scalar simulate fns, which keeps the scalar
    path byte-identical to the pre-multi-target code.
    """
    seen = set()
    obj: Optional[object] = backend
    while obj is not None and id(obj) not in seen:
        seen.add(id(obj))
        names = getattr(obj, "target_names", None)
        if (
            names
            and len(names) > 1
            and callable(getattr(obj, "targets_at", None))
        ):
            return obj
        for attr in ("inner", "fn"):
            nxt = getattr(obj, attr, None)
            if nxt is not None:
                obj = nxt
                break
        else:
            obj = None
    return None


class Environment:
    """One exploration run's state machine (sample → simulate → fit).

    Parameters mirror :func:`repro.api.explore`: ``backend`` is an
    :class:`~repro.core.backend.EvaluationBackend` or a plain
    ``config -> float`` callable (adapted with
    :func:`~repro.core.backend.as_backend`; the environment never
    closes it), ``target_error`` stops the run once the CV estimate
    reaches it, ``max_simulations`` is the budget, ``initial_samples``
    sizes the first round (``batch_size`` when ``None``; it must be at
    least ``k``) and ``checkpoint`` names the file round state persists
    to and a compatible run is resumed from.
    """

    def __init__(
        self,
        space: DesignSpace,
        backend: object,
        *,
        target_error: float,
        max_simulations: int,
        batch_size: int = DEFAULT_BATCH_SIZE,
        k: int = DEFAULT_FOLDS,
        training: Optional[TrainingConfig] = None,
        min_folds: Optional[int] = None,
        initial_samples: Optional[int] = None,
        context: Optional[RunContext] = None,
        checkpoint: Optional[Union[str, Path]] = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        if target_error <= 0:
            raise ValueError(
                f"target_error must be positive, got {target_error}"
            )
        if max_simulations < k:
            raise ValueError(
                f"max_simulations must allow at least k={k} points"
            )
        if initial_samples is None:
            initial_samples = batch_size
        if initial_samples < k:
            raise ValueError(
                f"the first round must simulate at least k={k} points, "
                f"got initial_samples={initial_samples}"
            )
        self.space = space
        self.backend: EvaluationBackend = as_backend(backend)
        self.encoder = ParameterEncoder(space)
        self.batch_size = batch_size
        self.k = k
        self.training = training or TrainingConfig()
        self.min_folds = min_folds
        self.target_error = target_error
        self.max_simulations = max_simulations
        self.initial_samples = initial_samples
        self.context = context if context is not None else RunContext()
        self.checkpoint_path = (
            Path(checkpoint) if checkpoint is not None else None
        )
        self.sampled: List[int] = []
        self.targets: List[float] = []
        self.rounds: List[ExplorationRound] = []
        self.predictor: Optional[EnsemblePredictor] = None
        self.converged = False
        #: set when the agent could not reach any more unsampled points
        self.exhausted = False
        #: multi-target plumbing: ``targets`` above always holds the
        #: primary target (agents, checkpoints and observations are
        #: untouched); when the backend chain exposes a multi-target
        #: simulator, the full declared vector per sampled point
        #: accumulates in ``target_rows`` and the round fit goes through
        #: the multitask ensemble
        self.multi_simulator = resolve_multi_target_simulator(self.backend)
        self.target_names: tuple = (
            tuple(self.multi_simulator.target_names)
            if self.multi_simulator is not None
            else ()
        )
        self.target_rows: List[tuple] = []

    # -- context accessors ---------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        return self.context.rng

    @property
    def telemetry(self) -> RunTelemetry:
        return self.context.telemetry

    @property
    def metrics(self) -> MetricsRegistry:
        return self.context.metrics

    # -- run accounting ------------------------------------------------
    @property
    def n_simulations(self) -> int:
        return len(self.sampled)

    @property
    def done(self) -> bool:
        """Converged, out of budget, or out of reachable points."""
        return (
            self.converged
            or len(self.sampled) >= self.max_simulations
            or self.exhausted
        )

    def next_batch_size(self) -> int:
        """Points the next round should add (budget-clamped)."""
        want = self.initial_samples if not self.sampled else self.batch_size
        return min(want, self.max_simulations - len(self.sampled))

    # -- the agent-facing surface --------------------------------------
    def observe(self) -> Observation:
        """Snapshot the run for an agent's next proposal."""
        return Observation(
            space=self.space,
            encoder=self.encoder,
            sampled_indices=tuple(self.sampled),
            targets=tuple(self.targets),
            round=len(self.rounds),
            estimate=self.rounds[-1].estimate if self.rounds else None,
            predictor=self.predictor,
            telemetry=self.telemetry,
            metrics=self.metrics,
        )

    def _resolve_proposal(self, configs: Sequence[Config]) -> List[int]:
        """Map proposed configurations to indices, enforcing the protocol:
        every proposal must be a valid point and must not re-simulate."""
        indices: List[int] = []
        seen = set(self.sampled)
        for config in configs:
            try:
                index = self.space.index_of(config)
            except ValueError as exc:
                raise SearchError(
                    f"agent proposed a configuration outside the design "
                    f"space: {exc}"
                ) from exc
            if index in seen:
                raise SearchError(
                    f"agent proposed design point {index}, which was "
                    "already sampled (agents must not re-simulate)"
                )
            seen.add(index)
            indices.append(index)
        return indices

    def step(self, configs: Sequence[Config]) -> ExplorationRound:
        """Simulate a proposed batch, then train/estimate this round.

        An empty batch is legal (re-fits on the existing samples) —
        the driver uses it only when resuming directly into training.
        """
        if configs:
            indices = self._resolve_proposal(configs)
            values = evaluate_batch(
                self.backend, list(configs), context=self.context
            )
            self.sampled.extend(indices)
            self.targets.extend(float(v) for v in values)
            if self.multi_simulator is not None:
                n_aux = len(self.target_names) - 1
                for config, value in zip(configs, values):
                    primary = float(value)
                    if np.isfinite(primary):
                        # the backend's value stays the primary target
                        # (it carries retry/fault semantics); auxiliary
                        # targets come from the memoized simulation
                        aux = self.multi_simulator.targets_at(config)[1:]
                        self.target_rows.append(
                            (primary, *(float(a) for a in aux))
                        )
                    else:
                        # a permanently failed evaluation fails the
                        # whole row; the fit masks it per target-row
                        self.target_rows.append(
                            (primary,) + (float("nan"),) * n_aux
                        )
        if not self.sampled:
            raise SearchError("cannot train a round with no samples")
        with self.telemetry.phase("explore.train"):
            # the cached design matrix makes each round's training
            # inputs a row gather instead of a re-encode of every
            # sampled configuration
            x = self.encoder.encode_space()[
                np.asarray(self.sampled, dtype=np.intp)
            ]
            if self.multi_simulator is not None:
                y = np.asarray(self.target_rows, dtype=np.float64)
                outcome = fit_cv_round(
                    x, y, k=self.k, training=self.training,
                    min_folds=self.min_folds, context=self.context,
                    target_names=self.target_names,
                )
            else:
                y = np.asarray(self.targets)
                outcome = fit_cv_round(
                    x, y, k=self.k, training=self.training,
                    min_folds=self.min_folds, context=self.context,
                )
        self.predictor = outcome.ensemble.predictor
        round_ = ExplorationRound(len(self.sampled), outcome.estimate)
        self.rounds.append(round_)
        self.converged = outcome.estimate.meets(self.target_error)
        return round_

    # -- checkpointing --------------------------------------------------
    def checkpoint_state(self, agent: Agent) -> ExplorerCheckpoint:
        """The resumable snapshot of this run after a completed round."""
        return ExplorerCheckpoint(
            version=CHECKPOINT_VERSION,
            space_name=self.space.name,
            space_size=len(self.space),
            batch_size=self.batch_size,
            k=self.k,
            target_error=self.target_error,
            max_simulations=self.max_simulations,
            sampled_indices=list(self.sampled),
            targets=list(self.targets),
            rounds=list(self.rounds),
            rng_state=self.rng.bit_generator.state,
            predictor=self.predictor,
            converged=self.converged,
            agent=agent.name,
            agent_state={
                "version": AGENT_STATE_VERSION,
                "state": agent.state_dict(),
            },
            target_rows=(
                list(self.target_rows)
                if self.multi_simulator is not None
                else None
            ),
        )

    def save(self, agent: Agent) -> None:
        """Persist the round (no-op without a checkpoint path)."""
        if self.checkpoint_path is None:
            return
        save_checkpoint(
            self.checkpoint_path,
            self.checkpoint_state(agent),
            self.telemetry,
            self.metrics,
        )

    def _validate_checkpoint(
        self, state: ExplorerCheckpoint, agent: Agent
    ) -> None:
        """Reject checkpoints from a different run identity.

        The space, batch size, fold count and agent define the run's
        identity and must match exactly; ``target_error`` /
        ``max_simulations`` may differ (extending a finished run's
        budget is legitimate).
        """
        expected = (
            ("version", CHECKPOINT_VERSION, state.version),
            ("space_name", self.space.name, state.space_name),
            ("space_size", len(self.space), state.space_size),
            ("batch_size", self.batch_size, state.batch_size),
            ("k", self.k, state.k),
            ("agent", agent.name, state.agent),
        )
        for name, want, got in expected:
            if want != got:
                raise CheckpointError(
                    f"checkpoint is incompatible with this explorer: "
                    f"{name} is {got!r}, expected {want!r}"
                )

    def resume(self, agent: Agent) -> int:
        """Adopt a compatible checkpoint; returns the resumed round count.

        Restores the sampled set, trajectory, predictor, the RNG
        bit-generator state (so the next batch is redrawn exactly where
        the interrupted run left off) and the agent's own state from
        the versioned agent-state slot.
        """
        if self.checkpoint_path is None:
            return 0
        state = load_checkpoint(
            self.checkpoint_path, self.telemetry, self.metrics, strict=True,
            decode=ExplorerCheckpoint.from_payload,
        )
        if state is None:
            return 0
        self._validate_checkpoint(state, agent)
        self.sampled = list(state.sampled_indices)
        self.targets = list(state.targets)
        rows = state.target_rows
        if self.multi_simulator is not None:
            if rows is None and state.sampled_indices:
                raise CheckpointError(
                    f"checkpoint {self.checkpoint_path} was written by a "
                    "scalar-target run and cannot resume a multi-target "
                    "exploration"
                )
            self.target_rows = [tuple(row) for row in rows or []]
        self.rounds = list(state.rounds)
        self.predictor = state.predictor
        self.converged = state.converged
        if state.rng_state is not None:
            self.rng.bit_generator.state = state.rng_state
        slot = state.agent_state
        if slot is not None:
            if (
                not isinstance(slot, dict)
                or slot.get("version") != AGENT_STATE_VERSION
            ):
                raise CheckpointError(
                    f"checkpoint {self.checkpoint_path} carries an "
                    f"unsupported agent-state slot (expected version "
                    f"{AGENT_STATE_VERSION}): {slot!r}"
                )
            agent.load_state_dict(dict(slot.get("state") or {}))
        return len(self.rounds)

    # -- the driver loop ------------------------------------------------
    def run(self, agent: Agent) -> ExplorationResult:
        """Run the loop until the CV estimate reaches ``target_error``
        (mean percentage error), the budget is spent, or ``agent`` runs
        out of unsampled points.

        With a checkpoint path, an existing compatible checkpoint is
        resumed first: the generator and agent state are restored to
        exactly the point the next batch would have been proposed at,
        so a killed-and-resumed run produces a bit-identical
        :class:`ExplorationResult` to an uninterrupted one.  Every
        completed round is then persisted, and the file is removed once
        the run completes.

        Each round emits one ``search.propose`` and one
        ``explore.round`` event, bracketed by ``explore.start`` and
        ``explore.done``; the context's metrics receive the
        ``search.proposals`` counter and the ``explore.round`` timer.
        """
        resumed_rounds = self.resume(agent)

        telemetry = self.telemetry
        explore_start = time.perf_counter()
        telemetry.emit(
            "explore.start",
            space=self.space.name,
            space_size=len(self.space),
            batch_size=self.batch_size,
            k=self.k,
            target_error=self.target_error,
            max_simulations=self.max_simulations,
            backend=type(self.backend).__name__,
            agent=agent.name,
            resumed_rounds=resumed_rounds,
        )

        while not self.done:
            round_start = time.perf_counter()
            want = self.next_batch_size()
            observation = self.observe()
            propose_start = time.perf_counter()
            configs = agent.propose(observation, want, self.rng)
            telemetry.emit(
                "search.propose",
                agent=agent.name,
                round=len(self.rounds) + 1,
                n_requested=want,
                n_proposed=len(configs),
                elapsed_s=time.perf_counter() - propose_start,
            )
            self.metrics.inc("search.proposals", len(configs))
            if not configs:
                # the agent cannot reach any more unsampled points;
                # stop with what the completed rounds learned
                self.exhausted = True
                break
            round_ = self.step(configs)
            self.save(agent)
            # the cooperative-shutdown safe point: the round just
            # completed and its checkpoint is on disk, so honouring a
            # SIGTERM here (campaign/serve workers install the handler)
            # loses nothing — the relaunched attempt resumes from this
            # exact round
            if not self.done:
                poll_shutdown()
            round_elapsed = time.perf_counter() - round_start
            self.metrics.observe("explore.round", round_elapsed)
            telemetry.emit(
                "explore.round",
                round=len(self.rounds),
                n_new=len(configs),
                n_simulations=self.n_simulations,
                error_mean=round_.estimate.mean,
                error_std=round_.estimate.std,
                fold_coverage=round_.estimate.fold_coverage,
                elapsed_s=round_elapsed,
            )

        telemetry.emit(
            "explore.done",
            converged=self.converged,
            n_simulations=self.n_simulations,
            n_rounds=len(self.rounds),
            elapsed_s=time.perf_counter() - explore_start,
        )
        self.finish()
        return self.result()

    def finish(self) -> None:
        """Remove the checkpoint once the run it protects completed."""
        if self.checkpoint_path is not None:
            clear_checkpoint(
                self.checkpoint_path, self.telemetry, self.metrics
            )

    def result(self) -> ExplorationResult:
        """Package the completed run (requires at least one round)."""
        assert self.predictor is not None
        return ExplorationResult(
            space=self.space,
            sampled_indices=self.sampled,
            primary_targets=self.targets,
            rounds=self.rounds,
            predictor=self.predictor,
            encoder=self.encoder,
            converged=self.converged,
            target_names=self.target_names,
            target_rows=(
                list(self.target_rows)
                if self.multi_simulator is not None
                else None
            ),
        )

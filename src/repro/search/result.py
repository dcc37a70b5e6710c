"""Result types of the exploration loop.

:class:`ExplorationRound` and :class:`ExplorationResult` are what
:meth:`~repro.search.environment.Environment.run` produces, and
``repro.search`` exports them.  Like
:mod:`repro.search.protocol`, this module never imports ``repro.core``;
the predictor/encoder/estimate it holds are duck-typed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..designspace.space import Config, DesignSpace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids core imports
    from ..core.encoding import ParameterEncoder
    from ..core.ensemble import EnsemblePredictor
    from ..core.error import ErrorEstimate


@dataclass
class ExplorationRound:
    """One iteration of the incremental loop."""

    n_samples: int
    estimate: "ErrorEstimate"


@dataclass
class ExplorationResult:
    """Everything the loop produced.

    Attributes
    ----------
    space:
        The explored design space.
    sampled_indices:
        Design-space indices of every simulated point, in sampling order.
    primary_targets:
        Simulated primary-target values for those points (the scalar the
        stopping rule and best-point selection operate on; IPC for every
        registered study).
    rounds:
        Error-estimate trajectory, one entry per training round.
    predictor:
        The final trained ensemble.
    encoder:
        Encoder used for all feature vectors.
    converged:
        Whether the stopping criterion was met (vs budget exhaustion).
    target_names:
        The study's declared target vector for multi-target runs
        (primary first); empty for scalar runs.
    target_rows:
        Full per-point target vectors aligned with ``sampled_indices``;
        ``None`` for scalar runs.
    """

    space: DesignSpace
    sampled_indices: List[int]
    primary_targets: List[float]
    rounds: List[ExplorationRound]
    predictor: "EnsemblePredictor"
    encoder: "ParameterEncoder"
    converged: bool
    extra: Dict[str, object] = field(default_factory=dict)
    target_names: Tuple[str, ...] = ()
    target_rows: Optional[List[tuple]] = None

    @property
    def n_simulations(self) -> int:
        return len(self.sampled_indices)

    @property
    def final_estimate(self) -> "ErrorEstimate":
        return self.rounds[-1].estimate

    def predict_config(self, config: Config) -> float:
        """Predict one design point (procedure step 8)."""
        return float(self.predictor.predict(self.encoder.encode(config)[None, :])[0])

    def predict_space(self) -> np.ndarray:
        """Predict every point of the space, in enumeration order."""
        return self.predictor.predict(self.encoder.encode_space())

    def best_configs(
        self,
        n: int = 1,
        constraint: Optional[Callable[[Config], bool]] = None,
        maximize: bool = True,
    ) -> List[tuple]:
        """The model's top-``n`` design points, optionally constrained.

        This is the payoff of the whole approach: once trained, questions
        like "best IPC with an L2 of at most 512 KB" are answered from
        predictions alone, without further simulation.

        Returns ``(config, predicted_value)`` pairs, best first.
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        predictions = self.predict_space()
        order = np.argsort(predictions)
        if maximize:
            order = order[::-1]
        out = []
        for index in order:
            config = self.space.config_at(int(index))
            if constraint is not None and not constraint(config):
                continue
            out.append((config, float(predictions[index])))
            if len(out) == n:
                break
        return out

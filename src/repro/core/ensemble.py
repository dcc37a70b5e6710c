"""Ensemble prediction: average the members' denormalized outputs.

Averaging the k cross-validation networks usually beats any single member
(Section 3.2) — the same reason cross validation's per-member error
estimate is slightly conservative.

Prediction runs through the chunked batch kernels of
:mod:`repro.core.kernels`: arbitrarily large point sets (the full
~20k-point design space) are evaluated a few matmuls per member per
chunk, with bounded peak memory and results identical to per-point
calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .kernels import (
    DEFAULT_PREDICT_CHUNK,
    ensemble_predict,
    ensemble_variance,
    member_predictions,
)
from .network import FeedForwardNetwork


@dataclass
class EnsemblePredictor:
    """A trained ensemble: member networks plus their target scaling.

    ``scaler`` is either one scaler shared by every member (scalar fits
    scale the whole sample once) or a list with one scaler per member
    (multi-target fits scale each fold on its own training rows).
    ``target_names`` names the output columns, primary first, and is
    empty for scalar fits.  :meth:`predict`, :meth:`member_predictions`
    and :meth:`prediction_variance` read the primary output — the
    surface model-guided agents consume — and :meth:`predict_all` every
    output.
    """

    networks: List[FeedForwardNetwork]
    scaler: object
    target_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.networks:
            raise ValueError("an ensemble needs at least one network")
        if any(network is None for network in self.networks):
            # quarantined folds carry network=None; the ensemble builder
            # must filter them out, never average over holes
            raise ValueError(
                "ensemble members must be trained networks, got None "
                "(quarantined folds cannot join an ensemble)"
            )
        if len(self.scalers) != len(self.networks):
            raise ValueError(
                f"got {len(self.scalers)} scalers for "
                f"{len(self.networks)} networks"
            )

    @property
    def scalers(self) -> list:
        """One target scaler per member."""
        if isinstance(self.scaler, list):
            return self.scaler
        return [self.scaler] * len(self.networks)

    @property
    def size(self) -> int:
        return len(self.networks)

    def member_predictions(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Denormalized predictions of every member; shape ``(k, n)``."""
        return member_predictions(
            self.networks, self.scalers, x, chunk_size=chunk_size
        )

    def predict(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Ensemble prediction: mean of member predictions; shape ``(n,)``.

        ``x`` may be the full design matrix; it is evaluated
        ``chunk_size`` points at a time (pass ``None`` to disable
        chunking) with results identical to per-point prediction.
        """
        return ensemble_predict(
            self.networks, self.scalers, x, chunk_size=chunk_size
        )

    def predict_all(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Mean prediction of every target; shape ``(n, n_targets)``."""
        return ensemble_predict(
            self.networks, self.scalers, x, chunk_size=chunk_size,
            column=None,
        )

    def prediction_variance(
        self,
        x: np.ndarray,
        chunk_size: Optional[int] = DEFAULT_PREDICT_CHUNK,
    ) -> np.ndarray:
        """Disagreement among members; the active-learning extension uses
        this as its query-by-committee acquisition signal."""
        return ensemble_variance(
            self.networks, self.scalers, x, chunk_size=chunk_size
        )

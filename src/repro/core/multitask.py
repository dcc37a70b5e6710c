"""Multi-task learning (a future-work direction of Chapter 7).

Simulators emit several statistics besides IPC (cache miss rates, branch
misprediction rate, bus occupancy).  Those metrics cannot be *inputs* — at
prediction time no simulation has run — but a network with one output per
metric shares its hidden layers across tasks, letting the correlations
sharpen the main IPC output.  Such a fit is an ordinary cross-validation
ensemble with extra output heads: pass the metric names as
``target_names`` to :class:`~repro.core.crossval.CrossValidationEnsemble`
(or :func:`repro.api.fit_ensemble`) with one target column per metric,
IPC first.
"""

from __future__ import annotations

from typing import List, Sequence


def auxiliary_target_names(metrics: Sequence[str]) -> List[str]:
    """Validate and normalize an auxiliary-metric list (task 0 is IPC)."""
    names = ["ipc"] + [m for m in metrics if m != "ipc"]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate metric names in {metrics!r}")
    return names

"""Saving and loading trained ensembles.

Sensitivity studies are long-lived: the architect trains a model once and
interrogates it for weeks.  ``save_predictor``/``load_predictor`` persist
an :class:`EnsemblePredictor` to a single ``.npz`` file — weights,
activations and target scaling — with a format version for forward
compatibility.  No pickle is involved, so files are safe to share.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .encoding import TargetScaler
from .ensemble import EnsemblePredictor
from .network import FeedForwardNetwork

#: bump on incompatible format changes
FORMAT_VERSION = 1


def save_predictor(predictor: EnsemblePredictor, path: str) -> None:
    """Write ``predictor`` to ``path`` (``.npz``).

    The format stores one shared target scaler, so per-member scalers
    (multi-target ensembles) are rejected rather than half-saved.
    """
    if not isinstance(predictor.scaler, TargetScaler):
        raise ValueError(
            "only ensembles with one shared TargetScaler can be saved; "
            "multi-target ensembles scale each member separately"
        )
    arrays: Dict[str, np.ndarray] = {
        "format_version": np.array(FORMAT_VERSION),
        "n_networks": np.array(predictor.size),
        "scaler_low": np.array(predictor.scaler.low),
        "scaler_high": np.array(predictor.scaler.high),
    }
    for i, network in enumerate(predictor.networks):
        arrays[f"net{i}_n_layers"] = np.array(network.n_layers)
        arrays[f"net{i}_hidden_activation"] = np.array(
            network.hidden_activation.name
        )
        arrays[f"net{i}_output_activation"] = np.array(
            network.output_activation.name
        )
        for layer, weights in enumerate(network.weights):
            arrays[f"net{i}_w{layer}"] = weights
    np.savez_compressed(path, **arrays)


def _rebuild_network(data, index: int) -> FeedForwardNetwork:
    n_layers = int(data[f"net{index}_n_layers"])
    weights = [data[f"net{index}_w{layer}"] for layer in range(n_layers)]
    hidden_layers = tuple(w.shape[1] for w in weights[:-1])
    if not hidden_layers:
        raise ValueError(f"network {index} in file has no hidden layers")
    network = FeedForwardNetwork(
        n_inputs=weights[0].shape[0] - 1,
        hidden_layers=hidden_layers,
        n_outputs=weights[-1].shape[1],
        hidden_activation=str(data[f"net{index}_hidden_activation"]),
        output_activation=str(data[f"net{index}_output_activation"]),
        # init weights are overwritten below; a fixed seed avoids the
        # unseeded-generator warning on a fully deterministic path
        rng=np.random.default_rng(0),
    )
    network.set_weights(weights)
    return network


def load_predictor(path: str) -> EnsemblePredictor:
    """Read an ensemble previously written by :func:`save_predictor`."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(
                f"unsupported predictor format v{version}; this build "
                f"reads v{FORMAT_VERSION}"
            )
        scaler = TargetScaler()
        scaler.low = float(data["scaler_low"])
        scaler.high = float(data["scaler_high"])
        scaler._fitted = True
        networks = [
            _rebuild_network(data, i) for i in range(int(data["n_networks"]))
        ]
    return EnsemblePredictor(networks=networks, scaler=scaler)

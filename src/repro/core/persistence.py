"""Saving and loading trained ensembles.

Sensitivity studies are long-lived: the architect trains a model once and
interrogates it for weeks.  ``save_predictor``/``load_predictor`` persist
an :class:`EnsemblePredictor` to a single ``.npz`` file — weights,
activations, target scaling and target names — with a format version
for forward compatibility.  No pickle is involved, so files are safe to
share.  The same bytes, written to an in-memory buffer, are how
exploration checkpoints embed their predictor.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import BinaryIO, Dict, Union

import numpy as np

from ..obs.atomicio import atomic_write_bytes
from .encoding import MultiTargetScaler, TargetScaler
from .ensemble import EnsemblePredictor
from .network import FeedForwardNetwork

#: bump on incompatible format changes (v2: per-member scalers and
#: target names; a v1 file is a scalar v2 file without target names)
FORMAT_VERSION = 2

Target = Union[str, Path, BinaryIO]


def _fitted_scaler(low: float, high: float) -> TargetScaler:
    scaler = TargetScaler()
    scaler.low = float(low)
    scaler.high = float(high)
    scaler._fitted = True
    return scaler


def save_predictor(predictor: EnsemblePredictor, path: Target) -> None:
    """Write ``predictor`` to ``path`` (``.npz``; a path or binary file).

    A shared :class:`TargetScaler` (scalar ensembles) is stored once;
    per-member :class:`MultiTargetScaler` s (multi-target ensembles)
    are stored one low/high vector per member.

    A path is written atomically, so a save that dies midway leaves the
    previous file intact; like :func:`numpy.savez_compressed`, ``.npz``
    is appended to a path that lacks it.  A binary file receives the
    archive bytes directly.
    """
    arrays: Dict[str, np.ndarray] = {
        "format_version": np.array(FORMAT_VERSION),
        "n_networks": np.array(predictor.size),
        "target_names": np.array(predictor.target_names, dtype=str),
    }
    if isinstance(predictor.scaler, TargetScaler):
        arrays["scaler_low"] = np.array(predictor.scaler.low)
        arrays["scaler_high"] = np.array(predictor.scaler.high)
    else:
        for i, member in enumerate(predictor.scalers):
            arrays[f"net{i}_scaler_low"] = np.array(
                [s.low for s in member.scalers]
            )
            arrays[f"net{i}_scaler_high"] = np.array(
                [s.high for s in member.scalers]
            )
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
    if not isinstance(path, (str, os.PathLike)):
        np.savez_compressed(path, **arrays)
        return
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path = os.fspath(path)
    atomic_write_bytes(
        path if path.endswith(".npz") else path + ".npz", buffer.getvalue()
    )


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


def _member_scaler(data, index: int) -> MultiTargetScaler:
    scaler = MultiTargetScaler()
    scaler.scalers = [
        _fitted_scaler(low, high)
        for low, high in zip(
            data[f"net{index}_scaler_low"], data[f"net{index}_scaler_high"]
        )
    ]
    return scaler


def load_predictor(path: Target) -> EnsemblePredictor:
    """Read an ensemble previously written by :func:`save_predictor`."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["format_version"])
        if version not in (1, FORMAT_VERSION):
            raise ValueError(
                f"unsupported predictor format v{version}; this build "
                f"reads v1 and v{FORMAT_VERSION}"
            )
        n_networks = int(data["n_networks"])
        if "scaler_low" in data:
            scaler: object = _fitted_scaler(
                data["scaler_low"], data["scaler_high"]
            )
        else:
            scaler = [_member_scaler(data, i) for i in range(n_networks)]
        names = data["target_names"] if "target_names" in data else ()
        networks = [_rebuild_network(data, i) for i in range(n_networks)]
    return EnsemblePredictor(
        networks=networks,
        scaler=scaler,
        target_names=tuple(str(name) for name in names),
    )

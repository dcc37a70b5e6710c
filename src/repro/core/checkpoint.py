"""Crash-safe persistence of exploration progress.

At paper scale one design point costs days of simulation, so losing a
partially completed run to a host preemption is the single most
expensive failure mode the pipeline has.  This module persists enough
state to resume *bit-identically*:

* generic :func:`save_checkpoint` / :func:`load_checkpoint` /
  :func:`clear_checkpoint` primitives — plain JSON payloads inside a
  checksummed envelope, written with the atomic write-temp-then-rename
  discipline of :mod:`repro.obs.atomicio`, so a checkpoint file is
  always either the previous complete round or the new complete round,
  never a torn write;
* :class:`ExplorerCheckpoint` — the exploration loop's round state:
  sampled design-space indices, simulated targets, the error-estimate
  trajectory, the trained predictor, and the **RNG bit-generator
  state**.  Restoring the generator state is what makes a resumed run
  redraw exactly the batch the interrupted round would have drawn, so
  checkpoint → kill → resume reproduces the uninterrupted
  :class:`~repro.search.result.ExplorationResult` exactly (tested).

Checkpoints are *self-healing*: the envelope carries the sha256 of the
payload's canonical JSON, every save rotates the previous good
checkpoint to ``<path>.prev``, and :func:`load_checkpoint` falls back
to the previous round when the primary file fails its checksum, is not
an envelope of this format, or holds a payload its decoder rejects.
Losing one round to disk corruption beats losing the run.

All checkpoint activity is narrated as ``checkpoint.*`` telemetry
events and counters.  The file format is documented in
``docs/robustness.md``.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import io
import json
import math
import os
import zipfile
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..obs.atomicio import atomic_write_text
from ..obs.metrics import METRICS, MetricsRegistry
from ..obs.telemetry import NULL_TELEMETRY, RunTelemetry
from .error import ErrorEstimate
from .persistence import load_predictor, save_predictor

#: layout version of :class:`ExplorerCheckpoint` payloads
#: (v3: plain JSON data with the predictor as embedded ``.npz`` bytes)
CHECKPOINT_VERSION = 3

#: magic marking a file as one of our checkpoint envelopes
CHECKPOINT_FORMAT = "repro-json-checkpoint"

#: bump when the envelope layout changes incompatibly
ENVELOPE_VERSION = 1

PathLike = Union[str, Path]


def previous_path(path: PathLike) -> Path:
    """Where save rotation keeps the previous good checkpoint."""
    path = Path(path)
    return path.with_name(path.name + ".prev")


class CheckpointError(RuntimeError):
    """A checkpoint file exists but cannot be used.

    Raised on unreadable/corrupt/malformed payloads (when the caller
    asked for errors) and on resume-compatibility mismatches — resuming
    a memory-system exploration from a processor-study checkpoint is a
    user error worth failing loudly on, not silently restarting.
    """


# ----------------------------------------------------------------------
# the plain-data codec of exploration state
# ----------------------------------------------------------------------
def _encode_floats(values: Sequence[float]) -> List[Optional[float]]:
    """Floats as JSON; NaN (a failed simulation) travels as ``null``."""
    return [None if math.isnan(v) else float(v) for v in values]


def _require(value: object, types: tuple, what: str) -> object:
    if isinstance(value, bool) and bool not in types or not isinstance(
        value, types
    ):
        raise CheckpointError(
            f"malformed checkpoint: {what} is a {type(value).__name__}"
        )
    return value


def _decode_float(value: object, what: str) -> float:
    if value is None:
        return float("nan")
    return float(_require(value, (int, float), what))


def _decode_floats(values: object, what: str) -> List[float]:
    return [
        _decode_float(v, f"{what}[{i}]")
        for i, v in enumerate(_require(values, (list,), what))
    ]


#: the integer fields of an :class:`ErrorEstimate`
_ESTIMATE_COUNTS = ("n_training", "n_failed", "n_folds_used", "n_folds")


def _encode_estimate(estimate: ErrorEstimate) -> Dict[str, object]:
    data: Dict[str, object] = {
        name: int(getattr(estimate, name)) for name in _ESTIMATE_COUNTS
    }
    data["mean"], data["std"] = _encode_floats([estimate.mean, estimate.std])
    data["per_target"] = (
        None
        if estimate.per_target is None
        else [[name, _encode_estimate(sub)]
              for name, sub in estimate.per_target]
    )
    return data


def _pairs(value: object, what: str) -> list:
    """A JSON list of two-element lists."""
    pairs = _require(value, (list,), what)
    if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
        raise CheckpointError(f"malformed checkpoint: {what} holds a non-pair")
    return pairs


def _decode_estimate(data: object, what: str) -> ErrorEstimate:
    data = _require(data, (dict,), what)
    missing = {"mean", "std", "per_target", *_ESTIMATE_COUNTS} - set(data)
    if missing:
        raise CheckpointError(
            f"malformed checkpoint: {what} lacks {sorted(missing)}"
        )
    per_target = data["per_target"]
    if per_target is not None:
        per_target = tuple(
            (_require(name, (str,), what),
             _decode_estimate(sub, f"{what}.{name}"))
            for name, sub in _pairs(per_target, what)
        )
    return ErrorEstimate(
        mean=_decode_float(data["mean"], f"{what}.mean"),
        std=_decode_float(data["std"], f"{what}.std"),
        per_target=per_target,
        **{n: _require(data[n], (int,), f"{what}.{n}")
           for n in _ESTIMATE_COUNTS},
    )


def _encode_predictor(predictor: Optional[object]) -> Optional[str]:
    """The predictor as base64 of the ``.npz`` :func:`save_predictor`
    writes, so checkpoints and model files share one serialization."""
    if predictor is None:
        return None
    buffer = io.BytesIO()
    save_predictor(predictor, buffer)
    return base64.b64encode(buffer.getvalue()).decode("ascii")


def _decode_predictor(text: object) -> Optional[object]:
    if text is None:
        return None
    try:
        blob = base64.b64decode(_require(text, (str,), "predictor"),
                                validate=True)
        return load_predictor(io.BytesIO(blob))
    except (binascii.Error, ValueError, KeyError, IndexError, OSError,
            EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"malformed checkpoint: unreadable predictor: {exc!r}"
        ) from exc


def _decode_rng_state(state: object) -> Optional[Dict[str, object]]:
    """Validate a ``bit_generator.state`` dict by loading it into a
    fresh bit generator of the class it names."""
    if state is None:
        return None
    try:
        cls = getattr(np.random, state["bit_generator"])
        if not issubclass(cls, np.random.BitGenerator):
            raise TypeError(f"{cls!r} is not a bit generator")
        cls().state = state
    except (KeyError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise CheckpointError(
            f"malformed checkpoint: bad rng_state: {exc!r}"
        ) from exc
    return state


#: the scalar fields of an :class:`ExplorerCheckpoint` and their JSON types
_SCALARS = {
    "version": int, "space_name": str, "space_size": int,
    "batch_size": int, "k": int, "max_simulations": int,
    "converged": bool, "agent": str,
}


@dataclass
class ExplorerCheckpoint:
    """Everything the exploration loop needs to resume a run.

    ``rng_state`` is the generator's ``bit_generator.state`` dict
    captured *after* the round's training finished — i.e. exactly the
    state from which the next round's batch would be drawn.
    ``predictor`` is the ensemble trained in the checkpointed round, so
    a run that was killed after its final round resumes straight to an
    identical result without retraining.

    ``agent`` names the search strategy that drove the run (resume
    refuses a different one — swapping strategies mid-run would break
    bit-identity), and ``agent_state`` is the strategy's own
    checkpointable state in a versioned
    ``{"version": AGENT_STATE_VERSION, "state": {...}}`` envelope (see
    :mod:`repro.search.protocol`).

    :meth:`to_payload` / :meth:`from_payload` are the plain-data codec
    the checkpoint file stores; decoding validates every field and
    raises :class:`CheckpointError` on anything malformed.
    """

    version: int
    space_name: str
    space_size: int
    batch_size: int
    k: int
    target_error: float
    max_simulations: int
    sampled_indices: List[int] = field(default_factory=list)
    targets: List[float] = field(default_factory=list)
    rounds: List[object] = field(default_factory=list)
    rng_state: Optional[Dict[str, object]] = None
    predictor: Optional[object] = None
    converged: bool = False
    agent: str = "random"
    agent_state: Optional[Dict[str, object]] = None
    #: full per-point target vectors of a multi-target run (``targets``
    #: above always holds the primary column); ``None`` for scalar runs
    target_rows: Optional[List[tuple]] = None

    def to_payload(self) -> Dict[str, object]:
        """This state as JSON-serializable data (NaN targets as null)."""
        payload = {name: getattr(self, name) for name in _SCALARS}
        payload.update(
            target_error=self.target_error,
            sampled_indices=[int(i) for i in self.sampled_indices],
            targets=_encode_floats(self.targets),
            rounds=[
                [r.n_samples, _encode_estimate(r.estimate)]
                for r in self.rounds
            ],
            rng_state=self.rng_state,
            predictor=_encode_predictor(self.predictor),
            agent_state=self.agent_state,
            target_rows=(
                None
                if self.target_rows is None
                else [_encode_floats(row) for row in self.target_rows]
            ),
        )
        return payload

    @classmethod
    def from_payload(cls, payload: object) -> "ExplorerCheckpoint":
        """Rebuild a checkpoint from :meth:`to_payload` data."""
        # imported here: repro.search builds on repro.core, so a
        # module-level import would close an import cycle
        from ..search.result import ExplorationRound

        names = [f.name for f in fields(cls)]
        p = payload if isinstance(payload, dict) else {}
        missing = [name for name in names if name not in p]
        if missing:
            raise CheckpointError(
                f"checkpoint holds a {type(payload).__name__}, not an "
                f"exploration state (missing {missing})"
            )
        for name, kind in _SCALARS.items():
            _require(p[name], (kind,), name)
        if p["agent_state"] is not None:
            _require(p["agent_state"], (dict,), "agent_state")
        indices = [
            _require(index, (int,), "sampled index")
            for index in _require(p["sampled_indices"], (list,), "indices")
        ]
        outside = [i for i in indices if not 0 <= i < p["space_size"]]
        if outside:
            raise CheckpointError(
                f"malformed checkpoint: sampled indices {outside} lie "
                f"outside the {p['space_size']}-point space"
            )
        targets = _decode_floats(p["targets"], "targets")
        rows = p["target_rows"]
        if rows is not None:
            rows = [
                tuple(_decode_floats(row, "target_rows"))
                for row in _require(rows, (list,), "target_rows")
            ]
        for what, values in (("targets", targets), ("target_rows", rows)):
            if values is not None and len(values) != len(indices):
                raise CheckpointError(
                    f"malformed checkpoint: {len(values)} {what} for "
                    f"{len(indices)} sampled indices"
                )
        return cls(
            **{name: p[name] for name in _SCALARS},
            target_error=_decode_float(p["target_error"], "target_error"),
            sampled_indices=indices,
            targets=targets,
            rounds=[
                ExplorationRound(
                    _require(n, (int,), "rounds"),
                    _decode_estimate(estimate, "rounds"),
                )
                for n, estimate in _pairs(p["rounds"], "rounds")
            ],
            rng_state=_decode_rng_state(p["rng_state"]),
            predictor=_decode_predictor(p["predictor"]),
            agent_state=p["agent_state"],
            target_rows=rows,
        )


# ----------------------------------------------------------------------
# the checksummed JSON envelope
# ----------------------------------------------------------------------
def canonical_json(payload: object) -> str:
    """The canonical serialization checksums are computed over.

    Compact separators and sorted keys, so two semantically equal
    payloads always hash identically regardless of construction order.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def save_checkpoint(
    path: PathLike,
    payload: object,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Persist ``payload`` to ``path`` atomically, narrating the save.

    ``payload`` is JSON-serializable data, or an object with a
    ``to_payload()`` codec (:class:`ExplorerCheckpoint`, the learning
    curve) whose class name the ``checkpoint.save`` event reports as its
    ``kind``.  The data travels inside a checksummed envelope and an
    existing checkpoint is rotated to ``<path>.prev`` first, so one
    corrupted file costs one round, never the run.  The artifact stays
    a plain JSON document — greppable and diffable.  Non-finite floats
    are rejected (``allow_nan=False``): they would round-trip as invalid
    JSON and silently break checksums.
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    path = Path(path)
    kind = type(payload).__name__
    if hasattr(payload, "to_payload"):
        payload = payload.to_payload()
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    envelope = {
        "format": CHECKPOINT_FORMAT,
        "version": ENVELOPE_VERSION,
        "sha256": digest,
        "payload": payload,
    }
    text = json.dumps(envelope, sort_keys=True, indent=2, allow_nan=False)
    rotated = path.exists()
    if rotated:
        os.replace(path, previous_path(path))
    atomic_write_text(path, text + "\n")
    telemetry.emit(
        "checkpoint.save",
        path=str(path),
        bytes=path.stat().st_size,
        kind=kind,
        sha256=digest,
        rotated=rotated,
    )
    metrics.inc("checkpoint.saves")


def _read(path: Path, decode: Optional[Callable[[object], object]]) -> object:
    """Read one checkpoint file, verifying envelope and checksum, then
    ``decode`` its payload.

    Raises :class:`CheckpointError` on *any* way the file can be bad:
    unreadable, not an envelope (a foreign file or a checkpoint in the
    retired binary format, which is never deserialized), wrong envelope
    version, checksum mismatch (bit rot / torn write) or a payload
    ``decode`` rejects.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path} exists but cannot be read as a "
            f"{CHECKPOINT_FORMAT} envelope: {exc!r}"
        ) from exc
    if (
        not isinstance(envelope, dict)
        or envelope.get("format") != CHECKPOINT_FORMAT
    ):
        raise CheckpointError(
            f"checkpoint {path} is not a {CHECKPOINT_FORMAT} envelope "
            "(legacy or foreign file)"
        )
    version = envelope.get("version")
    if version != ENVELOPE_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has envelope version {version!r}, "
            f"expected {ENVELOPE_VERSION}"
        )
    if "payload" not in envelope:
        raise CheckpointError(f"checkpoint {path} carries no payload")
    payload = envelope["payload"]
    digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
    if digest != envelope.get("sha256"):
        raise CheckpointError(
            f"checkpoint {path} failed its checksum "
            f"(stored {envelope.get('sha256')!r}, computed {digest!r})"
        )
    if decode is None:
        return payload
    try:
        return decode(payload)
    except CheckpointError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from exc


def load_checkpoint(
    path: PathLike,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
    strict: bool = True,
    decode: Optional[Callable[[object], object]] = None,
) -> Optional[object]:
    """Load the payload at ``path``; ``None`` when no checkpoint exists.

    ``decode`` (e.g. :meth:`ExplorerCheckpoint.from_payload`) turns the
    stored JSON data back into an object and must raise
    :class:`CheckpointError` on malformed data; without it the raw
    payload is returned.

    Self-healing: when the primary file is unusable (checksum mismatch,
    not an envelope, wrong envelope version, rejected by ``decode``) —
    or missing while a rotated ``<path>.prev`` exists (a crash between
    rotation and write) — the previous round's checkpoint is loaded
    instead, narrated as ``checkpoint.corrupt`` +
    ``checkpoint.fallback``.  Only when *both* files are unusable does
    the call raise :class:`CheckpointError` (``strict``, the explorer
    resume path — silently restarting an expensive run is worse than
    failing) or degrade to ``None`` (lenient, the learning-curve resume
    path, where recomputing is cheap relative to failing the sweep).
    """
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    path = Path(path)
    prev = previous_path(path)
    if not path.exists() and not prev.exists():
        telemetry.emit("checkpoint.miss", path=str(path))
        metrics.inc("checkpoint.misses")
        return None

    primary_error: Optional[CheckpointError] = None
    if path.exists():
        try:
            payload = _read(path, decode)
        except CheckpointError as exc:
            primary_error = exc
            telemetry.emit(
                "checkpoint.corrupt", path=str(path), error=str(exc)
            )
            metrics.inc("checkpoint.corrupt")
        else:
            telemetry.emit(
                "checkpoint.load",
                path=str(path),
                kind=type(payload).__name__,
            )
            metrics.inc("checkpoint.loads")
            return payload

    if prev.exists():
        try:
            payload = _read(prev, decode)
        except CheckpointError as exc:
            telemetry.emit(
                "checkpoint.corrupt", path=str(prev), error=str(exc)
            )
            metrics.inc("checkpoint.corrupt")
        else:
            telemetry.emit(
                "checkpoint.fallback",
                path=str(path),
                fallback=str(prev),
                kind=type(payload).__name__,
                reason=(
                    str(primary_error)
                    if primary_error is not None
                    else "primary checkpoint missing"
                ),
            )
            metrics.inc("checkpoint.fallbacks")
            metrics.inc("checkpoint.loads")
            return payload

    if strict:
        if primary_error is not None:
            raise primary_error
        raise CheckpointError(
            f"checkpoint {path} and its fallback {prev} are both unusable"
        )
    return None


def clear_checkpoint(
    path: PathLike,
    telemetry: Optional[RunTelemetry] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Remove a checkpoint (and its rotated ``.prev``) after the run it
    protects has completed."""
    telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
    metrics = metrics if metrics is not None else METRICS
    path = Path(path)
    try:
        previous_path(path).unlink()
    except FileNotFoundError:
        pass
    try:
        path.unlink()
    except FileNotFoundError:
        return
    telemetry.emit("checkpoint.clear", path=str(path))
    metrics.inc("checkpoint.clears")

"""Tests for crash-safe checkpointing and atomic artifact writes."""

import hashlib
import io
import json
import os
import pickle
import stat
import subprocess
import sys

import numpy as np
import pytest

from repro.api import explore
from repro.core import (
    CHECKPOINT_VERSION,
    CheckpointError,
    ErrorEstimate,
    ExplorerCheckpoint,
    RunContext,
    clear_checkpoint,
    load_checkpoint,
    previous_path,
    save_checkpoint,
)
from repro.core.checkpoint import CHECKPOINT_FORMAT, canonical_json
from repro.core.encoding import design_matrix
from repro.core.fitting import fit_cv_round
from repro.core.training import TrainingConfig
from repro.experiments import run_learning_curve
from repro.experiments.runner import (
    LearningCurve,
    _curve_cache_path,
    _progress_path,
)
from repro.obs import (
    atomic_write_arrays,
    atomic_write_bytes,
    atomic_write_text,
    load_cached_arrays,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry
from repro.search import ExplorationRound

from .test_backend import smooth_simulator

#: bytes a pickled cache file can hold after a crash, a disk fault or a
#: newer Python, each failing a different way inside ``pickle.load``;
#: the caches never unpickle, so to them each is just a bad file
CORRUPT_PICKLES = {
    "unknown-protocol": b"\x80\x09junk",  # ValueError
    "undecodable": b"c\xff\xfe\n\xff\n.",  # UnicodeDecodeError
    "missing-module": b"cno_such_module\nThing\n.",  # ModuleNotFoundError
    "bad-opcode": b"not a pickle",  # UnpicklingError
    "empty": b"",  # EOFError
    "wrong-type": pickle.dumps({"not": "a cache entry"}),
}

#: set by :class:`Trap` when unpickled: proof that a cache ran code
SENTINEL = {"tripped": False}


def _trip() -> str:
    SENTINEL["tripped"] = True
    return "tripped"


class Trap:
    """An object whose unpickling sets :data:`SENTINEL`."""

    def __reduce__(self):
        return (_trip, ())


def npz_bytes(arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def hostile_cache_files(valid: bytes) -> dict:
    """Bad contents for a cache file whose good ``.npz`` bytes are
    ``valid``: :data:`CORRUPT_PICKLES`, the archive cut in half, the
    archive without its last array, and the archive with its first array
    replaced by a pickled object array that trips :data:`SENTINEL`."""
    with np.load(io.BytesIO(valid), allow_pickle=False) as archive:
        arrays = dict(archive)
    names = list(arrays)
    return {
        **CORRUPT_PICKLES,
        "truncated-npz": valid[: len(valid) // 2],
        "missing-key": npz_bytes({k: arrays[k] for k in names[:-1]}),
        "object-array": npz_bytes(
            {**arrays, names[0]: np.array([Trap()], dtype=object)}
        ),
    }


def _decode_pair(arrays):
    return arrays["a"], arrays["b"]


class TestAtomicWrites:
    def test_text_roundtrip_without_droppings(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        atomic_write_text(path, "replaced\n")
        assert path.read_text() == "replaced\n"
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize(
        "umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
    )
    def test_new_files_get_the_umask_mode(self, tmp_path, umask, mode):
        """Artifacts get the mode a plain ``open(path, "w")`` would, so a
        cache directory shared between users stays readable."""
        script = (
            "import os, sys, numpy as np\n"
            "from repro.obs import atomic_write_arrays, atomic_write_text\n"
            f"os.umask({umask:#o})\n"
            "atomic_write_arrays(sys.argv[1], {'a': np.arange(3)})\n"
            "atomic_write_text(sys.argv[2], 'x')\n"
        )
        paths = [tmp_path / "entry.npz", tmp_path / "run.json"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run(
            [sys.executable, "-c", script, *map(str, paths)],
            check=True,
            env=env,
        )
        for path in paths:
            assert stat.S_IMODE(path.stat().st_mode) == mode, path.name

    def test_bytes_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomic_write_bytes(path, b"\x00\x01")
        assert path.read_bytes() == b"\x00\x01"

    def test_pickle_roundtrip(self, tmp_path):
        """A legacy pickle cache file is a miss, and is never unpickled."""
        path = tmp_path / "entry.npz"
        atomic_write_bytes(path, pickle.dumps([Trap()]))
        errors = []
        assert load_cached_arrays(path, dict, on_error=errors.append) is None
        assert "pickled" in errors[0]
        assert not SENTINEL["tripped"]

    def test_cached_pickle_roundtrip(self, tmp_path):
        path = tmp_path / "entry.npz"
        a, b = np.arange(5, dtype=np.int64), np.array("name")
        atomic_write_arrays(path, {"a": a, "b": b})
        loaded_a, loaded_b = load_cached_arrays(path, _decode_pair)
        np.testing.assert_array_equal(loaded_a, a)
        assert loaded_a.dtype == a.dtype
        assert loaded_b.dtype == b.dtype and str(loaded_b) == "name"
        assert os.listdir(tmp_path) == ["entry.npz"]

    def test_missing_cached_pickle_is_a_miss(self, tmp_path):
        errors = []
        missing = tmp_path / "absent.npz"
        assert load_cached_arrays(missing, dict, on_error=errors.append) is None
        assert len(errors) == 1

    @pytest.mark.parametrize("data", CORRUPT_PICKLES.values(), ids=CORRUPT_PICKLES)
    def test_corrupt_cached_pickle_is_a_miss(self, tmp_path, data):
        path = tmp_path / "entry.npz"
        path.write_bytes(data)
        errors = []
        assert load_cached_arrays(path, dict, on_error=errors.append) is None
        assert len(errors) == 1

    @pytest.mark.parametrize(
        "name", ["truncated-npz", "missing-key", "object-array"]
    )
    def test_hostile_cached_arrays_are_a_miss(self, tmp_path, name):
        valid = npz_bytes({"a": np.arange(100), "b": np.array("x")})
        path = tmp_path / "entry.npz"
        path.write_bytes(hostile_cache_files(valid)[name])
        errors = []
        assert load_cached_arrays(path, _decode_pair, errors.append) is None
        assert len(errors) == 1
        assert not SENTINEL["tripped"]

    def test_object_array_trap_is_armed(self):
        """The object-array payload really runs code when unpickled, so
        the sentinel checks above prove the caches never do."""
        valid = npz_bytes({"a": np.arange(3)})
        trapped = hostile_cache_files(valid)["object-array"]
        with np.load(io.BytesIO(trapped), allow_pickle=True) as archive:
            archive["a"]
        assert SENTINEL["tripped"]
        SENTINEL["tripped"] = False

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing_fsync(fd):
            raise OSError("disk full")

        path = tmp_path / "entry.npz"
        atomic_write_arrays(path, {"a": np.arange(3)})
        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_arrays(path, {"a": np.arange(4)})
        assert os.listdir(tmp_path) == ["entry.npz"]
        assert len(load_cached_arrays(path, lambda arrays: arrays["a"])) == 3


class TestCheckpointPrimitives:
    def test_roundtrip_is_narrated(self, tmp_path):
        path = tmp_path / "run.ckpt"
        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry()
        save_checkpoint(path, {"round": 3}, telemetry, metrics)
        assert load_checkpoint(path, telemetry, metrics) == {"round": 3}
        clear_checkpoint(path, telemetry, metrics)
        assert not path.exists()
        assert metrics.counter("checkpoint.saves") == 1
        assert metrics.counter("checkpoint.loads") == 1
        assert metrics.counter("checkpoint.clears") == 1
        assert telemetry.events_named("checkpoint.save")

    def test_missing_file_is_a_miss(self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        assert load_checkpoint(tmp_path / "absent", metrics=metrics) is None
        assert metrics.counter("checkpoint.misses") == 1

    def test_corrupt_file_strict_raises(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError):
            load_checkpoint(path, strict=True)

    def test_corrupt_file_lenient_degrades(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        path.write_bytes(b"not a pickle")
        metrics = MetricsRegistry(enabled=True)
        assert load_checkpoint(path, metrics=metrics, strict=False) is None
        assert metrics.counter("checkpoint.corrupt") == 1

    def test_clear_missing_is_harmless(self, tmp_path):
        clear_checkpoint(tmp_path / "never-existed")


def _flip_bit(path):
    """Simulate bit rot: flip one bit in the middle of the file."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


_UNPICKLED = []


def _record_unpickle():
    _UNPICKLED.append(True)
    return None


class _Tripwire:
    """Records it if anything ever unpickles it."""

    def __reduce__(self):
        return (_record_unpickle, ())


class TestSelfHealingCheckpoints:
    ROUNDS = (
        {"round": 1, "data": list(range(200))},
        {"round": 2, "data": list(range(200, 400))},
    )

    def _save_rounds(self, path, telemetry=None):
        for payload in self.ROUNDS:
            save_checkpoint(path, payload, telemetry)

    def test_save_rotates_previous(self, tmp_path):
        path = tmp_path / "run.ckpt"
        telemetry = RunTelemetry()
        self._save_rounds(path, telemetry)
        assert previous_path(path).exists()
        assert load_checkpoint(path) == self.ROUNDS[1]
        saves = telemetry.events_named("checkpoint.save")
        assert [e.payload["rotated"] for e in saves] == [False, True]
        assert all(len(e.payload["sha256"]) == 64 for e in saves)

    def test_bit_flip_falls_back_to_previous_round(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        _flip_bit(path)
        telemetry = RunTelemetry()
        metrics = MetricsRegistry(enabled=True)
        assert load_checkpoint(path, telemetry, metrics) == self.ROUNDS[0]
        assert metrics.counter("checkpoint.corrupt") == 1
        assert metrics.counter("checkpoint.fallbacks") == 1
        assert metrics.counter("checkpoint.loads") == 1
        assert telemetry.events_named("checkpoint.corrupt")
        (fallback,) = telemetry.events_named("checkpoint.fallback")
        assert fallback.payload["fallback"] == str(previous_path(path))

    def test_missing_primary_uses_previous(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        path.unlink()  # a crash between rotation and the atomic write
        telemetry = RunTelemetry()
        assert load_checkpoint(path, telemetry) == self.ROUNDS[0]
        (fallback,) = telemetry.events_named("checkpoint.fallback")
        assert "missing" in fallback.payload["reason"]

    def test_both_corrupt_strict_raises(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        _flip_bit(path)
        _flip_bit(previous_path(path))
        metrics = MetricsRegistry(enabled=True)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, metrics=metrics, strict=True)
        assert metrics.counter("checkpoint.corrupt") == 2

    def test_both_corrupt_lenient_degrades(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        _flip_bit(path)
        _flip_bit(previous_path(path))
        assert load_checkpoint(path, strict=False) is None

    def test_envelope_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        payload = {"round": 9}
        path.write_text(json.dumps({
            "format": CHECKPOINT_FORMAT,
            "version": 2,
            "sha256": hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest(),
            "payload": payload,
        }))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path, strict=True)

    def test_pickle_envelope_rejected_without_unpickling(self, tmp_path):
        """A checkpoint in the retired pickle envelope format fails as a
        CheckpointError (strict) or a miss (lenient) — and nothing in it
        is ever unpickled."""
        path = tmp_path / "run.ckpt"
        blob = pickle.dumps({"round": 1})
        path.write_bytes(pickle.dumps({
            "format": "repro-checkpoint",
            "version": 2,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "payload": blob,
            "tripwire": _Tripwire(),
        }))
        with pytest.raises(CheckpointError, match="cannot be read"):
            load_checkpoint(path, strict=True)
        assert load_checkpoint(
            path, strict=False, decode=LearningCurve.from_payload
        ) is None
        assert _UNPICKLED == []

    def test_legacy_raw_pickle_rejected(self, tmp_path):
        path = tmp_path / "run.ckpt"
        path.write_bytes(pickle.dumps({"round": 1}))
        with pytest.raises(CheckpointError, match="envelope"):
            load_checkpoint(path, strict=True)

    @pytest.mark.parametrize(
        "module,name",
        [
            ("repro.core.crossval", "MultiTaskEnsemblePredictor"),
            ("repro.core.multitask", "MultiTaskNetwork"),
            ("repro.core.training", "RobustTrainer"),
        ],
    )
    def test_pickled_removed_class_rejected(
        self, tmp_path, monkeypatch, module, name
    ):
        """A retired pickle checkpoint whose predictor pickled a class
        that no longer exists fails as a CheckpointError, never a raw
        AttributeError — the pickle is never loaded at all."""
        import importlib

        owner = importlib.import_module(module)
        removed = type(name, (), {"__module__": module, "__qualname__": name})
        monkeypatch.setattr(owner, name, removed, raising=False)
        blob = pickle.dumps({"round": 1, "predictor": removed()})
        path = tmp_path / "run.ckpt"
        atomic_write_bytes(
            path,
            pickle.dumps(
                {
                    "format": "repro-checkpoint",
                    "version": 1,
                    "sha256": hashlib.sha256(blob).hexdigest(),
                    "payload": blob,
                }
            ),
        )
        monkeypatch.undo()
        assert not hasattr(owner, name)
        with pytest.raises(CheckpointError, match="cannot be read"):
            load_checkpoint(path, strict=True)
        assert load_checkpoint(
            path, strict=False, decode=ExplorerCheckpoint.from_payload
        ) is None

    def test_clear_removes_previous_too(self, tmp_path):
        path = tmp_path / "run.ckpt"
        self._save_rounds(path)
        clear_checkpoint(path)
        assert not path.exists()
        assert not previous_path(path).exists()


class TestDegradedTraining:
    def test_error_estimate_coverage(self):
        estimate = ErrorEstimate(mean=1.0, std=0.5, n_training=18, n_failed=2)
        assert estimate.coverage == 0.9
        assert "(2 failed)" in str(estimate)
        assert ErrorEstimate(mean=1.0, std=0.5, n_training=0).coverage == 0.0

    def test_fit_cv_round_masks_nan_targets(self, rng):
        x = rng.random((20, 3))
        y = 1.0 + x @ np.array([0.5, 0.2, 0.1])
        y[3] = np.nan
        y[11] = np.nan
        metrics = MetricsRegistry(enabled=True)
        context = RunContext(
            rng=np.random.default_rng(0), metrics=metrics,
            telemetry=RunTelemetry(),
        )
        outcome = fit_cv_round(x, y, k=4, context=context)
        assert outcome.estimate.n_failed == 2
        assert outcome.estimate.n_training == 18
        assert outcome.estimate.coverage == 0.9
        assert metrics.counter("fit.masked_rows") == 2
        assert context.telemetry.events_named("fit.masked")


class _InterruptedSimulator:
    """Dies with a non-retryable error after ``fail_after`` evaluations."""

    def __init__(self, fail_after):
        self.calls = 0
        self.fail_after = fail_after

    def __call__(self, config):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("host preempted")
        return smooth_simulator(config)


class TestExplorerCheckpointing:
    def _explore(self, space, simulate, training, seed=3, **run):
        return explore(
            space, simulate, batch_size=10, k=4,
            training=training, context=RunContext.seeded(seed), **run,
        )

    def test_kill_and_resume_is_bit_identical(
        self, tiny_space, fast_training, tmp_path
    ):
        """checkpoint -> kill -> resume reproduces the uninterrupted
        run exactly: same samples, targets, trajectory and model."""
        baseline = self._explore(
            tiny_space, smooth_simulator, fast_training, target_error=1.0,
            max_simulations=30,
        )
        assert len(baseline.rounds) >= 2  # the test needs a round to resume

        path = tmp_path / "explore.ckpt"
        dying = _InterruptedSimulator(fail_after=10)  # dies in round 2
        with pytest.raises(RuntimeError):
            self._explore(
                tiny_space, dying, fast_training, target_error=1.0,
                max_simulations=30, checkpoint=path,
            )
        assert path.exists()

        # the resuming explorer's own seed must not matter: the RNG
        # state comes from the checkpoint
        resumed = self._explore(
            tiny_space, smooth_simulator, fast_training, seed=99,
            target_error=1.0, max_simulations=30, checkpoint=path,
        )

        assert resumed.sampled_indices == baseline.sampled_indices
        assert resumed.primary_targets == baseline.primary_targets
        assert len(resumed.rounds) == len(baseline.rounds)
        assert [r.estimate.mean for r in resumed.rounds] == [
            r.estimate.mean for r in baseline.rounds
        ]
        np.testing.assert_array_equal(
            resumed.predict_space(), baseline.predict_space()
        )
        # a finished run leaves no checkpoint behind
        assert not path.exists()

    def test_corrupted_checkpoint_resumes_from_previous_round(
        self, tiny_space, fast_training, tmp_path
    ):
        """Bit rot in the newest checkpoint costs one round, never the
        run: resume falls back to ``<path>.prev`` and still reproduces
        the uninterrupted result bit-identically."""
        baseline = self._explore(
            tiny_space, smooth_simulator, fast_training, target_error=1.0,
            max_simulations=30,
        )
        assert len(baseline.rounds) >= 3  # needs a .prev to fall back to

        path = tmp_path / "explore.ckpt"
        dying = _InterruptedSimulator(fail_after=20)  # dies in round 3
        with pytest.raises(RuntimeError):
            self._explore(
                tiny_space, dying, fast_training, target_error=1.0,
                max_simulations=30, checkpoint=path,
            )
        assert path.exists() and previous_path(path).exists()

        _flip_bit(path)  # corrupt the round-2 checkpoint

        resumed = self._explore(
            tiny_space, smooth_simulator, fast_training, seed=99,
            target_error=1.0, max_simulations=30, checkpoint=path,
        )

        assert resumed.sampled_indices == baseline.sampled_indices
        assert resumed.primary_targets == baseline.primary_targets
        assert [r.estimate.mean for r in resumed.rounds] == [
            r.estimate.mean for r in baseline.rounds
        ]
        np.testing.assert_array_equal(
            resumed.predict_space(), baseline.predict_space()
        )
        # a finished run leaves neither checkpoint file behind
        assert not path.exists()
        assert not previous_path(path).exists()

    def test_terminal_checkpoint_short_circuits(
        self, tiny_space, fast_training, tmp_path
    ):
        baseline = self._explore(
            tiny_space, smooth_simulator, fast_training, target_error=3.0,
            max_simulations=30,
        )

        path = tmp_path / "done.ckpt"
        save_checkpoint(
            path,
            ExplorerCheckpoint(
                version=CHECKPOINT_VERSION,
                space_name=tiny_space.name,
                space_size=len(tiny_space),
                batch_size=10,
                k=4,
                target_error=3.0,
                max_simulations=30,
                sampled_indices=list(baseline.sampled_indices),
                targets=list(baseline.primary_targets),
                rounds=list(baseline.rounds),
                rng_state=None,
                predictor=baseline.predictor,
                converged=True,
            ),
        )
        counting = _InterruptedSimulator(fail_after=0)  # any call raises
        result = self._explore(
            tiny_space, counting, fast_training, target_error=3.0,
            max_simulations=30, checkpoint=path,
        )
        assert counting.calls == 0
        assert result.converged
        assert result.sampled_indices == baseline.sampled_indices
        np.testing.assert_array_equal(
            result.predict_space(), baseline.predict_space()
        )

    def test_incompatible_checkpoint_fails_loudly(
        self, tiny_space, fast_training, tmp_path
    ):
        path = tmp_path / "other.ckpt"
        save_checkpoint(
            path,
            ExplorerCheckpoint(
                version=CHECKPOINT_VERSION,
                space_name=tiny_space.name,
                space_size=len(tiny_space),
                batch_size=5,  # explorer below uses 10
                k=4,
                target_error=3.0,
                max_simulations=30,
            ),
        )
        with pytest.raises(CheckpointError, match="batch_size"):
            self._explore(
                tiny_space, smooth_simulator, fast_training, target_error=3.0,
                max_simulations=30, checkpoint=path,
            )

    def test_foreign_payload_fails_loudly(
        self, tiny_space, fast_training, tmp_path
    ):
        path = tmp_path / "foreign.ckpt"
        save_checkpoint(path, {"not": "an exploration"})
        with pytest.raises(CheckpointError, match="dict"):
            self._explore(
                tiny_space, smooth_simulator, fast_training, target_error=3.0,
                max_simulations=30, checkpoint=path,
            )


@pytest.mark.slow
class TestCurveResume:
    SIZES = (12, 16)

    def _context(self, cache_dir):
        return RunContext(
            rng=np.random.default_rng(5),
            telemetry=RunTelemetry(),
            metrics=MetricsRegistry(enabled=True),
            cache_dir=cache_dir,
        )

    def _run(self, cache_dir, fast_training, resume=False):
        return run_learning_curve(
            "memory-system", "gzip", sizes=self.SIZES, source="true",
            seed=5, training=fast_training, use_cache=False,
            context=self._context(cache_dir), resume=resume,
        )

    def test_resume_skips_completed_points(self, tmp_path, fast_training):
        baseline = self._run(tmp_path, fast_training)

        from repro.experiments import get_study

        study = get_study("memory-system")
        cache = _curve_cache_path(
            study, "gzip", "true", self.SIZES, 5, fast_training, tmp_path
        )
        progress = _progress_path(cache)
        partial = LearningCurve(
            study="memory-system", benchmark="gzip", source="true", seed=5,
            points=[baseline.points[0]],
        )
        save_checkpoint(progress, partial)

        context = self._context(tmp_path)
        resumed = run_learning_curve(
            "memory-system", "gzip", sizes=self.SIZES, source="true",
            seed=5, training=fast_training, use_cache=False,
            context=context, resume=True,
        )
        # only the missing size was trained...
        trained = context.telemetry.events_named("curve.point")
        assert [e.payload["n_samples"] for e in trained] == [self.SIZES[1]]
        # ...and the result is bit-identical to the uninterrupted run
        assert [p.n_samples for p in resumed.points] == list(self.SIZES)
        for got, want in zip(resumed.points, baseline.points):
            assert got.true_mean == want.true_mean
            assert got.estimated_mean == want.estimated_mean
        # the progress file is cleared once the curve completes
        assert not progress.exists()

    def test_cached_resumable_run_narrates_only_its_progress(
        self, tmp_path, fast_training
    ):
        """Storing the finished curve in the cache goes through the
        checkpoint codec but adds no ``checkpoint.*`` events or counts:
        the run narrates one save per size and one clear of its
        progress file, as a run without a cache does."""
        context = self._context(tmp_path)
        curve = run_learning_curve(
            "memory-system", "gzip", sizes=self.SIZES, source="true",
            seed=5, training=fast_training, context=context, resume=True,
        )
        events = [
            e for e in context.telemetry.events if e.name.startswith("checkpoint.")
        ]
        assert [e.name for e in events] == [
            "checkpoint.miss", "checkpoint.save", "checkpoint.save",
            "checkpoint.clear",
        ]
        assert all(e.payload["path"].endswith(".partial") for e in events)
        assert {
            name: value for name, value in context.metrics.counters.items()
            if name.startswith(("checkpoint.", "cache."))
        } == {
            "checkpoint.misses": 1, "checkpoint.saves": 2,
            "checkpoint.clears": 1, "cache.misses": 1,
        }
        (cached,) = tmp_path.glob("curve-*.json")
        assert load_checkpoint(cached, decode=LearningCurve.from_payload) == curve

    def test_incompatible_partial_is_ignored(self, tmp_path, fast_training):
        from repro.experiments import get_study

        study = get_study("memory-system")
        cache = _curve_cache_path(
            study, "gzip", "true", self.SIZES, 5, fast_training, tmp_path
        )
        progress = _progress_path(cache)
        stale = LearningCurve(
            study="memory-system", benchmark="gzip", source="true", seed=6,
        )
        save_checkpoint(progress, stale)

        context = self._context(tmp_path)
        resumed = run_learning_curve(
            "memory-system", "gzip", sizes=self.SIZES, source="true",
            seed=5, training=fast_training, use_cache=False,
            context=context, resume=True,
        )
        assert context.telemetry.events_named("checkpoint.incompatible")
        trained = context.telemetry.events_named("curve.point")
        assert [e.payload["n_samples"] for e in trained] == list(self.SIZES)
        assert [p.n_samples for p in resumed.points] == list(self.SIZES)


class TestJsonCheckpoints:
    """Plain JSON payloads, as campaign manifests and serve registries
    store them."""

    def test_roundtrip_and_counters(self, tmp_path):
        metrics = MetricsRegistry(enabled=True)
        telemetry = RunTelemetry()
        path = tmp_path / "state.json"
        payload = {"cells": {"a": 1}, "nested": [1, 2, {"b": True}]}
        save_checkpoint(path, payload, telemetry, metrics)
        assert load_checkpoint(path) == payload
        assert metrics.counter("checkpoint.saves") == 1
        assert telemetry.events_named("checkpoint.save")

    def test_missing_file_is_a_miss(self, tmp_path):
        assert load_checkpoint(tmp_path / "absent.json") is None

    def test_checksum_mismatch_strict_raises(self, tmp_path):
        import json as json_mod

        path = tmp_path / "state.json"
        save_checkpoint(path, {"value": 1})
        doc = json_mod.loads(path.read_text())
        doc["payload"]["value"] = 2  # tamper without updating the checksum
        path.write_text(json_mod.dumps(doc))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path, strict=True)

    def test_corrupt_primary_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "state.json"
        save_checkpoint(path, {"round": 1})
        save_checkpoint(path, {"round": 2})
        path.write_text("garbage")
        assert load_checkpoint(path, strict=True) == {"round": 1}

    def test_canonical_json_is_stable(self):
        a = canonical_json({"b": 1, "a": [1, 2]})
        b = canonical_json({"a": [1, 2], "b": 1})
        assert a == b
        with pytest.raises(ValueError):
            canonical_json({"bad": float("nan")})


def _rows_equal(a, b):
    """Target rows equal, NaN matching NaN."""
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


class TestExplorerCheckpointCodec:
    """The plain-data codec of the explorer's round state."""

    @pytest.fixture
    def state(self, tiny_space, fast_training):
        x = np.random.default_rng(1).random((24, 3))
        y = np.column_stack([0.5 + x[:, 0], 1.0 + x[:, 1] * x[:, 2]])
        fit = fit_cv_round(
            x, y, k=4, training=fast_training,
            context=RunContext.seeded(2), target_names=("ipc", "energy"),
        )
        rng = np.random.default_rng(5)
        rng.random(3)
        return ExplorerCheckpoint(
            version=CHECKPOINT_VERSION,
            space_name=tiny_space.name,
            space_size=len(tiny_space),
            batch_size=3,
            k=4,
            target_error=1.5,
            max_simulations=12,
            sampled_indices=[4, 0, 9],
            # the middle simulation failed permanently (NaN-marked)
            targets=[0.7, float("nan"), 0.9],
            rounds=[ExplorationRound(3, fit.estimate)],
            rng_state=rng.bit_generator.state,
            predictor=fit.ensemble.predictor,
            agent="annealing",
            agent_state={"version": 1, "state": {"current": 4}},
            target_rows=[(0.7, 1.1), (float("nan"), float("nan")), (0.9, 1.2)],
        )

    def _reload(self, state, tmp_path):
        path = tmp_path / "explore.ckpt"
        telemetry = RunTelemetry()
        save_checkpoint(path, state, telemetry)
        loaded = load_checkpoint(
            path, telemetry, decode=ExplorerCheckpoint.from_payload
        )
        (saved,) = telemetry.events_named("checkpoint.save")
        (load,) = telemetry.events_named("checkpoint.load")
        assert saved.payload["kind"] == load.payload["kind"] == (
            "ExplorerCheckpoint"
        )
        return loaded

    def test_round_trip_with_nan_marked_simulation(self, state, tmp_path):
        loaded = self._reload(state, tmp_path)
        assert loaded.sampled_indices == state.sampled_indices
        _rows_equal(loaded.targets, state.targets)
        _rows_equal(loaded.target_rows, state.target_rows)
        assert loaded.rounds == state.rounds
        assert loaded.rounds[0].estimate.target_names == ("ipc", "energy")
        assert loaded.agent_state == state.agent_state
        assert loaded.rng_state == state.rng_state
        restored = np.random.default_rng(0)
        restored.bit_generator.state = loaded.rng_state
        original = np.random.default_rng(0)
        original.bit_generator.state = state.rng_state
        assert restored.random(4).tolist() == original.random(4).tolist()
        x = np.random.default_rng(3).random((7, 3))
        np.testing.assert_array_equal(
            loaded.predictor.predict_all(x), state.predictor.predict_all(x)
        )
        assert loaded.predictor.target_names == ("ipc", "energy")

    def test_file_is_plain_json(self, state, tmp_path):
        path = tmp_path / "explore.ckpt"
        save_checkpoint(path, state)
        doc = json.loads(path.read_text())
        assert doc["format"] == CHECKPOINT_FORMAT
        assert doc["payload"]["targets"] == [0.7, None, 0.9]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda p: p.update(targets="0.7"),
            lambda p: p.update(targets=p["targets"][:-1]),
            lambda p: p.update(target_rows=p["target_rows"][:-1]),
            lambda p: p.update(sampled_indices=[4, 0, 10_000]),
            lambda p: p.update(sampled_indices=[4, 0, -1]),
            lambda p: p.update(sampled_indices=[4, 0, 1.5]),
            lambda p: p.update(batch_size="3"),
            lambda p: p.update(converged=1),
            lambda p: p.update(rng_state={"bit_generator": "PCG64"}),
            lambda p: p.update(rng_state={"bit_generator": "default_rng"}),
            lambda p: p.update(rng_state=[1, 2]),
            lambda p: p.update(rounds=[[3]]),
            lambda p: p["rounds"][0][1].pop("n_folds"),
            lambda p: p["rounds"][0][1].update(per_target=[["ipc"]]),
            lambda p: p.update(predictor="not base64!"),
            lambda p: p.update(predictor="Z2FyYmFnZQ=="),
            lambda p: p.update(agent_state=[1]),
            lambda p: p.pop("agent"),
        ],
        ids=[
            "targets-type", "targets-length", "rows-length",
            "index-too-big", "index-negative", "index-float",
            "int-field-type", "bool-field-type", "rng-incomplete",
            "rng-not-a-bitgen", "rng-not-a-dict", "round-shape",
            "estimate-field", "per-target-shape", "predictor-base64",
            "predictor-npz", "agent-state-type", "missing-field",
        ],
    )
    def test_malformed_payload_raises_checkpoint_error(
        self, state, tmp_path, corrupt
    ):
        payload = json.loads(canonical_json(state.to_payload()))
        corrupt(payload)
        with pytest.raises(CheckpointError, match="checkpoint"):
            ExplorerCheckpoint.from_payload(payload)
        path = tmp_path / "explore.ckpt"
        save_checkpoint(path, payload)
        with pytest.raises(CheckpointError):
            load_checkpoint(
                path, strict=True, decode=ExplorerCheckpoint.from_payload
            )

    def test_foreign_payloads_raise_checkpoint_error(self):
        for payload in ([1, 2], "state", None, {"not": "an exploration"}):
            with pytest.raises(CheckpointError, match="exploration state"):
                ExplorerCheckpoint.from_payload(payload)


class _DyingAfter:
    """A multi-target simulate fn that dies after ``fail_after`` calls.

    It exposes the wrapped simulator as ``fn``, the attribute the
    environment walks to find the study's declared target vector."""

    def __init__(self, fn, fail_after):
        self.fn = fn
        self.calls = 0
        self.fail_after = fail_after

    def __call__(self, config):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("host preempted")
        return self.fn(config)


class TestMultiTargetResume:
    """Kill-and-resume of the multi-target cache-policy study."""

    def _explore(self, simulate, checkpoint=None):
        from repro.api import explore, get_study

        return explore(
            get_study("cache-policy").space,
            simulate,
            target_error=1e-6,
            max_simulations=30,
            batch_size=10,
            k=4,
            seed=7,
            agent="committee",
            training=TrainingConfig(
                hidden_layers=(8,), max_epochs=200, patience=6,
                check_interval=10, batch_size=32,
            ),
            checkpoint=checkpoint,
        )

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        from repro.api import get_study, make_simulate_fn

        study = get_study("cache-policy")
        baseline = self._explore(make_simulate_fn(study, "osc-tight"))
        assert len(baseline.rounds) == 3

        path = tmp_path / "cachepolicy.ckpt"
        dying = _DyingAfter(make_simulate_fn(study, "osc-tight"), 15)
        with pytest.raises(RuntimeError, match="preempted"):
            self._explore(dying, checkpoint=path)
        assert path.exists()

        resumed = self._explore(
            make_simulate_fn(study, "osc-tight"), checkpoint=path
        )
        assert resumed.sampled_indices == baseline.sampled_indices
        assert resumed.target_rows == baseline.target_rows
        assert resumed.target_names == baseline.target_names
        for got, want in zip(resumed.rounds, baseline.rounds):
            assert got.n_samples == want.n_samples
            for name in baseline.target_names:
                assert (
                    got.estimate.for_target(name)
                    == want.estimate.for_target(name)
                )
        matrix = design_matrix(study.space)[:5]
        np.testing.assert_array_equal(
            resumed.predictor.predict_all(matrix),
            baseline.predictor.predict_all(matrix),
        )
        assert not path.exists()

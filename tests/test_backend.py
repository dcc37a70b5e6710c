"""Tests for the batch-first evaluation backends (repro.core.backend)."""

import numpy as np
import pytest

from repro.api import explore
from repro.core import (
    CachingBackend,
    EvaluationBackend,
    EvaluationError,
    ProcessPoolBackend,
    RunContext,
    SerialBackend,
    as_backend,
)
from repro.designspace import CardinalParameter, DesignSpace
from repro.obs.metrics import MetricsRegistry


def linear_fn(config):
    """Cheap, deterministic, picklable evaluation function."""
    return 0.1 + 0.01 * config["a"] + 0.001 * config["b"]


def linear_factory():
    """Picklable zero-arg factory for the worker-initializer path."""
    return linear_fn


def crashing_fn(config):
    raise RuntimeError(f"boom at a={config['a']}")


def smooth_simulator(config):
    """Module-level (hence picklable) copy of the tiny-space simulator."""
    size_term = {8: 0.4, 16: 0.55, 32: 0.68, 64: 0.75}[config["size"]]
    ways_term = {1: 0.0, 2: 0.05, 4: 0.08}[config["ways"]]
    policy_term = 0.04 if config["policy"] == "WB" else 0.0
    prefetch_term = 0.03 if config["prefetch"] else 0.0
    return size_term + ways_term + policy_term + prefetch_term


@pytest.fixture
def small_space():
    return DesignSpace(
        name="backend-test",
        parameters=[
            CardinalParameter("a", (1, 2, 3, 4)),
            CardinalParameter("b", (10, 20, 30)),
        ],
    )


class CountingBackend(SerialBackend):
    """Serial backend that counts how many configs it actually evaluated."""

    def __init__(self, fn):
        super().__init__(fn)
        self.evaluated = 0
        self.closed = False

    def evaluate(self, configs):
        self.evaluated += len(configs)
        return super().evaluate(configs)

    def close(self):
        self.closed = True


class TestSerialBackend:
    def test_matches_direct_calls(self, small_space):
        configs = [small_space.config_at(i) for i in range(6)]
        values = SerialBackend(linear_fn).evaluate(configs)
        assert values.dtype == np.float64
        expected = np.array([linear_fn(c) for c in configs])
        np.testing.assert_array_equal(values, expected)

    def test_empty_batch(self):
        values = SerialBackend(linear_fn).evaluate([])
        assert values.shape == (0,)

    def test_rejects_non_callable(self):
        with pytest.raises(TypeError):
            SerialBackend(42)

    def test_context_manager(self):
        with SerialBackend(linear_fn) as backend:
            assert backend.evaluate([{"a": 1, "b": 10}]).shape == (1,)


class TestAsBackend:
    def test_wraps_callable(self):
        backend = as_backend(linear_fn)
        assert isinstance(backend, SerialBackend)
        assert isinstance(backend, EvaluationBackend)

    def test_passes_backend_through(self):
        backend = SerialBackend(linear_fn)
        assert as_backend(backend) is backend

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_backend(object())


class TestProcessPoolBackend:
    def test_bit_identical_to_serial(self, small_space):
        configs = [small_space.config_at(i) for i in range(len(small_space))]
        serial = SerialBackend(linear_fn).evaluate(configs)
        with ProcessPoolBackend(linear_fn, n_jobs=2) as pool:
            parallel = pool.evaluate(configs)
        np.testing.assert_array_equal(serial, parallel)

    def test_factory_builds_fn_in_worker(self, small_space):
        configs = [small_space.config_at(i) for i in range(4)]
        with ProcessPoolBackend(factory=linear_factory, n_jobs=2) as pool:
            values = pool.evaluate(configs)
        expected = np.array([linear_fn(c) for c in configs])
        np.testing.assert_array_equal(values, expected)

    def test_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend()
        with pytest.raises(ValueError):
            ProcessPoolBackend(linear_fn, factory=linear_factory)

    def test_validates_workers_and_chunks(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(linear_fn, n_jobs=0)
        with pytest.raises(ValueError):
            ProcessPoolBackend(linear_fn, chunk_size=0)

    def test_pool_persists_across_batches(self, small_space):
        configs = [small_space.config_at(i) for i in range(4)]
        with ProcessPoolBackend(linear_fn, n_jobs=2) as pool:
            pool.evaluate(configs)
            first = pool._pool
            pool.evaluate(configs)
            assert pool._pool is first

    def test_empty_batch_spawns_no_workers(self):
        backend = ProcessPoolBackend(linear_fn, n_jobs=2)
        assert backend.evaluate([]).shape == (0,)
        assert backend._pool is None

    def test_crashing_fn_raises_and_shuts_down(self, small_space):
        configs = [small_space.config_at(i) for i in range(4)]
        backend = ProcessPoolBackend(crashing_fn, n_jobs=2)
        with pytest.raises(EvaluationError) as excinfo:
            backend.evaluate(configs)
        # the worker's exception is chained for debugging...
        assert "boom" in repr(excinfo.value.__cause__)
        # ...and the broken pool was torn down, not leaked
        assert backend._pool is None
        backend.close()  # idempotent


class TestCachingBackend:
    def test_hit_miss_accounting(self, small_space):
        inner = CountingBackend(linear_fn)
        cache = CachingBackend(inner, small_space)
        configs = [small_space.config_at(i) for i in range(5)]

        first = cache.evaluate(configs)
        assert (cache.hits, cache.misses) == (0, 5)
        assert inner.evaluated == 5

        second = cache.evaluate(configs)
        assert (cache.hits, cache.misses) == (5, 5)
        assert inner.evaluated == 5  # nothing re-evaluated
        assert len(cache) == 5
        np.testing.assert_array_equal(first, second)

    def test_duplicates_within_batch_evaluated_once(self, small_space):
        inner = CountingBackend(linear_fn)
        cache = CachingBackend(inner, small_space)
        config = small_space.config_at(3)
        values = cache.evaluate([config, config, config])
        assert inner.evaluated == 1
        assert np.all(values == values[0])

    def test_metrics_mirroring(self, small_space):
        metrics = MetricsRegistry(enabled=True)
        cache = CachingBackend(linear_fn, small_space, metrics=metrics)
        configs = [small_space.config_at(i) for i in range(3)]
        cache.evaluate(configs)
        cache.evaluate(configs)
        assert metrics.counter("backend.cache.hits") == 3
        assert metrics.counter("backend.cache.misses") == 3

    def test_close_closes_inner(self, small_space):
        inner = CountingBackend(linear_fn)
        cache = CachingBackend(inner, small_space)
        cache.close()
        assert inner.closed


class TestExplorationEquivalence:
    def test_serial_and_pool_explorations_identical(
        self, tiny_space, fast_training
    ):
        """The backend is an implementation detail: a seeded exploration
        produces bit-identical results whether configurations are
        evaluated in-process or across a worker pool."""

        def run(backend):
            return explore(
                tiny_space, backend, batch_size=10, k=4,
                training=fast_training, context=RunContext.seeded(3),
                target_error=3.0, max_simulations=30,
            )

        serial = run(SerialBackend(smooth_simulator))
        with ProcessPoolBackend(smooth_simulator, n_jobs=2) as pool:
            parallel = run(pool)

        assert serial.sampled_indices == parallel.sampled_indices
        assert serial.final_estimate.mean == parallel.final_estimate.mean
        np.testing.assert_array_equal(
            serial.predict_space(), parallel.predict_space()
        )

    def test_caching_backend_plugs_into_explorer(
        self, tiny_space, fast_training
    ):
        cache = CachingBackend(smooth_simulator, tiny_space)
        result = explore(
            tiny_space, cache, batch_size=10, k=4, training=fast_training,
            context=RunContext.seeded(3), target_error=3.0, max_simulations=20,
        )
        assert len(cache) == result.n_simulations
        # the explorer never re-simulates, so every lookup was a miss
        assert cache.misses == result.n_simulations

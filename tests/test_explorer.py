"""Tests for the incremental design-space exploration loop."""

import numpy as np
import pytest

from repro.api import explore
from repro.core import RunContext
from repro.core.encoding import ParameterEncoder
from repro.search import CommitteeAgent, committee_select


def smooth_simulator(config):
    """A positive, smooth function of the tiny space's parameters."""
    size_term = {8: 0.4, 16: 0.55, 32: 0.68, 64: 0.75}[config["size"]]
    ways_term = {1: 0.0, 2: 0.05, 4: 0.08}[config["ways"]]
    policy_term = 0.04 if config["policy"] == "WB" else 0.0
    prefetch_term = 0.03 if config["prefetch"] else 0.0
    return size_term + ways_term + policy_term + prefetch_term


class CountingSimulator:
    def __init__(self):
        self.calls = 0
        self.seen = []

    def __call__(self, config):
        self.calls += 1
        self.seen.append(tuple(sorted(config.items())))
        return smooth_simulator(config)


class TestExplorer:
    def test_converges_on_easy_space(self, tiny_space, fast_training, rng):
        result = explore(
            tiny_space, smooth_simulator, batch_size=10, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=5.0, max_simulations=40,
        )
        assert result.rounds
        assert result.final_estimate.n_training == result.n_simulations
        if result.converged:
            assert result.final_estimate.mean <= 5.0

    def test_never_resimulates_points(self, tiny_space, fast_training, rng):
        simulator = CountingSimulator()
        result = explore(
            tiny_space, simulator, batch_size=10, k=4, training=fast_training,
            context=RunContext(rng=rng), target_error=0.01, max_simulations=40,
        )
        assert simulator.calls == result.n_simulations
        assert len(set(result.sampled_indices)) == result.n_simulations

    def test_respects_budget(self, tiny_space, fast_training, rng):
        result = explore(
            tiny_space, smooth_simulator, batch_size=10, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=0.0001, max_simulations=30,
        )
        assert result.n_simulations <= 30

    def test_rounds_accumulate_batches(self, tiny_space, fast_training, rng):
        result = explore(
            tiny_space, smooth_simulator, batch_size=8, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=0.0001, max_simulations=24,
        )
        assert [r.n_samples for r in result.rounds] == [8, 16, 24]

    def test_predict_config_and_space(self, tiny_space, fast_training, rng):
        result = explore(
            tiny_space, smooth_simulator, batch_size=12, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=2.0, max_simulations=24,
        )
        prediction = result.predict_config(tiny_space.config_at(0))
        assert 0.1 < prediction < 1.2
        full = result.predict_space()
        assert full.shape == (len(tiny_space),)

    def test_predictions_accurate_after_convergence(
        self, tiny_space, fast_training, rng
    ):
        result = explore(
            tiny_space, smooth_simulator, batch_size=16, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=3.0, max_simulations=64,
        )
        truth = np.array([smooth_simulator(c) for c in tiny_space])
        errors = np.abs(result.predict_space() - truth) / truth * 100
        assert errors.mean() < 12.0

    def test_best_configs(self, tiny_space, fast_training, rng):
        result = explore(
            tiny_space, smooth_simulator, batch_size=16, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=3.0, max_simulations=48,
        )
        top = result.best_configs(n=3)
        assert len(top) == 3
        values = [v for _, v in top]
        assert values == sorted(values, reverse=True)
        # the known optimum has size=64; the model's top picks should too
        assert top[0][0]["size"] in (32, 64)

    def test_best_configs_with_constraint(self, tiny_space, fast_training, rng):
        result = explore(
            tiny_space, smooth_simulator, batch_size=16, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=3.0, max_simulations=48,
        )
        top = result.best_configs(
            n=2, constraint=lambda c: c["size"] <= 16
        )
        assert all(config["size"] <= 16 for config, _ in top)

    def test_best_configs_minimize(self, tiny_space, fast_training, rng):
        result = explore(
            tiny_space, smooth_simulator, batch_size=16, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=3.0, max_simulations=32,
        )
        worst = result.best_configs(n=1, maximize=False)[0][1]
        best = result.best_configs(n=1)[0][1]
        assert worst <= best

    def test_best_configs_validates_n(self, tiny_space, fast_training, rng):
        result = explore(
            tiny_space, smooth_simulator, batch_size=16, k=4,
            training=fast_training, context=RunContext(rng=rng),
            target_error=3.0, max_simulations=32,
        )
        with pytest.raises(ValueError):
            result.best_configs(n=0)

    def test_validation(self, tiny_space, fast_training, rng):
        def run(**kwargs):
            kwargs.setdefault("target_error", 1.0)
            kwargs.setdefault("max_simulations", 100)
            return explore(
                tiny_space, smooth_simulator, training=fast_training,
                context=RunContext(rng=rng), **kwargs,
            )

        with pytest.raises(ValueError):
            run(target_error=0.0)
        with pytest.raises(ValueError):
            run(max_simulations=3)
        with pytest.raises(ValueError):
            run(batch_size=0)


class TestActiveLearning:
    def test_committee_agent_plugs_into_explorer(
        self, tiny_space, fast_training, rng
    ):
        result = explore(
            tiny_space, smooth_simulator, batch_size=10, k=4,
            training=fast_training, context=RunContext(rng=rng),
            agent=CommitteeAgent(pool_size=30), target_error=0.001,
            max_simulations=30,
        )
        assert len(set(result.sampled_indices)) == result.n_simulations

    def test_first_round_falls_back_to_random(self, tiny_space, rng):
        encoder = ParameterEncoder(tiny_space)
        chosen = committee_select(tiny_space, encoder, 5, rng, [], None)
        assert len(set(chosen)) == 5

    def test_later_rounds_use_committee(
        self, tiny_space, fast_training, rng
    ):
        from repro.core import CrossValidationEnsemble

        encoder = ParameterEncoder(tiny_space)
        x = encoder.encode_many([tiny_space.config_at(i) for i in range(40)])
        y = np.array([smooth_simulator(tiny_space.config_at(i)) for i in range(40)])
        ensemble = CrossValidationEnsemble(
            k=4, training=fast_training, context=RunContext(rng=rng)
        )
        ensemble.fit(x, y)
        chosen = committee_select(
            tiny_space, encoder, 6, rng, list(range(40)), ensemble.predictor,
            pool_size=20, exploration_fraction=0.0,
        )
        assert len(set(chosen)) == 6
        assert not set(chosen) & set(range(40))

    def test_validation(self, tiny_space):
        with pytest.raises(ValueError):
            CommitteeAgent(pool_size=0)
        with pytest.raises(ValueError):
            CommitteeAgent(exploration_fraction=2.0)

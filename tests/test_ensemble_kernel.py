"""The fold-stacked training engine's bit-identity contract.

Two layers of guarantees are locked here:

* :class:`EnsembleTrainingKernel` — for any schedule of epochs,
  deactivations, weight restores and reseeds, every member's weight and
  velocity trajectory equals (``==``, not approximately) training that
  member alone through :class:`TrainingKernel` with the same
  presentation orders;
* stacking independence through :class:`CrossValidationEnsemble` —
  for one target or three, each fold fitted alone (a 1-member kernel),
  all folds stacked in-process, and the ``n_jobs=2`` worker pool
  produce the same networks, per-target test errors, telemetry events,
  counters and quarantine accounting.
"""

import numpy as np
import pytest

from repro.core import CrossValidationEnsemble, RunContext
from repro.core.kernels import EnsembleTrainingKernel, TrainingKernel
from repro.core.network import FeedForwardNetwork
from repro.core.training import StackedEnsembleTrainer, TrainingConfig
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry

N_FEATURES = 5
N_SAMPLES = 40


def make_problem(rng, n=250, n_targets=1):
    """A smooth positive target; with ``n_targets=3`` two correlated
    auxiliary columns are appended and the names to declare returned."""
    x = rng.random((n, 3))
    y = 0.5 + 0.8 * x[:, 0] + 0.4 * x[:, 1] * x[:, 2]
    if n_targets == 1:
        return x, y, ()
    aux = np.column_stack([0.1 + 0.5 * x[:, 1], 0.05 + 0.3 * x[:, 0]])
    return x, np.column_stack([y, aux]), ("ipc", "miss_rate", "mispredicts")


def _member(seed, hidden, activation, n_outputs):
    """One member's (network, x, y); same seed -> bit-identical twin."""
    data_rng = np.random.default_rng(1000 + seed)
    x = data_rng.random((N_SAMPLES, N_FEATURES))
    y = data_rng.uniform(0.1, 0.9, (N_SAMPLES, n_outputs))
    network = FeedForwardNetwork(
        n_inputs=N_FEATURES,
        hidden_layers=hidden,
        n_outputs=n_outputs,
        hidden_activation=activation,
        rng=np.random.default_rng(seed),
    )
    return network, x, y


def _orders(seed, epochs):
    rng = np.random.default_rng(2000 + seed)
    return [rng.permutation(N_SAMPLES) for _ in range(epochs)]


class TestEnsembleTrainingKernel:
    @pytest.mark.parametrize(
        "hidden,activation,n_outputs,batch_size",
        [
            ((6,), "sigmoid", 1, 7),
            ((6,), "tanh", 1, 1),
            ((8, 5), "sigmoid", 3, 32),
            ((8, 5), "tanh", 3, 8),
        ],
    )
    def test_trajectories_match_solo_kernel(
        self, hidden, activation, n_outputs, batch_size
    ):
        epochs, members, lr, momentum = 6, 3, 0.05, 0.9
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, hidden, activation, n_outputs) for i in range(members)])
        )
        for epoch in range(epochs):
            stacked.run_epoch(
                np.stack([_orders(i, epochs)[epoch] for i in range(members)]),
                batch_size,
                np.full(members, lr),
                momentum,
            )
        for i in range(members):
            network, x, y = _member(i, hidden, activation, n_outputs)
            solo = TrainingKernel(network, x, y)
            for order in _orders(i, epochs):
                solo.run_epoch(
                    order, batch_size, learning_rate=lr, momentum=momentum
                )
            for got, want in zip(stacked.get_member_weights(i), network.weights):
                np.testing.assert_array_equal(got, want)
            synced = stacked.sync_member(i)
            for got, want in zip(synced._velocity, network._velocity):
                np.testing.assert_array_equal(got, want)

    def test_deactivation_freezes_and_schedule_still_matches(self):
        """Members stopping at different epochs — the early-stop mask —
        leave each survivor's trajectory exactly per-fold."""
        hidden, activation = (6,), "sigmoid"
        stop_at = {0: 2, 1: 4, 2: 6}  # member -> epochs it trains
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, hidden, activation, 1) for i in range(3)])
        )
        for epoch in range(6):
            active = stacked.active_members
            stacked.run_epoch(
                np.stack([_orders(i, 6)[epoch] for i in active]),
                7,
                np.full(len(active), 0.05),
                0.9,
            )
            for i in list(active):
                if epoch + 1 >= stop_at[i]:
                    stacked.deactivate(i)
        assert len(stacked.active_members) == 0
        for i, epochs in stop_at.items():
            network, x, y = _member(i, hidden, activation, 1)
            solo = TrainingKernel(network, x, y)
            for order in _orders(i, 6)[:epochs]:
                solo.run_epoch(order, 7, learning_rate=0.05, momentum=0.9)
            for got, want in zip(stacked.get_member_weights(i), network.weights):
                np.testing.assert_array_equal(got, want)

    def test_reinit_member_matches_fresh_start(self):
        """The divergence-restart path: one member reseeds mid-run
        without perturbing its siblings."""
        hidden, activation = (6,), "sigmoid"
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, hidden, activation, 1) for i in range(3)])
        )
        for epoch in range(3):
            stacked.run_epoch(
                np.stack([_orders(i, 8)[epoch] for i in range(3)]),
                7,
                np.full(3, 0.05),
                0.9,
            )
        replacement = FeedForwardNetwork(
            n_inputs=N_FEATURES,
            hidden_layers=hidden,
            hidden_activation=activation,
            rng=np.random.default_rng(77),
        )
        stacked.reinit_member(1, replacement)
        for epoch in range(3, 8):
            stacked.run_epoch(
                np.stack([_orders(i, 8)[epoch] for i in range(3)]),
                7,
                np.full(3, 0.05),
                0.9,
            )
        # member 1 == fresh seed-77 net trained on epochs 3..7 only
        network = FeedForwardNetwork(
            n_inputs=N_FEATURES,
            hidden_layers=hidden,
            hidden_activation=activation,
            rng=np.random.default_rng(77),
        )
        _, x, y = _member(1, hidden, activation, 1)
        solo = TrainingKernel(network, x, y)
        for order in _orders(1, 8)[3:]:
            solo.run_epoch(order, 7, learning_rate=0.05, momentum=0.9)
        for got, want in zip(stacked.get_member_weights(1), network.weights):
            np.testing.assert_array_equal(got, want)
        # member 0 == uninterrupted 8-epoch solo run
        network0, x0, y0 = _member(0, hidden, activation, 1)
        solo0 = TrainingKernel(network0, x0, y0)
        for order in _orders(0, 8):
            solo0.run_epoch(order, 7, learning_rate=0.05, momentum=0.9)
        for got, want in zip(stacked.get_member_weights(0), network0.weights):
            np.testing.assert_array_equal(got, want)

    def test_predict_member_matches_network(self):
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (6,), "sigmoid", 1) for i in range(2)])
        )
        stacked.run_epoch(
            np.stack([_orders(i, 1)[0] for i in range(2)]),
            7,
            np.full(2, 0.05),
            0.9,
        )
        probe = np.random.default_rng(5).random((9, N_FEATURES))
        for i in range(2):
            network = stacked.sync_member(i)
            np.testing.assert_array_equal(
                stacked.predict_member(i, probe), network.predict(probe)
            )

    def test_members_finite_flags_only_broken_member(self):
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (6,), "sigmoid", 1) for i in range(3)])
        )
        assert stacked.members_finite().all()
        bad = stacked.get_member_weights(1)
        bad[0][2, 1] = np.nan
        stacked.set_member_weights(1, bad)
        np.testing.assert_array_equal(
            stacked.members_finite(), [True, False, True]
        )
        assert stacked.member_weights_finite(0)
        assert not stacked.member_weights_finite(1)

    def test_member_weight_health_matches_network(self):
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (6,), "tanh", 1) for i in range(2)])
        )
        weights = stacked.get_member_weights(0)
        weights[0][1, 2] = 7.5  # saturated but finite
        stacked.set_member_weights(0, weights)
        for i in range(2):
            network = stacked.sync_member(i)
            got = stacked.member_weight_health(i)
            want = network.weight_health()
            assert (got.finite, got.max_abs, got.saturation) == (
                want.finite,
                want.max_abs,
                want.saturation,
            )
        assert stacked.member_weight_health(0).saturation > 0

    def test_layers_are_views_of_flat_buffers(self):
        """Weights and velocity live in one contiguous (members, P)
        buffer each; every per-layer tensor is a view into it."""
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (8, 5), "tanh", 3) for i in range(3)])
        )
        n_params = sum(w[0].size for w in stacked.weights)
        assert stacked.n_params == n_params
        for flat, layers in (
            (stacked._w, stacked.weights),
            (stacked._v, stacked.velocity),
        ):
            assert flat.shape == (3, n_params) and flat.flags.c_contiguous
            assert all(layer.base is not None for layer in layers)
            assert all(np.shares_memory(layer, flat) for layer in layers)
        weights = stacked.get_member_weights(1)
        weights[2][0, 1] = 42.0
        stacked.set_member_weights(1, weights)
        assert np.count_nonzero(stacked._w == 42.0) == 1
        stacked.run_epoch(
            np.stack([_orders(i, 1)[0] for i in range(3)]),
            8,
            np.full(3, 0.05),
            0.9,
        )
        stacked.reset_member_velocity(2)
        assert not stacked._v[2].any() and stacked._v[0].any()

    @pytest.mark.parametrize(
        "edits",
        [
            [],
            [(0, 1, 1, np.nan)],
            [(1, 2, 0, np.inf)],
            [(0, 0, 0, np.nan), (2, 1, 1, 50.0)],
            [(2, 1, 0, -np.inf), (0, 1, 1, np.nan)],
            [(1, 0, 0, 9.0)],
        ],
        ids=["healthy", "nan", "inf", "nan-then-large", "inf-and-nan",
             "saturated"],
    )
    def test_batched_weight_health_mirrors_network(self, edits):
        """Python's ``max`` skips a NaN layer maximum; the batched fold
        must do the same, member by member."""
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (5, 3), "tanh", 2) for i in range(3)])
        )
        weights = stacked.get_member_weights(1)
        for layer, row, col, value in edits:
            weights[layer][row, col] = value
        stacked.set_member_weights(1, weights)
        batched = stacked.members_weight_health([2, 1, 0])
        for member, got in zip([2, 1, 0], batched):
            want = stacked.sync_member(member).weight_health()
            assert got == want
            assert stacked.member_weight_health(member) == want

    def test_predict_members_matches_predict_member(self):
        stacked = EnsembleTrainingKernel(
            *zip(*[_member(i, (8, 5), "sigmoid", 3) for i in range(4)])
        )
        stacked.run_epoch(
            np.stack([_orders(i, 1)[0] for i in range(4)]),
            7,
            np.full(4, 0.05),
            0.9,
        )
        probes = np.random.default_rng(5).random((2, 9, N_FEATURES))
        block = stacked.predict_members([3, 1], probes)
        assert block.shape == (2, 9, 3)
        for got, member, probe in zip(block, [3, 1], probes):
            network = stacked.sync_member(member)
            np.testing.assert_array_equal(got, network.predict(probe))
            np.testing.assert_array_equal(
                got, stacked.predict_member(member, probe)
            )

    def test_ragged_training_sets_rejected(self):
        (net_a, x_a, y_a), (net_b, x_b, y_b) = (
            _member(0, (6,), "sigmoid", 1),
            _member(1, (6,), "sigmoid", 1),
        )
        with pytest.raises(ValueError, match="group ragged folds by size"):
            EnsembleTrainingKernel(
                [net_a, net_b], [x_a, x_b[:-1]], [y_a, y_b[:-1]]
            )

    def test_mismatched_architectures_rejected(self):
        net_a, x, y = _member(0, (6,), "sigmoid", 1)
        net_b, _, _ = _member(1, (8,), "sigmoid", 1)
        with pytest.raises(ValueError, match="share one architecture"):
            EnsembleTrainingKernel([net_a, net_b], [x, x], [y, y])
        net_c, _, _ = _member(2, (6,), "tanh", 1)
        with pytest.raises(ValueError, match="share one activation pair"):
            EnsembleTrainingKernel([net_a, net_c], [x, x], [y, y])


def _ensemble(n_jobs, training, target_names=(), seed=7, k=4, **kwargs):
    metrics = MetricsRegistry(enabled=True)
    context = RunContext(
        rng=np.random.default_rng(seed),
        telemetry=RunTelemetry(metrics=metrics),
        metrics=metrics,
        n_jobs=n_jobs,
    )
    return CrossValidationEnsemble(
        k=k, training=training, context=context, target_names=target_names,
        **kwargs,
    )


def _placements(x, y, names, training, k=4, seed=7):
    """The same fold tasks trained three ways: each fold alone through a
    1-member kernel, all folds stacked in-process, and round-robin
    shares across two pool workers.  Returns ``{placement: results}``."""
    ensemble = _ensemble(1, training, names, seed=seed, k=k)
    y2 = ensemble._target_matrix(y)
    tasks, config = ensemble._fold_tasks(y2)
    trainer = StackedEnsembleTrainer(config)
    alone = [trainer.fit_folds(x, y2, [task], True, True)[0] for task in tasks]
    stacked, _ = ensemble._train_folds(x, y2, tasks, config)
    pooled, _ = _ensemble(2, training, names, seed=seed, k=k)._train_folds(
        x, y2, tasks, config
    )
    return {"alone": alone, "stacked": stacked, "pooled": pooled}


def _assert_same_folds(placements):
    """Every placement's fold results are bit-identical to the first's."""
    (first, want), *rest = placements.items()
    for name, got in rest:
        assert len(got) == len(want), name
        for fold, (a, b) in enumerate(zip(got, want)):
            assert a.diverged == b.diverged, (name, fold)
            assert a.error == b.error, (name, fold)
            assert a.epochs == b.epochs, (name, fold)
            np.testing.assert_array_equal(a.test_errors, b.test_errors)
            assert a.events == b.events, (name, fold)
            assert a.metrics.counters == b.metrics.counters, (name, fold)
            if not a.diverged:
                for wa, wb in zip(a.network.weights, b.network.weights):
                    np.testing.assert_array_equal(wa, wb)


class TestEngineParity:
    """Where a fold trains — alone, stacked with its siblings, or in a
    pool worker — never changes how it trains: every placement is
    bit-identical, for one target and for three."""

    @pytest.mark.parametrize("n_targets", [1, 3])
    def test_fold_placements_bit_identical(self, n_targets, fast_training):
        x, y, names = make_problem(
            np.random.default_rng(5), n=122, n_targets=n_targets
        )
        placements = _placements(x, y, names, fast_training)
        _assert_same_folds(placements)
        errors = placements["stacked"][0].test_errors
        assert errors.shape[1] == n_targets

    # n=122 with k=4 makes ragged folds (sizes 31/31/30/30): stacking
    # must split them into same-length kernel groups
    @pytest.mark.parametrize("n,k", [(120, 4), (122, 4), (123, 10)])
    def test_predictions_and_estimate_bit_identical(
        self, n, k, fast_training
    ):
        x, y, _ = make_problem(np.random.default_rng(5), n=n)
        fits = []
        for n_jobs in (1, 2):
            ensemble = _ensemble(n_jobs, fast_training, k=k)
            fits.append((ensemble.fit(x, y), ensemble.predict(x[:16])))
        (est_s, pred_s), (est_p, pred_p) = fits
        np.testing.assert_array_equal(pred_s, pred_p)
        assert est_s == est_p

    def test_event_streams_identical(self, fast_training):
        for n_targets in (1, 3):
            x, y, names = make_problem(
                np.random.default_rng(5), n=120, n_targets=n_targets
            )
            streams = []
            for n_jobs in (1, 2):
                ensemble = _ensemble(n_jobs, fast_training, names)
                ensemble.fit(x, y)
                streams.append(ensemble.telemetry)
            stacked, pooled = streams
            assert [e.name for e in stacked.events] == [
                e.name for e in pooled.events
            ]
            for name in ("train.check", "train.stop"):
                assert stacked.events_named(name), name
                assert [e.payload for e in stacked.events_named(name)] == [
                    e.payload for e in pooled.events_named(name)
                ]

    def test_counters_identical(self, fast_training):
        for n_targets in (1, 3):
            x, y, names = make_problem(
                np.random.default_rng(5), n=120, n_targets=n_targets
            )
            registries = []
            for n_jobs in (1, 2):
                ensemble = _ensemble(n_jobs, fast_training, names)
                ensemble.fit(x, y)
                registries.append(ensemble.metrics)
            stacked, pooled = registries
            for counter in ("train.epochs", "crossval.epochs", "crossval.fits"):
                assert stacked.counter(counter) == pooled.counter(counter) > 0

    def test_crossval_fit_event_records_workers(self, fast_training):
        """One ``crossval.fit`` payload shape for every fit; ``n_workers``
        says where the folds trained."""
        shapes = set()
        for n_targets in (1, 3):
            x, y, names = make_problem(
                np.random.default_rng(5), n=120, n_targets=n_targets
            )
            for n_jobs in (1, 2):
                ensemble = _ensemble(n_jobs, fast_training, names)
                ensemble.fit(x, y)
                (done,) = ensemble.telemetry.events_named("crossval.fit")
                assert done.payload["n_workers"] == n_jobs
                assert done.payload["n_targets"] == n_targets
                assert set(done.payload["per_target_error"]) == set(names)
                shapes.add(frozenset(done.payload))
        assert len(shapes) == 1
        assert "engine" not in next(iter(shapes))

    def test_per_fold_early_stop_epochs_match(self, fast_training):
        """Folds stop at different epochs (the per-fold active mask), and
        each fold's epoch count is the same however it was placed."""
        x, y, names = make_problem(np.random.default_rng(5), n=120)
        placements = _placements(x, y, names, fast_training)
        epochs = {
            name: [result.epochs for result in results]
            for name, results in placements.items()
        }
        assert epochs["alone"] == epochs["stacked"] == epochs["pooled"]
        assert len(set(epochs["stacked"])) > 1, (
            "degenerate fixture: every fold stopped at the same epoch, "
            "so the per-fold mask is not exercised"
        )

    @pytest.mark.parametrize("study", ["memory-system", "processor"])
    def test_study_design_matrix_parity(self, study, fast_training):
        """Equal-seed fits on real study design matrices are identical
        in-process and in the pool."""
        from repro.core.encoding import design_matrix
        from repro.experiments.studies import get_study

        matrix = design_matrix(get_study(study).space)
        idx = np.random.default_rng(11).choice(
            len(matrix), size=103, replace=False
        )
        x = np.array(matrix[idx])
        y = 0.5 + 1.5 * np.abs(np.sin(x.sum(axis=1))) + 0.1

        def fit(n_jobs):
            ensemble = _ensemble(n_jobs, fast_training, k=5)
            estimate = ensemble.fit(x, y)
            return estimate, ensemble.predict(matrix[:64])

        est_s, pred_s = fit(1)
        est_p, pred_p = fit(2)
        assert est_s == est_p
        np.testing.assert_array_equal(pred_s, pred_p)

    def test_quarantine_parity(self):
        """Near-zero target -> skewed presentation sampling -> some folds
        diverge, restart and get quarantined, identically wherever they
        train."""
        config = TrainingConfig(
            hidden_layers=(8,),
            max_epochs=60,
            patience=6,
            check_interval=10,
            batch_size=32,
            max_restarts=2,
        )
        x, y, _ = make_problem(np.random.default_rng(5), n=120)
        y[0] = 1e-9
        placements = _placements(x, y, (), config, k=10, seed=3)
        _assert_same_folds(placements)
        stacked = placements["stacked"]
        assert any(result.diverged for result in stacked)
        for counter in ("train.diverged", "train.restarts"):
            assert sum(r.metrics.counter(counter) for r in stacked) > 0

        fits = []
        for n_jobs in (1, 2):
            ensemble = _ensemble(
                n_jobs, config, seed=3, k=10, min_folds=2
            )
            with pytest.warns(RuntimeWarning, match="quarantined"):
                estimate = ensemble.fit(x, y)
            fits.append((estimate, ensemble.telemetry, ensemble.metrics))
        (est_s, tel_s, met_s), (est_p, tel_p, met_p) = fits
        assert est_s.n_folds_used < est_s.n_folds
        assert est_s == est_p
        for counter in (
            "train.diverged",
            "train.restarts",
            "crossval.quarantined",
        ):
            assert met_s.counter(counter) == met_p.counter(counter) > 0
        for name in ("train.diverged", "train.restart", "crossval.quarantine"):
            assert [e.payload for e in tel_s.events_named(name)] == [
                e.payload for e in tel_p.events_named(name)
            ]

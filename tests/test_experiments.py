"""Tests for the figure/table harnesses (small-scale runs)."""

import importlib

import pytest

from repro.core.training import TrainingConfig
from repro.experiments import (
    achievable_levels,
    build_table51,
    check_learning_curve_shape,
    check_table51_claims,
    compare_with_noiseless,
    estimation_quality,
    gain_rows,
    is_roughly_linear,
    learning_curves,
    measure_training_times,
    render_estimation_curves,
    render_gain_split,
    render_gains,
    render_learning_curves,
    render_simpoint_curves,
    render_table51,
    render_training_times,
    simpoint_curves,
)
from repro.experiments.runner import CurvePoint, LearningCurve

FAST = TrainingConfig(
    hidden_layers=(8,), max_epochs=150, patience=5, check_interval=10
)


def synthetic_curve(errors, sizes=None, source="true"):
    sizes = sizes or [50 * (i + 1) for i in range(len(errors))]
    return LearningCurve(
        study="processor",
        benchmark="mesa",
        source=source,
        seed=0,
        points=[
            CurvePoint(
                n_samples=n,
                fraction=n / 20736,
                true_mean=e,
                true_std=e * 1.2,
                estimated_mean=e * 1.05,
                estimated_std=e * 1.25,
                training_seconds=0.5,
            )
            for n, e in zip(sizes, errors)
        ],
    )


class TestShapeChecks:
    def test_decreasing_curve_passes(self):
        curve = synthetic_curve([10.0, 5.0, 2.0])
        checks = check_learning_curve_shape(curve)
        assert all(checks.values())

    def test_flat_curve_fails(self):
        curve = synthetic_curve([5.0, 5.1, 5.0])
        checks = check_learning_curve_shape(curve)
        assert not checks["large_improvement"]

    def test_estimation_quality_fields(self):
        quality = estimation_quality(synthetic_curve([10.0, 5.0, 2.0]))
        assert set(quality) == {
            "gap_above_1pct",
            "gap_below_1pct",
            "conservative_fraction",
        }
        assert quality["conservative_fraction"] == 1.0


class TestGainArithmetic:
    def test_achievable_levels_clamped(self):
        curve = synthetic_curve([10.0, 5.0, 2.0])
        levels = achievable_levels(curve, (1.0, 3.0, 6.0))
        assert min(levels) >= 2.0
        assert levels == sorted(levels, reverse=True)

    def test_render_helpers_accept_synthetic_data(self):
        from repro.experiments.gains import GainRow

        rows = {
            "mesa": [
                GainRow(
                    benchmark="mesa",
                    error_level=2.0,
                    n_experiments=100,
                    ann_factor=207.36,
                    simpoint_factor=25.0,
                    combined_factor=5184.0,
                )
            ]
        }
        assert "5,184x" in render_gains(rows)
        split = render_gain_split(rows)
        assert "25x" in split and "207x" in split


class TestRenderers:
    def test_learning_curve_rendering(self):
        curves = {("processor", "mesa"): synthetic_curve([8.0, 3.0])}
        out = render_learning_curves(curves)
        assert "MESA" in out and "mean%err" in out

    def test_estimation_rendering(self):
        curves = {("processor", "mesa"): synthetic_curve([8.0, 3.0])}
        out = render_estimation_curves(curves)
        assert "est_mean" in out and "Figure 5.3" in out

    def test_simpoint_rendering(self):
        curves = {
            ("processor", "mesa"): synthetic_curve([8.0, 3.0], source="simpoint")
        }
        out = render_simpoint_curves(curves)
        assert "ANN+SimPoint" in out and "Figure 5.4" in out

    def test_compare_with_noiseless(self):
        noisy = synthetic_curve([8.0, 4.0], source="simpoint")
        clean = synthetic_curve([7.0, 3.0])
        gaps = compare_with_noiseless(noisy, clean)
        assert gaps[50] == pytest.approx(1.0)
        assert gaps[100] == pytest.approx(1.0)


class TestHarnessDefaults:
    """The Chapter 5 curve harnesses are defined over the scalar-IPC
    studies; by default they must never reach a multi-target study,
    whose full-space ground truth does not exist."""

    @pytest.mark.parametrize("harness", ["learning", "estimation"])
    def test_default_studies_are_scalar(self, monkeypatch, harness):
        from repro.experiments import SCALAR_STUDY_NAMES, estimation_curves
        from repro.experiments.studies import get_study

        seen = []

        def fake_run(study, benchmark, **kwargs):
            seen.append(study)
            return synthetic_curve([8.0, 3.0])

        # the package re-exports the function under the module's name
        monkeypatch.setattr(
            importlib.import_module("repro.experiments.learning_curves"),
            "run_learning_curve",
            fake_run,
        )
        run = learning_curves if harness == "learning" else estimation_curves
        curves = run(benchmarks=("mcf",))
        assert tuple(dict.fromkeys(seen)) == SCALAR_STUDY_NAMES
        assert not any(get_study(study).is_multi_target for study in seen)
        assert set(curves) == {(study, "mcf") for study in SCALAR_STUDY_NAMES}


@pytest.mark.slow
class TestEndToEndSmall:
    """Small but real runs of each harness (sizes far below the paper's)."""

    def test_learning_curves_real(self):
        curves = learning_curves(
            benchmarks=("gzip",),
            studies=("memory-system",),
            sizes=(50, 150),
            seed=21,
            training=FAST,
        )
        curve = curves[("memory-system", "gzip")]
        assert len(curve.points) == 2
        assert curve.points[1].true_mean < curve.points[0].true_mean * 2

    def test_simpoint_curves_real(self):
        curves = simpoint_curves(
            benchmarks=("mesa",), sizes=(50,), seed=22, training=FAST
        )
        assert curves[("processor", "mesa")].source == "simpoint"

    def test_table51_small(self):
        table = build_table51(
            "memory-system", benchmarks=("gzip",), seed=23, training=FAST
        )
        assert "gzip" in table.rows
        rendered = render_table51(table)
        assert "gzip" in rendered and "%" in rendered
        checks = check_table51_claims(table)
        assert checks["estimates_track_truth"]

    def test_gain_rows_real(self):
        rows = gain_rows("mesa", sizes=(50, 200), seed=24, training=FAST)
        assert rows
        for row in rows:
            assert row.combined_factor == pytest.approx(
                row.ann_factor * row.simpoint_factor
            )
            assert row.combined_factor > 10

    def test_training_times_real(self):
        points = measure_training_times(
            study_names=("memory-system",),
            fractions=(0.3, 0.6),
            benchmark="gzip",
            repeats=1,
            training=FAST,
        )
        assert len(points) == 2
        assert all(p.seconds > 0 for p in points)
        out = render_training_times(points)
        assert "Figure 5.8" in out

    def test_training_time_linearity_check(self):
        from repro.experiments.training_time import TrainingTimePoint

        linear = [
            TrainingTimePoint("s", p, 100 * p, 2.0 * p) for p in (1, 2, 3, 4)
        ]
        assert is_roughly_linear(linear)
        import math

        exponential = [
            TrainingTimePoint("s", p, 100 * p, math.exp(p))
            for p in (1, 2, 3, 4, 5)
        ]
        assert not is_roughly_linear(exponential)

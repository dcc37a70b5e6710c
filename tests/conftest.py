"""Shared fixtures: small traces, fast training settings, tiny spaces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.training import TrainingConfig
from repro.cpu.config import MachineConfig
from repro.designspace import (
    BooleanParameter,
    CardinalParameter,
    DesignSpace,
    NominalParameter,
)
from repro.workloads import generate_trace

#: short trace length used throughout the tests (fast to generate/profile)
SHORT_TRACE = 8_000


@pytest.fixture(scope="session", autouse=True)
def isolated_cache_dir(tmp_path_factory):
    """Point ``REPRO_CACHE_DIR`` at a fresh per-session directory, so no
    test reads what an earlier run left in the user's real cache (or
    writes into it).  Subprocesses inherit it; tests that set the
    variable themselves (``monkeypatch.setenv``) still win."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
        )
        yield


@pytest.fixture(scope="session")
def gzip_trace():
    return generate_trace("gzip", SHORT_TRACE)


@pytest.fixture(scope="session")
def mcf_trace():
    return generate_trace("mcf", SHORT_TRACE)


@pytest.fixture(scope="session")
def mgrid_trace():
    return generate_trace("mgrid", SHORT_TRACE)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def default_config():
    return MachineConfig()


@pytest.fixture
def fast_training():
    """Cheap ANN settings for unit tests."""
    return TrainingConfig(
        hidden_layers=(8,),
        max_epochs=200,
        patience=6,
        check_interval=10,
        batch_size=32,
    )


@pytest.fixture
def tiny_space():
    """A small mixed-type design space for encoder/explorer tests."""
    return DesignSpace(
        name="tiny",
        parameters=[
            CardinalParameter("size", (8, 16, 32, 64)),
            CardinalParameter("ways", (1, 2, 4)),
            NominalParameter("policy", ("WT", "WB")),
            BooleanParameter("prefetch"),
        ],
    )

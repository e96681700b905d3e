"""Tests for the config-object deployment API (PR 9 redesign).

Covers construction-time validation of the frozen config dataclasses,
the ``stream_deployment`` call signature (config objects only), and the
top-level ``repro.serve`` / ``repro.deploy`` facade.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.core import (
    CheckpointConfig,
    ConfigurationError,
    LoopConfig,
    ModelInterface,
    ProcessPoolConfig,
    PruningConfig,
    ServingConfig,
)
from repro.experiments import stream_deployment
from repro.ml import MLPClassifier

from ..conftest import make_blobs


class _BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _trained_interface(seed=0, **kwargs):
    interface = _BlobInterface(
        MLPClassifier(epochs=10, seed=seed),
        max_calibration=80,
        seed=seed,
        **kwargs,
    )
    X, y = make_blobs(250, seed=seed)
    interface.train(X, y)
    return interface


def _stream(n=200, seed=1):
    X_a, y_a = make_blobs(n // 2, seed=seed)
    X_b, y_b = make_blobs(n // 2, shift=3.0, seed=seed + 1)
    return np.concatenate([X_a, X_b]), np.concatenate([y_a, y_b])


class TestValidation:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: LoopConfig(batch_size=0),
            lambda: LoopConfig(budget_fraction=1.5),
            lambda: LoopConfig(epochs=0),
            lambda: ServingConfig(workers=0),
            lambda: ServingConfig(queue_capacity=0),
            lambda: ServingConfig(backpressure="bogus"),
            lambda: CheckpointConfig(keep=0),
            lambda: CheckpointConfig(every=0),
            lambda: PruningConfig(spill=-0.1),
            lambda: PruningConfig(chunk_size=0),
            lambda: ProcessPoolConfig(workers=0),
            lambda: ProcessPoolConfig(table_capacity=16),
        ],
    )
    def test_bad_values_fail_at_construction(self, factory):
        with pytest.raises(ConfigurationError):
            factory()

    def test_configuration_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            LoopConfig(batch_size=0)

    def test_configs_are_frozen_but_replaceable(self):
        config = ServingConfig(workers=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.workers = 4
        clone = dataclasses.replace(config, queue_capacity=8)
        assert clone.workers == 2 and clone.queue_capacity == 8
        # replace() re-runs validation
        with pytest.raises(ConfigurationError):
            dataclasses.replace(config, workers=0)


class TestLegacyShim:
    """The flat-keyword shim is gone; the call takes config objects only."""

    def test_unknown_keyword_rejected(self):
        interface = _trained_interface()
        with pytest.raises(TypeError, match="unexpected keyword"):
            stream_deployment(interface, *_stream(), window_size=7)

    def test_pool_requires_async(self):
        interface = _trained_interface()
        with pytest.raises(ConfigurationError, match="asynchronous"):
            stream_deployment(
                interface,
                *_stream(),
                serving=ServingConfig(
                    asynchronous=False, pool=ProcessPoolConfig()
                ),
            )


class TestFacade:
    def test_deploy_runs_the_config_spelling(self):
        X, y = _stream()
        result = repro.deploy(
            _trained_interface(),
            X,
            y,
            loop=LoopConfig(batch_size=50, budget_fraction=0.2, epochs=4),
        )
        assert result.n_samples == len(X)
        assert len(result.steps) == 4

    def test_serve_returns_an_async_loop(self):
        loop = repro.serve(_trained_interface())
        try:
            X_test, _ = make_blobs(30, seed=7)
            predictions, decisions = loop.predict(X_test)
            assert len(predictions) == 30 and len(decisions) == 30
        finally:
            loop.close()

    def test_serve_with_nothing_to_build_raises(self):
        with pytest.raises(ConfigurationError):
            repro.serve(
                _trained_interface(),
                serving=ServingConfig(asynchronous=False),
            )

"""repro — reproduction of Prom (CGO 2025).

Deployment-time drift detection for ML models in code analysis and
optimization, built on conformal prediction with adaptive calibration
weighting and an ensemble of nonconformity functions.

Public entry points::

    from repro import PromClassifier, PromRegressor, ModelInterface
    from repro import serve, deploy                    # serving facade
    from repro import ServingConfig, ProcessPoolConfig  # config objects
    from repro import ml, tasks, baselines
"""

from .core import (
    APS,
    LAC,
    RAPS,
    AbsoluteErrorScore,
    CheckpointConfig,
    ConfigurationError,
    LoopConfig,
    ModelInterface,
    NonconformityFunction,
    NormalizedErrorScore,
    ProcessPoolConfig,
    ProcessServingPool,
    PromClassifier,
    PromRegressor,
    PruningConfig,
    ServingConfig,
    TopK,
    TriggerConfig,
)
from .core.serving import AsyncServingLoop

__version__ = "1.0.0"


def serve(interface, *, serving: ServingConfig | None = None):
    """A ready serving plane over a trained interface.

    The facade counterpart of :func:`deploy` for callers that drive
    their own request loop.  What comes back follows the
    :class:`~repro.core.config.ServingConfig`:

    * ``asynchronous=True`` (the default) — an
      :class:`~repro.core.serving.AsyncServingLoop` serving lock-free
      snapshot decisions with queued maintenance.  With
      ``serving.pool`` set, a
      :class:`~repro.core.multiproc.ProcessServingPool` is created
      first and rides on ``loop.process_pool`` — the loop republishes
      its shared-memory tables on every snapshot publish, and the
      caller closes the pool after the loop
      (``loop.close(); loop.process_pool.close()``).
    * ``asynchronous=False`` with ``serving.pool`` set — the bare
      :class:`~repro.core.multiproc.ProcessServingPool`, serving
      ``predict``/``evaluate`` from evaluator processes attached to
      the interface's exported calibration state (republish with
      ``pool.publish()`` after mutating the interface).

    ``asynchronous=False`` without a pool raises
    :class:`~repro.core.exceptions.ConfigurationError` — there is
    nothing to construct; call ``interface.predict`` directly.
    """
    config = serving if serving is not None else ServingConfig()
    pool = None
    if config.pool is not None:
        pool = ProcessServingPool(
            interface,
            n_workers=config.pool.workers,
            start_method=config.pool.start_method,
            table_capacity=config.pool.table_capacity,
        )
    if config.asynchronous:
        return AsyncServingLoop(
            interface,
            n_workers=config.workers,
            queue_capacity=config.queue_capacity,
            backpressure=config.backpressure,
            process_pool=pool,
        )
    if pool is not None:
        return pool
    raise ConfigurationError(
        "ServingConfig(asynchronous=False, pool=None) leaves nothing to "
        "serve with; call interface.predict directly"
    )


def deploy(
    interface,
    X_stream,
    oracle_labels,
    *,
    loop: LoopConfig | None = None,
    serving: ServingConfig | None = None,
    checkpointing: CheckpointConfig | None = None,
    pruning: PruningConfig | None = None,
):
    """Run the end-to-end deployment stream.

    The top-level facade over
    :func:`repro.experiments.stream_deployment`: detect drift per
    micro-batch, relabel within budget, fold the answers back into the
    calibration state, and return the
    :class:`~repro.experiments.runner.StreamResult`.  Configuration
    arrives as the four :mod:`repro.core.config` objects.
    """
    from .experiments import stream_deployment

    return stream_deployment(
        interface,
        X_stream,
        oracle_labels,
        loop=loop,
        serving=serving,
        checkpointing=checkpointing,
        pruning=pruning,
    )


__all__ = [
    "APS",
    "AbsoluteErrorScore",
    "CheckpointConfig",
    "ConfigurationError",
    "LAC",
    "LoopConfig",
    "ModelInterface",
    "NonconformityFunction",
    "NormalizedErrorScore",
    "ProcessPoolConfig",
    "ProcessServingPool",
    "PromClassifier",
    "PromRegressor",
    "PruningConfig",
    "RAPS",
    "ServingConfig",
    "TopK",
    "TriggerConfig",
    "__version__",
    "deploy",
    "serve",
]

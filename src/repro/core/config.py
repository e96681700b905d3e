"""Deployment configuration objects (the PR 9 API redesign).

``stream_deployment`` takes its knobs as these frozen dataclasses,
grouped by the plane that consumes them:

* :class:`LoopConfig` — the deployment loop itself (batching, relabel
  budget, drift triggers, model-update policy);
* :class:`ServingConfig` — the serving plane (sync vs async, worker
  threads, queue bound, backpressure, drain/record modes), plus an
  optional :class:`ProcessPoolConfig` for the shared-memory process
  tier (DESIGN.md §10);
* :class:`CheckpointConfig` — the durability plane (directory,
  retention, cadence, warm restart, retry policy);
* :class:`PruningConfig` — the evaluate kernels (router-aware shard
  pruning, spill, chunk width);
* :class:`TriggerConfig` — the drift trigger (window, threshold,
  warmup; DESIGN.md §11).

All are frozen and validated at construction
(:class:`~repro.core.exceptions.ConfigurationError`, which IS-A
``ValueError``), so a bad value fails where it was written, not deep
inside a deployment run.  They are the only spelling: the call takes
no flat keywords, so an unknown one is Python's own ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import ConfigurationError

#: serving-queue policies accepted by ServingConfig.backpressure
BACKPRESSURE_CHOICES = ("coalesce", "drop", "block")


@dataclass(frozen=True)
class LoopConfig:
    """The deployment loop: batching, budget and update policy.

    Args:
        batch_size: micro-batch width (the serving quantum).
        budget_fraction: share of flagged samples the oracle relabels.
        triggers: a :class:`TriggerConfig` describing the drift-trigger
            stack to assemble per run; ``None`` uses the default stack
            (decision-identical to the historical rolling-window
            monitor: window 100, threshold 0.3).
        update_on_alert: retrain the model only on trigger alerts
            (default) instead of on every relabelled batch.
        epochs: partial-fit epochs per model update.
    """

    batch_size: int = 64
    budget_fraction: float = 0.05
    triggers: object = None
    update_on_alert: bool = True
    epochs: int = 20

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if not 0.0 <= self.budget_fraction <= 1.0:
            raise ConfigurationError(
                f"budget_fraction must be in [0, 1], got {self.budget_fraction}"
            )
        if self.epochs < 1:
            raise ConfigurationError(
                f"epochs must be >= 1, got {self.epochs}"
            )


@dataclass(frozen=True)
class ProcessPoolConfig:
    """The multi-process serving tier (DESIGN.md §10).

    Args:
        workers: evaluator processes attaching the shared-memory arena.
        start_method: ``multiprocessing`` start method; ``None`` lets
            the pool prefer ``"fork"`` where available.
        table_capacity: byte size of the shared name-table block (an
            upper bound on the pickled manifest, not on calibration
            data).
    """

    workers: int = 2
    start_method: str | None = None
    table_capacity: int = 1 << 20

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.table_capacity < 4096:
            raise ConfigurationError(
                f"table_capacity must be >= 4096 bytes, got {self.table_capacity}"
            )


@dataclass(frozen=True)
class ServingConfig:
    """The serving plane: sync vs async loop, queue and process tier.

    Args:
        asynchronous: serve through an
            :class:`~repro.core.serving.AsyncServingLoop` (lock-free
            snapshot decisions, queued maintenance).  ``False`` keeps
            the synchronous inline loop — useful when only
            ``record_decisions`` is wanted.
        workers: background maintenance worker threads (async mode).
        queue_capacity: bound on pending maintenance jobs (async mode).
        backpressure: full-queue policy — ``"coalesce"``, ``"drop"``
            or ``"block"``.
        drain_each_step: apply and publish every queued job before the
            next batch — the sync-equivalence mode (async only).
        record_decisions: keep each batch's
            :class:`~repro.core.committee.DecisionBatch` on its stream
            step (memory-heavy; meant for tests).
        pool: optional :class:`ProcessPoolConfig`; when set, decisions
            are served by evaluator *processes* over shared-memory
            segments instead of in-process snapshot reads.
    """

    asynchronous: bool = True
    workers: int = 1
    queue_capacity: int = 32
    backpressure: str = "coalesce"
    drain_each_step: bool = False
    record_decisions: bool = False
    pool: ProcessPoolConfig | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.backpressure not in BACKPRESSURE_CHOICES:
            raise ConfigurationError(
                f"backpressure must be one of {BACKPRESSURE_CHOICES}, "
                f"got {self.backpressure!r}"
            )


@dataclass(frozen=True)
class CheckpointConfig:
    """The durability plane: incremental checkpoints + warm restart.

    Args:
        directory: checkpoint directory (``None`` disables the plane).
        keep: committed generations to retain.
        every: mutations/publishes between automatic checkpoints.
        restore: warm-restart from the newest restorable generation in
            ``directory`` before serving.
        retry: optional :class:`~repro.core.serving.RetryPolicy` for
            maintenance jobs (async mode) — transient failures back
            off and retry instead of dead-ending on first error.
    """

    directory: object = None
    keep: int = 3
    every: int = 1
    restore: bool = False
    retry: object = None

    def __post_init__(self):
        if self.keep < 1:
            raise ConfigurationError(f"keep must be >= 1, got {self.keep}")
        if self.every < 1:
            raise ConfigurationError(f"every must be >= 1, got {self.every}")


@dataclass(frozen=True)
class PruningConfig:
    """The evaluate kernels: shard pruning and chunking (DESIGN.md §9).

    Args:
        enabled: install a
            :class:`~repro.core.pruning.CandidatePruner` so
            segment-direct evaluation scores each sample only against
            its candidate shards.
        spill: fraction of the non-primary active shards each sample
            additionally scores, in ``[0, 1]`` (1.0 keeps decisions
            bit-identical to the unpruned path).  It is also the spill
            the cost-aware relabel budget prices coverage loss at; a
            run with pruning disabled budgets at 1.0 (exact mode).
        chunk_size: evaluate-kernel test-row chunk width (``None``
            keeps the adaptive cell-budget default).
    """

    enabled: bool = True
    spill: float = 1.0
    chunk_size: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.spill <= 1.0:
            raise ConfigurationError(
                f"spill must be in [0, 1], got {self.spill}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1 or None, got {self.chunk_size}"
            )


@dataclass(frozen=True)
class TriggerConfig:
    """The drift trigger (DESIGN.md §11).

    Describes the :class:`~repro.core.triggers.TriggerStack`
    :func:`~repro.core.triggers.build_trigger_stack` assembles per
    deployment run.  The all-defaults config is property-tested
    decision-identical to the historical rolling-window monitor
    (``tests/core/test_triggers.py``).

    Args:
        window: span of the flag window, in samples.
        threshold: windowed rejection rate that fires, in (0, 1].
        warmup: minimum window fill before the trigger may fire;
            ``None`` uses the historical ``min(10, window)``.
    """

    window: int = 100
    threshold: float = 0.3
    warmup: int | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {self.window}"
            )
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must be in (0, 1], got {self.threshold}"
            )
        if self.warmup is not None and self.warmup < 0:
            raise ConfigurationError(
                f"warmup must be >= 0 or None, got {self.warmup}"
            )

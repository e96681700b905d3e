"""Experiment harness: end-to-end runs behind every table and figure.

Each function reproduces one experimental protocol from the paper:

* :func:`run_classification` — train on the drift split, calibrate
  Prom, deploy on the held-out side; also measures the design-time
  (random-split) reference.  Feeds Figures 7 and 8 and Table 2.
* :func:`run_incremental` — adds the relabel-and-retrain round on the
  flagged samples.  Feeds Figure 9 and Table 2/3.
* :func:`run_regression` — the C5 protocol: TLP trained on BERT-base,
  deployed on the other variants.  Feeds Table 3 and Figure 8(e).
* :func:`run_baseline_comparison` — RISE/TESSERACT/naive-CP vs Prom.
  Feeds Figure 10.
* :func:`run_nonconformity_ablation` — each nonconformity function
  alone vs the committee.  Feeds Figure 11.
* :func:`stream_deployment` — the end-to-end serving loop (paper
  Secs. 5.3-5.4): micro-batch evaluation, drift monitoring, relabel
  budgeting, and incremental calibration/model updates over a long
  sample stream against a bounded calibration store.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines import BASELINE_FACTORIES
from ..core import (
    DetectionMetrics,
    PromClassifier,
    PromRegressor,
    detection_metrics,
    drifting_indices,
    select_relabel_budget,
    split_calibration,
)
from ..core.config import (
    CheckpointConfig,
    LoopConfig,
    PruningConfig,
    ServingConfig,
    TriggerConfig,
)
from ..core.durability import CheckpointWriter, restore_checkpoint
from ..core.exceptions import CheckpointError, ConfigurationError, ValidationError
from ..core.multiproc import ProcessServingPool
from ..core.nonconformity import default_classification_functions
from ..core.pruning import CandidatePruner
from ..core.serving import AsyncServingLoop, JobError
from ..core.triggers import build_trigger_stack, observe_decisions
from ..models import tlp as tlp_factory
from ..tasks import DnnCodeGenerationTask
from ..tasks.base import CaseStudy, Split


@dataclass
class ClassificationResult:
    """One (task, model) run: design reference + drifted deployment."""

    task: str
    model: str
    design_ratios: np.ndarray
    deploy_ratios: np.ndarray
    design_accuracy: float
    deploy_accuracy: float
    detection: DetectionMetrics
    #: DecisionBatch (sequence of Decision) from the drift deployment
    decisions: object = field(repr=False, default_factory=list)
    mispredicted: np.ndarray = field(repr=False, default=None)
    test_indices: np.ndarray = field(repr=False, default=None)
    predicted_labels: np.ndarray = field(repr=False, default=None)
    predicted_columns: np.ndarray = field(repr=False, default=None)
    train_seconds: float = 0.0
    # fitted artefacts for follow-up experiments (incremental learning)
    fitted_model: object = field(repr=False, default=None)
    prom: PromClassifier = field(repr=False, default=None)
    calibration_indices: np.ndarray = field(repr=False, default=None)
    calibration_columns: np.ndarray = field(repr=False, default=None)


def _fit_and_detect(
    task: CaseStudy,
    model_factory,
    split: Split,
    prom_kwargs: dict,
    calibration_ratio: float,
    max_calibration: int,
    misprediction_threshold: float,
    seed: int,
):
    """Train a model on a split, calibrate Prom, assess the test side."""
    train_idx, cal_idx = split_calibration(
        split.train, calibration_ratio, max_calibration, seed
    )
    model = model_factory(seed=seed)
    started = time.perf_counter()
    model.fit(task.subset(train_idx), task.labels[train_idx])
    train_seconds = time.perf_counter() - started

    # The model only knows the classes present in its training subset;
    # its probability columns index into model.classes_ (global label
    # indices).  Calibration samples whose true label the model has
    # never seen carry no conformity information and are dropped.
    model_classes = np.asarray(model.classes_)
    column_of = {int(c): i for i, c in enumerate(model_classes)}
    cal_keep = np.asarray(
        [i for i in cal_idx if int(task.labels[i]) in column_of]
    )
    if len(cal_keep) == 0:
        raise ValueError("calibration set shares no classes with the model")
    cal_columns = np.asarray([column_of[int(task.labels[i])] for i in cal_keep])

    prom = PromClassifier(**prom_kwargs)
    cal_samples = task.subset(cal_keep)
    prom.calibrate(
        model.features(cal_samples),
        model.predict_proba(cal_samples),
        cal_columns,
    )

    test_samples = task.subset(split.test)
    probabilities = model.predict_proba(test_samples)
    predicted_columns = np.argmax(probabilities, axis=1)
    predicted = model_classes[predicted_columns]
    decisions = prom.evaluate(
        model.features(test_samples), probabilities, predicted_columns
    )

    ratios = task.performance_ratios(split.test, predicted)
    accuracy = float(np.mean(predicted == task.labels[split.test]))
    mispredicted = task.misprediction_mask(
        split.test, predicted, threshold=misprediction_threshold
    )
    return {
        "model": model,
        "prom": prom,
        "decisions": decisions,
        "ratios": ratios,
        "accuracy": accuracy,
        "mispredicted": mispredicted,
        "predicted": predicted,
        "predicted_columns": predicted_columns,
        "train_seconds": train_seconds,
        "calibration_indices": cal_keep,
        "calibration_columns": cal_columns,
    }


def run_classification(
    task: CaseStudy,
    model_factory,
    model_name: str | None = None,
    epsilon: float = 0.1,
    calibration_ratio: float = 0.2,
    max_calibration: int = 1000,
    misprediction_threshold: float = 0.2,
    prom_kwargs: dict | None = None,
    drift_kwargs: dict | None = None,
    seed: int = 0,
) -> ClassificationResult:
    """Full design-vs-deployment protocol for one (task, model) pair."""
    prom_kwargs = dict(prom_kwargs or {})
    prom_kwargs.setdefault("epsilon", epsilon)

    # Design-time reference: random split, no drift.
    design = task.design_split(seed=seed)
    design_run = _fit_and_detect(
        task, model_factory, design, prom_kwargs,
        calibration_ratio, max_calibration, misprediction_threshold, seed,
    )

    # Deployment: drift split.
    drift = task.drift_split(**(drift_kwargs or {}))
    drift_run = _fit_and_detect(
        task, model_factory, drift, prom_kwargs,
        calibration_ratio, max_calibration, misprediction_threshold, seed,
    )

    rejected = np.asarray(drift_run["decisions"].drifting)
    if drift_run["mispredicted"].any() or rejected.any():
        detection = detection_metrics(drift_run["mispredicted"], rejected)
    else:
        detection = detection_metrics(
            np.asarray([False]), np.asarray([False])
        )
    return ClassificationResult(
        task=task.name,
        model=model_name or getattr(design_run["model"], "name", "model"),
        design_ratios=design_run["ratios"],
        deploy_ratios=drift_run["ratios"],
        design_accuracy=design_run["accuracy"],
        deploy_accuracy=drift_run["accuracy"],
        detection=detection,
        decisions=drift_run["decisions"],
        mispredicted=drift_run["mispredicted"],
        test_indices=drift.test,
        predicted_labels=drift_run["predicted"],
        predicted_columns=drift_run["predicted_columns"],
        train_seconds=design_run["train_seconds"] + drift_run["train_seconds"],
        fitted_model=drift_run["model"],
        prom=drift_run["prom"],
        calibration_indices=drift_run["calibration_indices"],
        calibration_columns=drift_run["calibration_columns"],
    )


@dataclass
class IncrementalResult:
    """Before/after comparison of one incremental-learning round."""

    task: str
    model: str
    native_ratios: np.ndarray
    improved_ratios: np.ndarray
    native_accuracy: float
    improved_accuracy: float
    n_flagged: int
    n_relabelled: int
    update_seconds: float


def run_incremental(
    task: CaseStudy,
    model_factory,
    model_name: str | None = None,
    budget_fraction: float = 0.05,
    epochs: int = 25,
    base_result: ClassificationResult | None = None,
    seed: int = 0,
    **classification_kwargs,
) -> IncrementalResult:
    """Relabel flagged samples, update the model, re-measure deployment.

    Pass a precomputed ``base_result`` to reuse the trained model and
    decisions from :func:`run_classification` (the benches do this to
    avoid retraining).
    """
    if base_result is None:
        base_result = run_classification(
            task, model_factory, model_name=model_name, seed=seed,
            **classification_kwargs,
        )
    # Work on a copy so the caller's cached result stays pristine (its
    # fitted model may be reused by other experiments).
    model = copy.deepcopy(base_result.fitted_model)
    decisions = base_result.decisions
    test_indices = base_result.test_indices

    chosen_positions = select_relabel_budget(decisions, budget_fraction)
    started = time.perf_counter()
    if len(chosen_positions) > 0:
        chosen_global = test_indices[chosen_positions]
        # Models updated via partial_fit keep their class head; relabelled
        # samples with classes the model never observed cannot be folded
        # in without resizing the head, so they are skipped.
        known = set(int(c) for c in np.asarray(model.classes_))
        chosen_global = np.asarray(
            [i for i in chosen_global if int(task.labels[i]) in known]
        )
        if len(chosen_global) > 0:
            model.partial_fit(
                task.subset(chosen_global), task.labels[chosen_global], epochs=epochs
            )
    update_seconds = time.perf_counter() - started

    test_samples = task.subset(test_indices)
    probabilities = model.predict_proba(test_samples)
    predicted = np.argmax(probabilities, axis=1)
    improved_ratios = task.performance_ratios(test_indices, predicted)
    improved_accuracy = float(np.mean(predicted == task.labels[test_indices]))

    return IncrementalResult(
        task=task.name,
        model=base_result.model,
        native_ratios=base_result.deploy_ratios,
        improved_ratios=improved_ratios,
        native_accuracy=base_result.deploy_accuracy,
        improved_accuracy=improved_accuracy,
        n_flagged=len(drifting_indices(decisions)),
        n_relabelled=len(chosen_positions),
        update_seconds=update_seconds,
    )


@dataclass
class RegressionResult:
    """C5 outcome for one deployment network."""

    network: str
    native_ratio: float
    prom_ratio: float
    detection: DetectionMetrics
    #: DecisionBatch (sequence of Decision) from the deployment stream
    decisions: object = field(repr=False, default_factory=list)


def run_regression(
    dnn_task: DnnCodeGenerationTask | None = None,
    networks=("bert-tiny", "bert-medium", "bert-large"),
    epsilon: float = 0.1,
    n_clusters: int | None = 6,
    budget_fraction: float = 0.05,
    relabel_epochs: int = 8,
    misprediction_threshold: float = 0.2,
    seed: int = 0,
) -> dict:
    """The full C5 protocol (Table 3): native and Prom-assisted rows.

    Returns a dict with ``base_ratio`` (design-time BERT-base search
    quality) and one :class:`RegressionResult` per deployment network.
    """
    task = dnn_task or DnnCodeGenerationTask(schedules_per_network=300, seed=seed)
    base = task.dataset("bert-base")
    train_idx, test_idx = task.design_data(seed=seed)
    scale = float(base["throughputs"][train_idx].mean())

    model = tlp_factory(seed=seed)
    model.fit(base["tokens"][train_idx], base["throughputs"][train_idx] / scale)

    # Calibration: a slice of the base training pool.
    rng = np.random.default_rng(seed)
    cal_idx = rng.choice(train_idx, size=min(150, len(train_idx) // 2), replace=False)
    prom = PromRegressor(epsilon=epsilon, n_clusters=n_clusters, seed=seed)

    def calibrate():
        predictions = model.predict(base["tokens"][cal_idx]) * scale
        prom.calibrate(
            model.hidden_embedding(base["tokens"][cal_idx]),
            predictions,
            base["throughputs"][cal_idx],
        )

    calibrate()

    base_pred = model.predict(base["tokens"][test_idx]) * scale
    base_ratio = float(
        task.search_performance(base_pred, base["throughputs"][test_idx], seed=seed).mean()
    )

    results = {}
    for network in networks:
        data = task.dataset(network)
        predictions = model.predict(data["tokens"]) * scale
        native_ratio = float(
            task.search_performance(predictions, data["throughputs"], seed=seed).mean()
        )
        decisions = prom.evaluate(model.hidden_embedding(data["tokens"]), predictions)
        relative_error = np.abs(predictions - data["throughputs"]) / np.maximum(
            np.abs(data["throughputs"]), 1e-12
        )
        mispredicted = relative_error >= misprediction_threshold
        rejected = np.asarray(decisions.drifting)
        detection = detection_metrics(mispredicted, rejected)

        # Prom-assisted deployment: profile a small budget of flagged
        # schedules and fine-tune the cost model online.
        chosen = select_relabel_budget(decisions, budget_fraction)
        if len(chosen) > 0:
            model.partial_fit(
                data["tokens"][chosen],
                data["throughputs"][chosen] / scale,
                epochs=relabel_epochs,
            )
        improved_pred = model.predict(data["tokens"]) * scale
        prom_ratio = float(
            task.search_performance(improved_pred, data["throughputs"], seed=seed).mean()
        )
        results[network] = RegressionResult(
            network=network,
            native_ratio=native_ratio,
            prom_ratio=prom_ratio,
            detection=detection,
            decisions=decisions,
        )
    return {"base_ratio": base_ratio, "networks": results}


@dataclass(frozen=True)
class StreamStep:
    """One micro-batch of a :func:`stream_deployment` run.

    ``rejection_rate`` is the monitor's windowed rate as observed for
    this batch — on alert steps, the rate that tripped the alarm
    (captured before the post-update window reset).
    ``n_dropped_unknown`` counts relabelled samples discarded because
    their class is unknown to a fixed-head model (see
    :func:`stream_deployment`).  ``n_shards_touched`` counts the
    calibration shards this step's recalibration folded into (0 when
    nothing recalibrated; the full shard count on model updates, which
    rebuild every shard; always 0 with ``async_serving`` — the fold is
    deferred to a background worker, whose routing is not known yet).

    With ``async_serving=True`` the serving-plane fields are live:
    ``queue_depth`` is the maintenance backlog when the batch was
    served, ``snapshot_staleness`` the number of accepted maintenance
    jobs not yet reflected in the published snapshot,
    ``served_during_maintenance`` marks decisions that were served
    while a fold/recalibration/model update was mid-flight — the
    batches a synchronous loop would have stalled —
    ``n_lost_to_backpressure`` counts relabelled samples whose
    maintenance job a full queue rejected (their oracle labels never
    reached the calibration state; 0 whenever the submission was
    accepted, coalesced or applied), and ``snapshot_blocks_shared``
    reports how many calibration shards' blocks the snapshot that
    served this batch shared with its predecessor (the
    structural-sharing publish of DESIGN.md §6).

    Async accounting caveat: ``model_updated`` (and the monitor reset
    behind it) records an **accepted submission** — required for the
    drained-queue equivalence contract, where the decision had to be
    taken before the batch ended.  A job that later crashes on a
    worker surfaces only in ``StreamResult.errors`` /
    ``serving.jobs_failed``; cross-check those before trusting the
    update counters of a run with a non-empty error list (the cleared
    alert re-arms by itself as the un-updated model keeps rejecting).

    ``n_retries`` / ``n_dead_lettered`` / ``checkpoint_generations`` /
    ``last_checkpoint_ms`` are cumulative durability-plane counters as
    of this batch (DESIGN.md §7): retried and dead-lettered maintenance
    jobs (async runs with a retry policy), committed checkpoint
    generations, and the wall-clock cost of the newest one (sync runs
    checkpoint inline; async runs ride the maintenance queue).

    ``n_candidates_scored`` / ``n_shards_pruned`` are this batch's
    shard-pruning counters (DESIGN.md §9): calibration rows actually
    scored by the GEMM, and ``(test row, skipped shard)`` pairs the
    pruner excluded.  Both stay 0 unless the run evaluated
    segment-direct with a :class:`~repro.core.pruning.CandidatePruner`
    installed (``pruning=PruningConfig(enabled=True)``).

    ``trigger_metric`` / ``trigger_threshold`` / ``trigger_detector``
    expose the trigger plane per step (DESIGN.md §11): the primary
    detector's drift metric for this batch, the effective threshold it
    was compared against (dynamic policies move it every step;
    ``threshold`` is 0 while the policy is still warming), and the
    detector's name.  ``effective_budget_fraction`` is the relabel
    budget actually used — equal to the loop's ``budget_fraction``
    unless a cost-aware budget policy raised it on a fire.
    """

    start: int
    stop: int
    n_flagged: int
    n_relabelled: int
    alert: bool
    model_updated: bool
    rejection_rate: float
    calibration_size: int
    seconds: float
    n_dropped_unknown: int = 0
    n_shards_touched: int = 0
    queue_depth: int = 0
    snapshot_staleness: int = 0
    served_during_maintenance: bool = False
    n_lost_to_backpressure: int = 0
    snapshot_blocks_shared: int = 0
    n_retries: int = 0
    n_dead_lettered: int = 0
    checkpoint_generations: int = 0
    last_checkpoint_ms: float = 0.0
    n_candidates_scored: int = 0
    n_shards_pruned: int = 0
    trigger_metric: float = 0.0
    trigger_threshold: float = 0.0
    trigger_detector: str = ""
    effective_budget_fraction: float = 0.0
    decisions: object = field(repr=False, compare=False, default=None)


@dataclass
class StreamResult:
    """Aggregate outcome of a :func:`stream_deployment` run.

    ``errors`` holds the maintenance-plane
    :class:`~repro.core.serving.JobError` records of an async run
    (worker crashes never interrupt serving — they surface here;
    checkpoint/restore failures of either mode are recorded with
    ``kind="checkpoint"``/``kind="restore"``); ``serving`` its
    :class:`~repro.core.serving.ServingStats`;
    ``n_lost_to_backpressure`` totals the relabelled samples whose
    fold/update jobs a full queue rejected.  All stay empty/zero/None
    for synchronous runs.

    ``checkpoint_generations`` counts the generations committed during
    the run (either mode, with ``checkpoint_dir``);
    ``restored_generation`` is the generation a warm restart
    (``restore_from_checkpoint=True``) resumed from (``None`` for cold
    starts) and ``restore_fallbacks`` the reasons newer generations
    were skipped over during that restore.

    ``chunk_size`` / ``prune`` / ``prune_spill`` echo the evaluate
    configuration the run was launched with (DESIGN.md §9), so result
    records are self-describing; ``n_candidates_scored`` /
    ``n_shards_pruned`` total the per-step pruning counters (0 unless
    pruned segment-direct evaluation was in effect).

    ``monitor`` is the run's drift-trigger stack, built from
    ``LoopConfig.triggers`` (a :class:`~repro.core.triggers.TriggerStack`
    or :class:`~repro.core.triggers.PerShardTriggerStack`);
    ``n_trigger_fires`` counts the steps whose trigger ensemble fired, and
    ``trigger_restored`` reports whether a warm restart recovered the
    trigger window state from the checkpoint (``False`` on cold starts
    and on restores from pre-trigger-era manifests, which re-warm
    deterministically instead; DESIGN.md §11).
    """

    steps: list = field(repr=False, default_factory=list)
    n_samples: int = 0
    n_flagged: int = 0
    n_relabelled: int = 0
    n_model_updates: int = 0
    n_dropped_unknown: int = 0
    decisions_per_second: float = 0.0
    lifetime_rejection_rate: float = 0.0
    final_calibration_size: int = 0
    n_shards: int = 1
    final_shard_sizes: tuple = ()
    monitor: object = field(repr=False, default=None)
    errors: tuple = ()
    serving: object = field(repr=False, default=None)
    n_lost_to_backpressure: int = 0
    checkpoint_generations: int = 0
    restored_generation: int | None = None
    restore_fallbacks: tuple = ()
    chunk_size: int | None = None
    prune: bool = False
    prune_spill: float = 1.0
    n_candidates_scored: int = 0
    n_shards_pruned: int = 0
    n_trigger_fires: int = 0
    trigger_restored: bool = False


def stream_deployment(
    interface,
    X_stream,
    oracle_labels,
    *,
    loop: LoopConfig | None = None,
    serving: ServingConfig | None = None,
    checkpointing: CheckpointConfig | None = None,
    pruning: PruningConfig | None = None,
) -> StreamResult:
    """Serve a sample stream end to end: detect, relabel, recalibrate.

    The deployment loop of paper Secs. 5.3-5.4 over a trained
    :class:`~repro.core.interface.ModelInterface` (or regression
    variant).  Per micro-batch:

    1. ``interface.predict`` — batch-engine decisions for the window;
    2. the drift-trigger stack ingests the verdicts (a
       :class:`~repro.core.triggers.TriggerStack` built from
       ``loop.triggers``; the default is decision-identical to the
       historical rolling-window monitor);
    3. :func:`~repro.core.incremental.select_relabel_budget` picks the
       lowest-credibility flagged samples, which the oracle relabels
       (a cost-aware budget policy may raise the budget on fires);
    4. the relabelled samples flow back in: a **model update**
       (``incremental_update``) when the trigger stack alerts — full
       model + calibration rebuild, then the window resets — otherwise an
       amortized **calibration-only** ``extend_calibration``;
    5. the bounded calibration store evicts down to
       ``max_calibration`` either way.

    Configuration arrives as four frozen config objects
    (:mod:`repro.core.config`), one per plane:

    Args:
        interface: trained model interface.
        X_stream: deployment-time inputs, consumed in arrival order.
        oracle_labels: ground truth used *only* for the relabelled
            budget (the user/profiler answering flagged queries).
        loop: :class:`~repro.core.config.LoopConfig` — batching,
            relabel budget, drift triggers
            (:class:`~repro.core.config.TriggerConfig`), update policy.
        serving: :class:`~repro.core.config.ServingConfig` — the
            serving plane.  ``asynchronous=True`` serves from an
            :class:`~repro.core.serving.AsyncServingLoop` (lock-free
            snapshot decisions, queued maintenance; worker failures
            surface in ``StreamResult.errors``); with
            ``drain_each_step=True`` the decision stream is
            bit-identical to the synchronous loop (DESIGN.md §5).  A
            :class:`~repro.core.config.ProcessPoolConfig` on
            ``serving.pool`` additionally serves decisions from a
            :class:`~repro.core.multiproc.ProcessServingPool` —
            evaluator *processes* attached to shared-memory segments,
            republished on every snapshot publish (DESIGN.md §10).
        checkpointing: :class:`~repro.core.config.CheckpointConfig` —
            incremental durability through a
            :class:`~repro.core.durability.CheckpointWriter` plus warm
            restart (DESIGN.md §7).  Checkpoint/restore failures are
            recorded in ``StreamResult.errors``; serving is never
            interrupted.
        pruning: :class:`~repro.core.config.PruningConfig` —
            router-aware shard pruning and evaluate-kernel chunking
            (DESIGN.md §9); ``spill=1.0`` keeps decisions
            bit-identical to the unpruned path.

    Sharding note: step 4's calibration work routes through the shard
    layer — an ``extend_calibration`` batch folds only into the shards
    it touches, and every :class:`StreamStep` records
    ``n_shards_touched`` so shard churn is observable per batch.
    """
    loop_config = loop if loop is not None else LoopConfig()
    serving_config = serving if serving is not None else ServingConfig(asynchronous=False)
    checkpoint_config = checkpointing if checkpointing is not None else CheckpointConfig()
    pruning_config = pruning if pruning is not None else PruningConfig(enabled=False)
    batch_size = loop_config.batch_size
    budget_fraction = loop_config.budget_fraction
    update_on_alert = loop_config.update_on_alert
    epochs = loop_config.epochs
    async_serving = serving_config.asynchronous
    serving_workers = serving_config.workers
    queue_capacity = serving_config.queue_capacity
    backpressure = serving_config.backpressure
    drain_each_step = serving_config.drain_each_step
    record_decisions = serving_config.record_decisions
    pool_config = serving_config.pool
    checkpoint_dir = checkpoint_config.directory
    checkpoint_keep = checkpoint_config.keep
    checkpoint_every = checkpoint_config.every
    restore_from_checkpoint = checkpoint_config.restore
    retry = checkpoint_config.retry
    chunk_size = pruning_config.chunk_size
    prune = pruning_config.enabled
    prune_spill = pruning_config.spill
    if pool_config is not None and not async_serving:
        raise ConfigurationError(
            "ServingConfig.pool needs asynchronous=True: the process tier is "
            "published to by the async loop (use repro.serve for a "
            "stand-alone pool)"
        )
    X_stream = np.asarray(X_stream)
    oracle_labels = np.asarray(oracle_labels)
    if len(X_stream) != len(oracle_labels):
        raise ValidationError("X_stream and oracle_labels must align")
    streaming = getattr(interface, "streaming", None)
    monitor = build_trigger_stack(
        loop_config.triggers or TriggerConfig(),
        router=getattr(getattr(streaming, "store", None), "router", None),
        n_shards=getattr(streaming, "n_shards", 1),
        featurizer=getattr(interface, "feature_extraction", None),
    )
    writer = None
    restore_errors = []
    restored_generation = None
    restore_fallbacks = ()
    trigger_restored = False
    if checkpoint_dir is not None:
        # the durability plane checkpoints/restores trigger state
        # alongside the calibration shards (DESIGN.md §11)
        writer = CheckpointWriter(
            checkpoint_dir, keep=checkpoint_keep, triggers=monitor
        )
        if restore_from_checkpoint and writer.latest_generation is not None:
            try:
                report = restore_checkpoint(
                    interface.streaming, checkpoint_dir, triggers=monitor
                )
            except CheckpointError as err:
                # Restart must never block on bad state: record the
                # reason and continue from the interface's own (cold)
                # calibration.
                restore_errors.append(
                    JobError(
                        kind="restore",
                        error=f"CheckpointError: {err}",
                        traceback="",
                    )
                )
            else:
                restored_generation = report.generation
                restore_fallbacks = report.fallbacks
                trigger_restored = report.trigger_restored
    prom = getattr(interface, "prom", None)
    if prom is not None:
        if chunk_size is not None:
            prom._chunk_size = chunk_size
        if prune:
            # Snapshot proms are shallow copies of this one, so the
            # pruner (and chunk size) ride along into every published
            # generation.
            router = getattr(
                getattr(getattr(interface, "streaming", None), "store", None),
                "router",
                None,
            )
            prom._pruner = CandidatePruner(router=router, spill=prune_spill)
    loop = None
    pool = None
    sync_checkpoint_state = {"since": 0, "generations": 0, "last_ms": 0.0}
    if async_serving:
        if pool_config is not None:
            # Created before the loop so the loop can re-home its
            # process counters and publish into its name table; the
            # pool constructor publishes the initial calibration state
            # itself, so workers can serve before the first snapshot.
            pool = ProcessServingPool(
                interface,
                n_workers=pool_config.workers,
                start_method=pool_config.start_method,
                table_capacity=pool_config.table_capacity,
            )
        loop = AsyncServingLoop(
            interface,
            n_workers=serving_workers,
            queue_capacity=queue_capacity,
            backpressure=backpressure,
            retry=retry,
            checkpoint=writer,
            checkpoint_every=checkpoint_every,
            process_pool=pool,
        )

    def _sync_checkpoint(mutated: bool) -> None:
        """Inline checkpoint cadence for the synchronous loop."""
        if writer is None or loop is not None or not mutated:
            return
        sync_checkpoint_state["since"] += 1
        if sync_checkpoint_state["since"] < checkpoint_every:
            return
        sync_checkpoint_state["since"] = 0
        started = time.perf_counter()
        try:
            writer.checkpoint(interface.streaming)
        except Exception as err:  # noqa: BLE001 — serving must continue
            restore_errors.append(
                JobError(
                    kind="checkpoint",
                    error=f"{type(err).__name__}: {err}",
                    traceback="",
                )
            )
        else:
            sync_checkpoint_state["generations"] += 1
            sync_checkpoint_state["last_ms"] = (
                (time.perf_counter() - started) * 1000.0
            )

    def known_classes():
        if not hasattr(interface.model, "classes_"):
            return None
        return set(np.asarray(interface.model.classes_).tolist())

    steps = []
    n_flagged_total = 0
    n_relabelled_total = 0
    n_dropped_total = 0
    n_lost_total = 0
    n_model_updates = 0
    scored_total = 0
    pruned_total = 0
    total_shards = getattr(getattr(interface, "streaming", None), "n_shards", 1)
    stream_started = time.perf_counter()
    try:
        for start in range(0, len(X_stream), batch_size):
            stop = min(len(X_stream), start + batch_size)
            batch_started = time.perf_counter()
            if loop is not None:
                queue_depth = loop.queue_depth
                staleness = loop.staleness
                during_maintenance = loop.maintenance_active
                blocks_shared = loop.snapshot.blocks_shared
                if pool is not None:
                    predictions, decisions = pool.predict(X_stream[start:stop])
                else:
                    predictions, decisions = loop.predict(X_stream[start:stop])
            else:
                queue_depth = staleness = 0
                during_maintenance = False
                blocks_shared = 0
                predictions, decisions = interface.predict(X_stream[start:stop])
            step_scored = getattr(decisions, "n_candidates_scored", None) or 0
            step_pruned = getattr(decisions, "n_shards_pruned", None) or 0
            scored_total += step_scored
            pruned_total += step_pruned
            # raw inputs + predicted labels carry the routing context
            # per-shard trigger stacks key on (ignored by global stacks)
            alert = observe_decisions(
                monitor,
                decisions,
                raw=X_stream[start:stop],
                labels=predictions,
            )
            # captured before any post-update reset clears the window
            window_rate = monitor.rejection_rate
            trigger_decision = monitor.last_decision
            effective_budget = monitor.relabel_budget(budget_fraction)
            chosen = select_relabel_budget(decisions, effective_budget)
            updating_model = alert or not update_on_alert
            # In-place model updates keep their class head, and
            # calibration-only extensions score against the current head,
            # so relabelled samples of never-observed classes cannot be
            # folded in on those paths.  A model update that can grow its
            # head (interface.learns_new_classes) keeps them.
            learns_new_classes = updating_model and getattr(
                interface, "learns_new_classes", False
            )
            classes = known_classes()
            n_dropped = 0
            if classes is not None and not learns_new_classes and len(chosen):
                kept = np.asarray(
                    [i for i in chosen if oracle_labels[start + i].item() in classes],
                    dtype=int,
                )
                n_dropped = len(chosen) - len(kept)
                chosen = kept
            model_updated = False
            n_shards_touched = 0
            n_lost = 0
            if len(chosen):
                X_chosen = X_stream[start + chosen]
                y_chosen = oracle_labels[start + chosen]
                if updating_model:
                    if loop is not None:
                        accepted = loop.submit_model_update(
                            X_chosen, y_chosen, epochs=epochs
                        )
                    else:
                        interface.incremental_update(
                            X_chosen, y_chosen, epochs=epochs
                        )
                        accepted = True
                        # a model update rebuilds the calibration state
                        # of every shard
                        n_shards_touched = total_shards
                    if accepted:
                        monitor.reset()
                        model_updated = True
                        n_model_updates += 1
                    else:
                        # full queue rejected the update: the batch is
                        # lost and the un-reset monitor will re-alert
                        n_lost = len(chosen)
                else:
                    if loop is not None:
                        if not loop.submit_fold(X_chosen, y_chosen):
                            n_lost = len(chosen)
                    else:
                        cal_update = interface.extend_calibration(
                            X_chosen, y_chosen
                        )
                        touched = getattr(cal_update, "touched", None)
                        n_shards_touched = (
                            len(touched) if touched is not None else 1
                        )
            _sync_checkpoint(len(chosen) > 0)
            if loop is not None and drain_each_step:
                loop.drain()
                if pool is not None:
                    # workers re-attach the table the drain published,
                    # so the next batch sees the post-maintenance state
                    pool.sync()
            n_flagged = len(drifting_indices(decisions))
            n_flagged_total += n_flagged
            n_relabelled_total += len(chosen)
            n_dropped_total += n_dropped
            n_lost_total += n_lost
            if loop is not None:
                step_retries = loop.stats.n_retries
                step_dead = loop.stats.n_dead_lettered
                step_generations = loop.stats.checkpoint_generations
                step_checkpoint_ms = loop.stats.last_checkpoint_ms
            else:
                step_retries = step_dead = 0
                step_generations = sync_checkpoint_state["generations"]
                step_checkpoint_ms = sync_checkpoint_state["last_ms"]
            steps.append(
                StreamStep(
                    start=start,
                    stop=stop,
                    n_flagged=n_flagged,
                    n_relabelled=len(chosen),
                    alert=alert,
                    model_updated=model_updated,
                    rejection_rate=window_rate,
                    calibration_size=(
                        interface.calibration_size
                        if loop is None or drain_each_step
                        else loop.snapshot.calibration_size
                    ),
                    seconds=time.perf_counter() - batch_started,
                    n_dropped_unknown=n_dropped,
                    n_shards_touched=n_shards_touched,
                    queue_depth=queue_depth,
                    snapshot_staleness=staleness,
                    served_during_maintenance=during_maintenance,
                    n_lost_to_backpressure=n_lost,
                    snapshot_blocks_shared=blocks_shared,
                    n_retries=step_retries,
                    n_dead_lettered=step_dead,
                    checkpoint_generations=step_generations,
                    last_checkpoint_ms=step_checkpoint_ms,
                    n_candidates_scored=step_scored,
                    n_shards_pruned=step_pruned,
                    trigger_metric=(
                        trigger_decision.metric
                        if trigger_decision is not None
                        else 0.0
                    ),
                    trigger_threshold=(
                        trigger_decision.threshold
                        if trigger_decision is not None
                        and np.isfinite(trigger_decision.threshold)
                        else 0.0
                    ),
                    trigger_detector=(
                        trigger_decision.detector
                        if trigger_decision is not None
                        else ""
                    ),
                    effective_budget_fraction=effective_budget,
                    decisions=decisions if record_decisions else None,
                )
            )
        if loop is not None:
            loop.drain()
            if pool is not None:
                pool.sync()
    finally:
        if loop is not None:
            loop.close(drain=False)
        if pool is not None:
            pool.close()
    elapsed = time.perf_counter() - stream_started
    errors = tuple(restore_errors)
    if loop is not None:
        errors += tuple(loop.errors)
    total_generations = (
        loop.stats.checkpoint_generations
        if loop is not None
        else sync_checkpoint_state["generations"]
    )
    return StreamResult(
        steps=steps,
        n_samples=len(X_stream),
        n_flagged=n_flagged_total,
        n_relabelled=n_relabelled_total,
        n_model_updates=n_model_updates,
        n_dropped_unknown=n_dropped_total,
        decisions_per_second=len(X_stream) / elapsed if elapsed > 0 else 0.0,
        lifetime_rejection_rate=monitor.lifetime_rejection_rate,
        final_calibration_size=interface.calibration_size,
        n_shards=getattr(getattr(interface, "streaming", None), "n_shards", 1),
        final_shard_sizes=tuple(getattr(interface, "shard_sizes", ())),
        monitor=monitor,
        errors=errors,
        serving=loop.stats if loop is not None else None,
        n_lost_to_backpressure=n_lost_total,
        checkpoint_generations=total_generations,
        restored_generation=restored_generation,
        restore_fallbacks=restore_fallbacks,
        chunk_size=chunk_size,
        prune=prune,
        prune_spill=prune_spill,
        n_candidates_scored=scored_total,
        n_shards_pruned=pruned_total,
        n_trigger_fires=sum(1 for step in steps if step.alert),
        trigger_restored=trigger_restored,
    )


def run_baseline_comparison(
    task: CaseStudy,
    model_factory=None,
    epsilon: float = 0.1,
    seed: int = 0,
    drift_kwargs: dict | None = None,
    misprediction_threshold: float = 0.2,
    base_result: ClassificationResult | None = None,
) -> dict:
    """F1 of each comparator detector plus Prom on one (task, model).

    Pass ``base_result`` to reuse a previous :func:`run_classification`
    outcome instead of retraining.
    """
    result = base_result or run_classification(
        task,
        model_factory,
        epsilon=epsilon,
        seed=seed,
        drift_kwargs=drift_kwargs,
        misprediction_threshold=misprediction_threshold,
    )
    model = result.fitted_model
    cal_samples = task.subset(result.calibration_indices)
    cal_features = model.features(cal_samples)
    cal_probabilities = model.predict_proba(cal_samples)

    test_samples = task.subset(result.test_indices)
    test_features = model.features(test_samples)
    test_probabilities = model.predict_proba(test_samples)

    scores = {"PROM": result.detection.f1}
    for name, factory in BASELINE_FACTORIES.items():
        detector = factory()
        detector.calibrate(cal_features, cal_probabilities, result.calibration_columns)
        rejected = detector.evaluate(
            test_features, test_probabilities, result.predicted_columns
        )
        scores[name] = detection_metrics(result.mispredicted, rejected).f1
    return scores


def reevaluate_with_prom(
    task: CaseStudy,
    base_result: ClassificationResult,
    prom_kwargs: dict,
) -> DetectionMetrics:
    """Re-run only the Prom stage of a finished classification run.

    Reuses the fitted model, calibration indices and test predictions
    from ``base_result`` — calibrating a fresh detector with
    ``prom_kwargs`` and scoring its decisions.  This is how the
    ablation benches sweep Prom configurations without retraining the
    underlying model.
    """
    model = base_result.fitted_model
    cal_samples = task.subset(base_result.calibration_indices)
    prom = PromClassifier(**prom_kwargs)
    prom.calibrate(
        model.features(cal_samples),
        model.predict_proba(cal_samples),
        base_result.calibration_columns,
    )
    test_samples = task.subset(base_result.test_indices)
    decisions = prom.evaluate(
        model.features(test_samples),
        model.predict_proba(test_samples),
        base_result.predicted_columns,
    )
    rejected = np.asarray(decisions.drifting)
    return detection_metrics(base_result.mispredicted, rejected)


def run_nonconformity_ablation(
    task: CaseStudy,
    model_factory=None,
    epsilon: float = 0.1,
    seed: int = 0,
    drift_kwargs: dict | None = None,
    misprediction_threshold: float = 0.2,
    base_result: ClassificationResult | None = None,
) -> dict:
    """Detection metrics of each single function vs the full committee.

    The underlying model is trained once (or reused from
    ``base_result``); only the detector configuration varies.
    """
    result = base_result or run_classification(
        task,
        model_factory,
        epsilon=epsilon,
        seed=seed,
        drift_kwargs=drift_kwargs,
        misprediction_threshold=misprediction_threshold,
    )
    outcomes = {}
    for function in default_classification_functions():
        outcomes[function.name] = reevaluate_with_prom(
            task, result, {"functions": [function], "epsilon": epsilon}
        )
    outcomes["PROM"] = result.detection
    return outcomes

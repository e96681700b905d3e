"""Async serving loop: a lock-free evaluate path over the shard layer.

The synchronous deployment loop (:func:`repro.experiments.stream_deployment`)
stalls every decision while calibration folds and shard rescoring run
inline: a micro-batch that triggers a model update pays the whole
rebuild before the *next* batch can be evaluated.  This module splits
serving into two planes (DESIGN.md §5):

* an **always-hot evaluate path** — decisions are served against a
  :class:`ComposeSnapshot`, an immutable frozen clone of the detector
  (and the model reference) published behind a single attribute.
  Readers load the pointer, evaluate, and never take a lock; snapshot
  publication is an atomic pointer swap (double buffering: the next
  snapshot is built aside while the current one keeps serving).  With
  a sharded runtime the freeze is a **structural-sharing publish**
  (DESIGN.md §6): the snapshot references the segment compose layer's
  immutable per-shard blocks instead of deep-copying the flat arrays,
  so publishing after an update that touched ``k`` of ``N`` shards
  costs ``O(k)``, and consecutive snapshots share the other ``N - k``
  shards' blocks outright;
* an **asynchronous maintenance plane** — calibration folds, shard
  recalibrations and model updates are :class:`MaintenanceJob` items in
  a bounded work queue, drained by background workers.  A worker takes
  the maintenance mutex plus the touched shards' write locks
  (:meth:`~repro.core.sharding.ShardedCalibrationStore.acquire_shards`),
  applies the job through the streaming runtime, and publishes a fresh
  snapshot on completion.

Backpressure is explicit: when the queue is full, ``"coalesce"``
(default) merges the new job into the newest queued job of the same
kind where the merge is semantically exact (fold batches concatenate,
recalibration shard sets union; model updates never merge — see
:meth:`AsyncServingLoop._coalesce`), ``"drop"`` rejects the newest
submission, and ``"block"`` waits for space.  Worker failures never
kill the loop — they are recorded as :class:`JobError` entries
(surfaced as ``StreamResult.errors`` by the stream driver) and the
last good snapshot keeps serving.

The equivalence contract, property-tested in
``tests/core/test_serving.py``: with the queue drained, decisions
served from the snapshot are bit-identical to the synchronous loop's
for every shard router × eviction policy combination, because a
drained loop has applied exactly the same mutations in exactly the
same order and the snapshot is a bit-exact copy of the resulting
state.

Two analyzers machine-check this module's locking and immutability
conventions (DESIGN.md §8): the static promlint gate
(``python -m repro.analysis`` — PL001 snapshot mutation, PL002 lock
discipline) and the runtime lock-order sanitizer
(:func:`~repro.core.sharding.enable_lock_order_sanitizer`, armed by
the ``concurrency`` test fixture), which raises
:class:`~repro.core.exceptions.LockOrderError` on any shard-lock
acquisition that is not strictly ascending.
"""

from __future__ import annotations

import copy
import inspect
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConfigurationError, RetryExhaustedError, ServingError
from .triggers import observe_decisions

#: queue backpressure policies accepted by :class:`AsyncServingLoop`
BACKPRESSURE_POLICIES = ("coalesce", "drop", "block")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for failed maintenance jobs.

    A job that raises is re-queued at the head of the queue (preserving
    its position relative to later submissions) and retried after
    ``delay(attempt)`` seconds; after ``max_attempts`` total attempts it
    is dead-lettered instead — recorded as a
    :class:`~repro.core.exceptions.RetryExhaustedError`-tagged
    :class:`JobError` and appended to
    :attr:`AsyncServingLoop.dead_letters` — and the loop moves on.
    :class:`~repro.core.exceptions.ServingError` failures (unknown job
    kind, structural-mutation rejections) are permanent and never
    retried.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1:
            raise ConfigurationError(
                "need base_delay >= 0, max_delay >= 0 and multiplier >= 1"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )


@dataclass
class MaintenanceJob:
    """One queued unit of calibration/model maintenance.

    ``kind`` is ``"fold"`` (calibration-only extension),
    ``"recalibrate"`` (whole-shard rescoring; ``shard_ids=None`` means
    every shard), ``"model_update"`` (incremental model update plus
    full calibration rebuild) or ``"checkpoint"`` (persist the runtime
    through the configured :class:`~repro.core.durability.CheckpointWriter`).
    ``coalesced`` counts how many submissions were merged into this job
    by queue backpressure; ``attempts``/``not_before`` drive the
    :class:`RetryPolicy` (a retried job is not eligible to run before
    ``not_before`` on the monotonic clock).
    """

    kind: str
    X: np.ndarray | None = None
    y: np.ndarray | None = None
    shard_ids: tuple | None = None
    epochs: int = 20
    submitted_at: float = 0.0
    coalesced: int = 0
    attempts: int = 0
    not_before: float = 0.0


@dataclass(frozen=True)
class JobError:
    """A maintenance-plane failure, preserved instead of propagated.

    ``attempts`` is how many times the job ran before being recorded
    (> 1 only under a :class:`RetryPolicy`).
    """

    kind: str
    error: str
    traceback: str
    attempts: int = 1

    def __str__(self) -> str:
        return f"{self.kind}: {self.error}"


@dataclass
class ServingStats:
    """Counters of one :class:`AsyncServingLoop`'s lifetime.

    ``shard_blocks_shared`` / ``shard_blocks_rebuilt`` account the
    structural sharing of segment-composed snapshots (DESIGN.md §6):
    per publish, how many shards' blocks were reused by identity from
    the previously published snapshot versus rebuilt because the shard
    mutated.

    ``n_candidates_scored`` / ``n_shards_pruned`` account router-aware
    shard pruning (DESIGN.md §9) when a
    :class:`~repro.core.pruning.CandidatePruner` is installed on the
    detector: total calibration rows in served samples' candidate
    pools, and total shards those samples skipped.  Both stay 0 when
    evaluation is unpruned.

    ``last_prewarm_seconds`` / ``total_prewarm_seconds`` account the
    maintenance-thread view prewarm that follows each segment-composed
    publish (panel re-gathers, norms, scalar gather bases — the repair
    work the publish moved off the decision path, DESIGN.md §9).

    ``n_retries`` / ``n_dead_lettered`` account the :class:`RetryPolicy`
    (re-executions of failed jobs, and jobs given up on after the last
    attempt).  ``checkpoint_generations`` / ``last_checkpoint_ms`` /
    ``checkpoint_errors`` account the durability plane when a
    :class:`~repro.core.durability.CheckpointWriter` is attached
    (DESIGN.md §7): committed generations, the wall-clock cost of the
    newest commit, and failed checkpoint attempts (the loop keeps
    serving; the previous generation keeps restoring).

    The ``workers_*`` / ``table_publishes`` / ``torn_table_reads`` /
    ``shm_*`` counters account the multi-process tier (DESIGN.md §10)
    when a :class:`~repro.core.multiproc.ProcessServingPool` is
    attached: evaluator processes spawned, crashed and respawned; name
    tables published; torn table reads absorbed by last-good fallback;
    and the shared-memory arena's cumulative exported/identity-reused
    block counts and exported bytes.  All stay 0 without a pool.

    ``trigger_observations`` / ``trigger_fires`` account the drift
    triggers when a trigger stack is attached to the loop
    (DESIGN.md §11): decisions fed to the stack, and served batches on
    which the trigger ensemble fired.  Both stay 0 without one.
    """

    jobs_submitted: int = 0
    jobs_executed: int = 0
    jobs_coalesced: int = 0
    jobs_dropped: int = 0
    jobs_failed: int = 0
    snapshots_published: int = 0
    max_queue_depth: int = 0
    max_staleness: int = 0
    decisions_served: int = 0
    decisions_during_maintenance: int = 0
    n_candidates_scored: int = 0
    n_shards_pruned: int = 0
    last_publish_seconds: float = 0.0
    total_publish_seconds: float = 0.0
    last_prewarm_seconds: float = 0.0
    total_prewarm_seconds: float = 0.0
    shard_blocks_shared: int = 0
    shard_blocks_rebuilt: int = 0
    n_retries: int = 0
    n_dead_lettered: int = 0
    checkpoint_generations: int = 0
    last_checkpoint_ms: float = 0.0
    checkpoint_errors: int = 0
    workers_spawned: int = 0
    workers_crashed: int = 0
    workers_respawned: int = 0
    table_publishes: int = 0
    torn_table_reads: int = 0
    shm_blocks_exported: int = 0
    shm_blocks_reused: int = 0
    shm_bytes_exported: int = 0
    trigger_observations: int = 0
    trigger_fires: int = 0


@dataclass(frozen=True)
class ComposeSnapshot:
    """An immutable, point-in-time view of the serving state.

    ``interface`` is a shallow clone of the model interface whose
    detector has been replaced by a frozen copy
    (:meth:`~repro.core.streaming._ShardMixin.detector_snapshot`): its
    arrays are private, so evaluating the snapshot is safe from any
    thread while maintenance keeps mutating the live wrapper.  Only the
    evaluate surface (:meth:`predict` / :meth:`evaluate`) is supported
    on a snapshot; mutation methods still reach the *live* runtime and
    must not be called through it.

    ``epoch`` is the streaming wrapper's epoch the snapshot was built
    at — ``live_epoch - snapshot.epoch`` mutations have happened since.
    ``shard_epochs`` tags the per-shard store epochs the snapshot's
    blocks correspond to, and
    ``blocks_shared`` counts how many shards' blocks this snapshot
    shares, by identity, with the previously published one — the
    observable form of the structural-sharing publish (DESIGN.md §6).
    """

    epoch: int
    interface: object = field(repr=False)
    calibration_size: int
    shard_sizes: tuple
    published_at: float
    shard_epochs: tuple = ()
    blocks_shared: int = 0

    def predict(self, X):
        """``(predictions, decisions)`` for raw inputs, snapshot state."""
        return self.interface.predict(X)

    def evaluate(self, *args, **kwargs):
        """Delegate to the frozen detector's batch ``evaluate``."""
        return self.interface.prom.evaluate(*args, **kwargs)


def freeze_interface(interface):
    """A shallow interface clone wired to a frozen detector copy.

    The clone shares the (stateless) feature-extraction hook and the
    current model reference; the detector is the frozen clone from
    :meth:`~repro.core.streaming._ShardMixin.detector_snapshot` — a
    structural-sharing snapshot over the segment compose layer.  Model
    updates applied
    through :meth:`AsyncServingLoop.submit_model_update` swap the live
    interface's ``model`` attribute for a fresh object instead of
    mutating it (``isolate_model``), so the reference captured here
    stays stable for the snapshot's lifetime.
    """
    frozen = copy.copy(interface)
    frozen.prom = interface.streaming.detector_snapshot()
    return frozen


class AsyncServingLoop:
    """Serve decisions from snapshots; maintain state on workers.

    Args:
        interface: a trained, calibrated
            :class:`~repro.core.interface.ModelInterface` or
            :class:`~repro.core.interface.RegressionModelInterface`.
        n_workers: background maintenance workers.  Jobs are applied
            under one maintenance mutex (the global compose is shared
            state), so extra workers buy queue-drain overlap, not
            parallel folds; per-shard parallelism inside a
            recalibration job comes from the interface's ``parallel``
            thread pool.
        queue_capacity: bound on pending maintenance jobs.
        backpressure: full-queue policy — ``"coalesce"`` (default),
            ``"drop"`` or ``"block"``.
        publish_every: under a sustained backlog, force a snapshot
            publish after this many applied-but-unpublished jobs even
            though more work is queued — bounding how long readers can
            be served from an old snapshot while the queue never
            drains.  (An idle queue always publishes immediately.)
        retry: optional :class:`RetryPolicy`.  Transient job failures
            (anything but :class:`ServingError`) are re-queued with
            bounded exponential backoff; jobs that exhaust
            ``max_attempts`` are dead-lettered (``dead_letters``) and
            recorded as :class:`RetryExhaustedError` job errors.
            ``None`` (default) preserves the historical
            fail-once-record-once behaviour.
        checkpoint: optional
            :class:`~repro.core.durability.CheckpointWriter`.  When
            set, every ``checkpoint_every``-th snapshot publish
            enqueues a background ``"checkpoint"`` maintenance job that
            persists the runtime incrementally (DESIGN.md §7); a failed
            checkpoint increments ``stats.checkpoint_errors`` but never
            disturbs serving.
        checkpoint_every: publishes between automatic checkpoints.
        faults: optional :class:`~repro.core.faults.FaultInjector`
            probed before each job application (stage ``"job:<kind>"``)
            — the kill-worker hook of the fault-injection harness.
            ``None`` (default) keeps the maintenance path probe-free.
        process_pool: optional
            :class:`~repro.core.multiproc.ProcessServingPool`.  When
            attached, every snapshot publish also publishes a
            shared-memory name table so the pool's evaluator processes
            track the same state the in-process snapshot serves
            (DESIGN.md §10).  The pool is externally owned — the loop
            publishes to it but never closes it — and its counters are
            re-homed onto this loop's ``stats``.
        triggers: optional drift-trigger stack
            (:class:`~repro.core.triggers.TriggerStack` or
            :class:`~repro.core.triggers.PerShardTriggerStack`).  Every
            served decision batch is fed to it after counting, so
            direct :meth:`predict`/:meth:`evaluate` callers get trigger
            observability (``stats.trigger_observations`` /
            ``stats.trigger_fires``) without a deployment loop.  The
            stack's own leaf lock serializes observation, so concurrent
            serving threads are safe; routing for per-shard stacks
            reads the router snapshot, never the mutating shards
            (DESIGN.md §11).

    The evaluate path (:meth:`predict` / :meth:`evaluate`) never takes
    a lock: it reads the current :class:`ComposeSnapshot` and runs
    entirely on the snapshot's private arrays.  ``staleness`` — queued
    plus in-flight jobs not yet reflected in the published snapshot —
    is bounded by ``queue_capacity + n_workers``.
    """

    def __init__(
        self,
        interface,
        n_workers: int = 1,
        queue_capacity: int = 32,
        backpressure: str = "coalesce",
        publish_every: int = 8,
        retry: RetryPolicy | None = None,
        checkpoint=None,
        checkpoint_every: int = 1,
        faults=None,
        process_pool=None,
        triggers=None,
    ):
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if publish_every < 1:
            raise ConfigurationError(
                f"publish_every must be >= 1, got {publish_every}"
            )
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if backpressure not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {backpressure!r}"
            )
        self.interface = interface
        self.n_workers = int(n_workers)
        self.queue_capacity = int(queue_capacity)
        self.backpressure = backpressure
        self.publish_every = int(publish_every)
        self.retry = retry
        self.checkpoint = checkpoint
        self.checkpoint_every = int(checkpoint_every)
        self._faults = faults
        self.process_pool = process_pool
        self.triggers = triggers
        self._publishes_since_checkpoint = 0
        self._jobs_since_publish = 0
        self.stats = ServingStats()
        self.errors: list[JobError] = []
        self.dead_letters: list[MaintenanceJob] = []
        self._queue: deque[MaintenanceJob] = deque()
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._state_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        if process_pool is not None:
            process_pool.bind_stats(self.stats, self._stats_lock)
        self._in_flight = 0
        self._closed = False
        self._publish_pending = False
        self._snapshot = self._build_snapshot()
        self._accepts_isolate_model = "isolate_model" in inspect.signature(
            interface.incremental_update
        ).parameters
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"prom-serving-{i}", daemon=True
            )
            for i in range(self.n_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- read side (lock-free) ----------------------------------------------------
    @property
    def snapshot(self) -> ComposeSnapshot:
        """The currently published snapshot (atomic pointer read)."""
        return self._snapshot

    @property
    def queue_depth(self) -> int:
        """Pending maintenance jobs (excluding in-flight ones).

        Safe to read from any thread; the value may be one submission
        stale by the time the caller acts on it.
        """
        return len(self._queue)

    @property
    def staleness(self) -> int:
        """Accepted jobs not yet reflected in the published snapshot."""
        return len(self._queue) + self._in_flight

    @property
    def maintenance_active(self) -> bool:
        """True while a worker is mid-job (folds/rescoring in flight)."""
        return self._in_flight > 0

    def predict(self, X):
        """``(predictions, decisions)`` against the current snapshot.

        The serving hot path: one atomic snapshot-pointer read, then
        pure array work on the snapshot's private state — never blocked
        by in-flight folds, recalibrations or model updates.
        """
        snapshot = self._snapshot
        during_maintenance = self.maintenance_active
        predictions, decisions = snapshot.predict(X)
        self._count_served(
            len(np.asarray(predictions)), during_maintenance, decisions
        )
        self._observe_triggers(decisions, raw=X, labels=predictions)
        return predictions, decisions

    def evaluate(self, *args, **kwargs):
        """Batch-evaluate precomputed features/outputs on the snapshot."""
        snapshot = self._snapshot
        during_maintenance = self.maintenance_active
        decisions = snapshot.evaluate(*args, **kwargs)
        self._count_served(len(decisions), during_maintenance, decisions)
        self._observe_triggers(decisions)
        return decisions

    def _observe_triggers(self, decisions, raw=None, labels=None) -> None:
        # the trigger stack's internal lock is a leaf: it is taken here
        # with no loop lock held, and _stats_lock is taken only after
        # observation returns, so no ordering edge ever forms between
        # the two (the lock-order sanitizer stays quiet under stress)
        if self.triggers is None:
            return
        fired = observe_decisions(
            self.triggers, decisions, raw=raw, labels=labels
        )
        with self._stats_lock:
            self.stats.trigger_observations += len(decisions)
            if fired:
                self.stats.trigger_fires += 1

    def _count_served(self, n: int, during_maintenance: bool, batch=None) -> None:
        # `+=` on the shared dataclass is a read-modify-write, and two
        # concurrent readers would lose increments permanently — a
        # dedicated lock keeps the stats exact for microseconds per
        # batch (readers of the stats may still observe a value one
        # batch stale, which is fine).
        with self._stats_lock:
            self.stats.decisions_served += n
            if during_maintenance:
                self.stats.decisions_during_maintenance += n
            scored = getattr(batch, "n_candidates_scored", None)
            if scored is not None:
                self.stats.n_candidates_scored += scored
                self.stats.n_shards_pruned += batch.n_shards_pruned or 0

    # -- write side (queued) ------------------------------------------------------
    def submit_fold(self, X, y) -> bool:
        """Queue a calibration-only extension (``extend_calibration``)."""
        return self._submit(
            MaintenanceJob(kind="fold", X=np.asarray(X), y=np.asarray(y))
        )

    def submit_recalibration(self, shard_ids=None) -> bool:
        """Queue whole-shard rescoring (``recalibrate_shards``)."""
        ids = None if shard_ids is None else tuple(int(s) for s in shard_ids)
        return self._submit(MaintenanceJob(kind="recalibrate", shard_ids=ids))

    def submit_model_update(self, X, y, epochs: int = 20) -> bool:
        """Queue an incremental model update + calibration rebuild."""
        return self._submit(
            MaintenanceJob(
                kind="model_update",
                X=np.asarray(X),
                y=np.asarray(y),
                epochs=epochs,
            )
        )

    def _submit(self, job: MaintenanceJob) -> bool:
        """Enqueue under the backpressure policy.

        Returns True when the job (or a coalesced form of it) will be
        applied, False when it was dropped.
        """
        job.submitted_at = time.perf_counter()
        with self._lock:
            if self._closed:
                raise ServingError("serving loop is closed")
            self.stats.jobs_submitted += 1
            while len(self._queue) >= self.queue_capacity:
                if self.backpressure == "block":
                    self._idle.wait()
                    if self._closed:
                        raise ServingError("serving loop closed while blocked")
                    continue
                if self.backpressure == "coalesce" and self._coalesce(job):
                    self.stats.jobs_coalesced += 1
                    self._track_depth()
                    return True
                self.stats.jobs_dropped += 1
                return False
            self._queue.append(job)
            self._track_depth()
            self._work_ready.notify()
        return True

    def _coalesce(self, job: MaintenanceJob) -> bool:
        """Merge ``job`` into the newest queued job of the same kind.

        Only the tail job is a merge candidate: merging deeper would
        reorder the job's effects relative to jobs queued after its
        target, breaking the drained-queue equivalence contract.
        Merging is restricted to the kinds whose merge is semantically
        exact — fold batches concatenate (the store folds them the same
        either way) and recalibration shard sets union.  Model updates
        never merge: one ``partial_fit`` over a concatenated batch is
        *not* two sequential ``partial_fit`` passes, so a full queue
        rejects the newer update instead (the submitter sees ``False``
        and keeps its alert state to retry).
        """
        if not self._queue or self._queue[-1].kind != job.kind:
            return False
        if job.kind == "model_update":
            return False
        tail = self._queue[-1]
        if job.kind == "checkpoint":
            # Two queued checkpoints persist the same state; one is
            # enough.
            tail.coalesced += 1
            return True
        if job.kind == "recalibrate":
            if tail.shard_ids is None or job.shard_ids is None:
                tail.shard_ids = None
            else:
                tail.shard_ids = tuple(
                    sorted(set(tail.shard_ids) | set(job.shard_ids))
                )
        else:
            tail.X = np.concatenate([tail.X, job.X])
            tail.y = np.concatenate([tail.y, job.y])
        tail.coalesced += 1
        return True

    def _track_depth(self) -> None:
        self.stats.max_queue_depth = max(
            self.stats.max_queue_depth, len(self._queue)
        )
        self.stats.max_staleness = max(
            self.stats.max_staleness, len(self._queue) + self._in_flight
        )

    # -- maintenance plane --------------------------------------------------------
    def _worker(self) -> None:
        while True:
            with self._lock:
                while True:
                    if self._queue:
                        # A retried head job may carry a backoff
                        # deadline; sleep it off on the condition so a
                        # close() or a fresh submission still wakes us.
                        wait = self._queue[0].not_before - time.monotonic()
                        if wait <= 0:
                            break
                        self._work_ready.wait(timeout=wait)
                    elif self._closed:
                        return
                    else:
                        self._work_ready.wait()
                job = self._queue.popleft()
                self._in_flight += 1
                self._idle.notify_all()
            try:
                job.attempts += 1
                self._execute(job)
                with self._stats_lock:
                    self.stats.jobs_executed += 1
            except Exception as err:  # noqa: BLE001 — the loop must survive
                self._handle_failure(job, err)
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self._idle.notify_all()

    def _handle_failure(self, job: MaintenanceJob, err: Exception) -> None:
        """Retry a transiently failed job, or record it and move on.

        :class:`ServingError` failures are structural (unknown kind,
        rejected mutation) — retrying cannot help, so they are recorded
        immediately.  Everything else is considered transient when a
        :class:`RetryPolicy` is configured: the job goes back to the
        *head* of the queue (it must not reorder behind jobs submitted
        after it) with a backoff deadline.  Once attempts are exhausted
        the job is dead-lettered: kept on ``dead_letters`` for
        inspection/resubmission and recorded as a
        :class:`RetryExhaustedError`-tagged :class:`JobError`.
        """
        retryable = self.retry is not None and not isinstance(err, ServingError)
        if retryable and job.attempts < self.retry.max_attempts:
            with self._lock:
                if not self._closed:
                    job.not_before = (
                        time.monotonic() + self.retry.delay(job.attempts)
                    )
                    # Deliberately bypasses queue_capacity: a retry is
                    # readmitting accepted work, not accepting new work.
                    self._queue.appendleft(job)
                    self._track_depth()
                    self._work_ready.notify()
                    with self._stats_lock:
                        self.stats.n_retries += 1
                    return
        if retryable:
            exhausted = RetryExhaustedError(
                f"{job.kind} failed after {job.attempts} attempts: "
                f"{type(err).__name__}: {err}"
            )
            error = f"{type(exhausted).__name__}: {exhausted}"
            with self._stats_lock:
                self.stats.n_dead_lettered += 1
            self.dead_letters.append(job)
        else:
            error = f"{type(err).__name__}: {err}"
        with self._stats_lock:
            self.stats.jobs_failed += 1
            self.errors.append(
                JobError(
                    kind=job.kind,
                    error=error,
                    traceback=traceback.format_exc(),
                    attempts=job.attempts,
                )
            )
        # A failed job publishes nothing itself, but it may have been
        # the backlog's designated publisher: flush any deferred
        # publish so earlier applied jobs become visible (and drain()
        # leaves a current snapshot).
        if self._publish_pending:
            with self._state_lock:
                if self._publish_pending and not self._queue:
                    self._publish()
                    self._publish_pending = False

    def _execute(self, job: MaintenanceJob) -> None:
        """Apply one job under the maintenance mutex + shard write locks.

        Lock order is fixed — maintenance mutex first, then shard locks
        ascending — so concurrent workers cannot deadlock.  Holding the
        shard locks across the apply is what arms the structural-
        mutation guard: a foreign ``clear()``/``rebalance()`` racing
        this job is rejected instead of corrupting it.
        """
        interface = self.interface
        streaming = interface.streaming
        if self._faults is not None:
            self._faults.hit(f"job:{job.kind}")
        if job.kind == "checkpoint":
            # Checkpoints only read calibration state; the state lock
            # alone pins it (no job mutates state without holding it),
            # and nothing is published afterwards.
            with self._state_lock:
                self._run_checkpoint()
            return
        published = False
        with self._state_lock:
            shard_ids = job.shard_ids if job.kind == "recalibrate" else None
            with streaming.store.acquire_shards(shard_ids):
                self._apply(interface, job)
            # Publish once per burst, not once per job: with more work
            # already queued, this snapshot could never be the one a
            # drained reader observes, so the O(store) copy is deferred
            # to the backlog's last job (readers meanwhile keep the
            # previous consistent snapshot; `staleness` already counts
            # the queued jobs).  A sustained backlog must not starve
            # readers on an ancient snapshot, though — publish_every
            # bounds the deferral.
            self._jobs_since_publish += 1
            if self._queue and self._jobs_since_publish < self.publish_every:
                self._publish_pending = True
            else:
                self._publish()
                self._publish_pending = False
                published = True
        if published:
            self._after_publish()

    def _apply(self, interface, job: MaintenanceJob) -> None:
        if job.kind == "fold":
            interface.extend_calibration(job.X, job.y)
        elif job.kind == "recalibrate":
            interface.recalibrate_shards(job.shard_ids)
        elif job.kind == "model_update":
            if self._accepts_isolate_model:
                interface.incremental_update(
                    job.X, job.y, epochs=job.epochs, isolate_model=True
                )
            else:
                # Defensive isolation for interface overrides that lack
                # the kwarg (including **kwargs catch-alls, which would
                # silently ignore it): swap in a deep copy first, so an
                # override mutating `self.model` in place can never
                # touch the object captured by published snapshots.
                interface.model = copy.deepcopy(interface.model)
                interface.incremental_update(job.X, job.y, epochs=job.epochs)
        else:
            raise ServingError(f"unknown maintenance job kind {job.kind!r}")

    def _run_checkpoint(self) -> None:
        """Persist the runtime through the attached writer (timed).

        Failures re-raise into the worker's error path (so the retry
        policy applies) after bumping ``checkpoint_errors`` — serving
        and the previously committed generation are never affected.
        """
        started = time.perf_counter()
        try:
            info = self.checkpoint.checkpoint(self.interface.streaming)
        except Exception:
            with self._stats_lock:
                self.stats.checkpoint_errors += 1
            raise
        del info  # CheckpointInfo is surfaced via writer.latest_generation
        with self._stats_lock:
            self.stats.checkpoint_generations += 1
            self.stats.last_checkpoint_ms = (
                (time.perf_counter() - started) * 1000.0
            )

    def _after_publish(self) -> None:
        """Post-publish hook: schedule a checkpoint when one is due.

        Called by the executing worker *after* releasing the state
        lock.  The checkpoint rides the maintenance queue as its own
        job, so it coalesces under backlog (consecutive due
        checkpoints merge into one) and never blocks the publish that
        triggered it.
        """
        if self.checkpoint is None:
            return
        self._publishes_since_checkpoint += 1
        if self._publishes_since_checkpoint < self.checkpoint_every:
            return
        self._publishes_since_checkpoint = 0
        self._submit_checkpoint()

    def _submit_checkpoint(self) -> bool:
        """Enqueue a ``"checkpoint"`` job without ever blocking.

        Workers call this from the publish path; under ``"block"``
        backpressure a full queue must coalesce or drop instead of
        waiting (the single worker waiting on itself would deadlock).
        """
        job = MaintenanceJob(kind="checkpoint")
        job.submitted_at = time.perf_counter()
        with self._lock:
            if self._closed:
                return False
            self.stats.jobs_submitted += 1
            if len(self._queue) >= self.queue_capacity:
                if self._coalesce(job):
                    self.stats.jobs_coalesced += 1
                    return True
                self.stats.jobs_dropped += 1
                return False
            self._queue.append(job)
            self._track_depth()
            self._work_ready.notify()
        return True

    def _build_snapshot(self) -> ComposeSnapshot:
        """Freeze the current state into a new :class:`ComposeSnapshot`.

        This is ``O(touched shards)``: the frozen detector references
        the live bundle's immutable blocks, and the sharing with the
        previously published snapshot is accounted per shard.
        """
        started = time.perf_counter()
        streaming = self.interface.streaming
        frozen = freeze_interface(self.interface)
        previous = getattr(self, "_snapshot", None)
        bundle = frozen.prom._segment_bundle
        shared = bundle.shared_shards_with(
            None if previous is None else previous.interface.prom._segment_bundle
        )
        self.stats.shard_blocks_shared += shared
        self.stats.shard_blocks_rebuilt += bundle.n_shards - shared
        snapshot = ComposeSnapshot(
            epoch=streaming.epoch,
            interface=frozen,
            calibration_size=self.interface.calibration_size,
            shard_sizes=tuple(self.interface.shard_sizes),
            published_at=time.perf_counter(),
            shard_epochs=streaming.store.shard_epochs,
            blocks_shared=shared,
        )
        elapsed = time.perf_counter() - started
        self.stats.last_publish_seconds = elapsed
        self.stats.total_publish_seconds += elapsed
        # prewarm the evaluation view here, on the maintenance thread:
        # the panel rebuilds and norm rebuilds a mutation leaves behind
        # must not tax the first decision after the publish (DESIGN.md
        # §9).  Timed apart from the publish — it is repair work moved
        # off the decision path, not part of the structural-sharing
        # pointer swap.
        started = time.perf_counter()
        bundle.evaluation_view().prewarm()
        prewarm = time.perf_counter() - started
        self.stats.last_prewarm_seconds = prewarm
        self.stats.total_prewarm_seconds += prewarm
        return snapshot

    def _publish(self) -> None:
        """Build the next snapshot aside, then swap the pointer.

        With a :class:`~repro.core.multiproc.ProcessServingPool`
        attached, the shared-memory name table is published right after
        the in-process pointer swap — both planes run under the same
        state lock, so the table always names the state the snapshot
        serves.
        """
        snapshot = self._build_snapshot()
        self._snapshot = snapshot  # atomic pointer swap
        self.stats.snapshots_published += 1
        self._jobs_since_publish = 0
        if self.process_pool is not None:
            self.process_pool.publish()

    # -- lifecycle ----------------------------------------------------------------
    def drain(self, timeout: float | None = None) -> None:
        """Block until every accepted job has been applied and published.

        After ``drain()`` returns, ``staleness`` is 0 and the published
        snapshot reflects all accepted maintenance — the precondition
        of the sync-vs-async equivalence contract.

        Raises:
            ServingError: when ``timeout`` (seconds) elapses first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._queue or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise ServingError(
                            f"drain timed out with {len(self._queue)} queued "
                            f"and {self._in_flight} in-flight jobs"
                        )
                self._idle.wait(remaining)

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the workers (idempotent).

        ``drain=True`` (default) applies the queued jobs first;
        ``drain=False`` abandons them.  ``timeout`` is a **hard
        deadline** for the whole shutdown: when the drain cannot finish
        in time (e.g. a wedged worker), ``close`` does not raise —
        it records a ``kind="drain"`` :class:`JobError`, abandons the
        still-queued jobs, best-effort flushes any deferred snapshot
        publish, and returns once the join budget is spent (wedged
        daemon workers are left behind).  The last published snapshot
        keeps serving reads after close; submissions raise.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        timed_out = False
        if drain and not self._closed:
            try:
                self.drain(timeout=timeout)
            except ServingError as err:
                timed_out = True
                with self._stats_lock:
                    self.errors.append(
                        JobError(
                            kind="drain",
                            error=f"ServingError: {err}",
                            traceback="",
                        )
                    )
                # The designated publisher may be the wedged job:
                # flush the deferred publish ourselves so applied work
                # is visible, but never block past the deadline on the
                # state lock a wedged worker might hold.
                if self._publish_pending and self._state_lock.acquire(
                    timeout=max(0.0, deadline - time.monotonic())
                ):
                    try:
                        if self._publish_pending:
                            self._publish()
                            self._publish_pending = False
                    finally:
                        self._state_lock.release()
        with self._lock:
            self._closed = True
            if not drain or timed_out:
                self._queue.clear()
            self._work_ready.notify_all()
            self._idle.notify_all()
        for worker in self._workers:
            remaining = timeout
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            worker.join(timeout=remaining)

    def __enter__(self) -> "AsyncServingLoop":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def __repr__(self) -> str:
        return (
            f"AsyncServingLoop(workers={self.n_workers}, "
            f"queue={len(self._queue)}/{self.queue_capacity}, "
            f"backpressure={self.backpressure!r}, "
            f"epoch={self._snapshot.epoch})"
        )

"""Tests for the async serving loop (DESIGN.md §5).

The acceptance property: with the maintenance queue drained,
``stream_deployment(async_serving=True)`` is **bit-identical** to the
synchronous loop for every shard router × eviction policy combination
— same accept/reject decisions, same credibility and confidence, same
surviving calibration state.  On top of that: snapshot immutability,
queue backpressure (coalesce vs drop vs block), staleness bounds,
worker-crash propagation, and the structural-mutation guard.

Everything here exercises real threads, so the whole module carries the
``concurrency`` marker — CI runs it separately under
``pytest -m concurrency`` with fault handlers enabled, where a deadlock
fails fast instead of hanging the runner.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    AsyncServingLoop,
    LoopConfig,
    ModelInterface,
    PromClassifier,
    RegressionModelInterface,
    ServingConfig,
    ServingError,
    TriggerConfig,
)
from repro.experiments import stream_deployment
from repro.ml import MLPClassifier, MLPRegressor

from ..conftest import make_blobs

pytestmark = pytest.mark.concurrency

ROUTERS = ("hash", "label", "cluster")
POLICIES = ("fifo", "reservoir", "lowest_weight")


class BlobInterface(ModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


class BlobRegressionInterface(RegressionModelInterface):
    def feature_extraction(self, X):
        return np.asarray(X)


def _trained_interface(n_shards=1, router="hash", eviction="fifo", seed=0):
    interface = BlobInterface(
        MLPClassifier(epochs=15, seed=seed),
        max_calibration=120,
        seed=seed,
        n_shards=n_shards,
        router=router,
        eviction=eviction,
    )
    X, y = make_blobs(350, seed=seed)
    interface.train(X, y)
    return interface


def _drift_stream(n=600, seed=1):
    X_a, y_a = make_blobs(n // 2, seed=seed)
    X_b, y_b = make_blobs(n // 2, shift=3.0, seed=seed + 1)
    return np.concatenate([X_a, X_b]), np.concatenate([y_a, y_b])


def _assert_decisions_identical(a, b):
    assert np.array_equal(a.accepted, b.accepted)
    assert np.array_equal(a.credibility, b.credibility)
    assert np.array_equal(a.confidence, b.confidence)
    assert np.array_equal(a.drifting, b.drifting)


def _stream_pair(make_interface):
    """Run the same stream synchronously and async-drained."""
    X_stream, y_stream = _drift_stream()
    loop_config = LoopConfig(batch_size=64, budget_fraction=0.1, epochs=5)
    sync = stream_deployment(
        make_interface(),
        X_stream,
        y_stream,
        loop=loop_config,
        serving=ServingConfig(asynchronous=False, record_decisions=True),
    )
    asynchronous = stream_deployment(
        make_interface(),
        X_stream,
        y_stream,
        loop=loop_config,
        serving=ServingConfig(drain_each_step=True, record_decisions=True),
    )
    return sync, asynchronous


class TestSnapshot:
    def test_snapshot_decisions_match_live_detector(self):
        interface = _trained_interface()
        loop = AsyncServingLoop(interface)
        X_test, _ = make_blobs(80, shift=1.5, seed=7)
        live_predictions, live_decisions = interface.predict(X_test)
        snap_predictions, snap_decisions = loop.predict(X_test)
        assert np.array_equal(live_predictions, snap_predictions)
        _assert_decisions_identical(live_decisions, snap_decisions)
        loop.close()

    def test_snapshot_is_immune_to_later_mutations(self):
        interface = _trained_interface(n_shards=4, eviction="reservoir")
        loop = AsyncServingLoop(interface)
        snapshot = loop.snapshot
        X_test, _ = make_blobs(60, shift=1.0, seed=8)
        before = snapshot.predict(X_test)[1]
        # churn the live state hard: folds force slot-reuse eviction,
        # which rewrites store buffers in place
        for r in range(6):
            X_new, y_new = make_blobs(40, shift=2.0, seed=20 + r)
            interface.extend_calibration(X_new, y_new)
        after = snapshot.predict(X_test)[1]
        _assert_decisions_identical(before, after)
        # while the *live* interface has genuinely moved on
        assert interface.epoch > snapshot.epoch
        loop.close()

    def test_published_snapshot_follows_drained_maintenance(self):
        interface = _trained_interface()
        loop = AsyncServingLoop(interface)
        X_new, y_new = make_blobs(30, shift=2.0, seed=9)
        loop.submit_fold(X_new, y_new)
        loop.drain(timeout=30)
        assert loop.staleness == 0
        assert loop.snapshot.epoch == interface.epoch
        X_test, _ = make_blobs(50, shift=1.0, seed=10)
        _assert_decisions_identical(
            loop.predict(X_test)[1], interface.predict(X_test)[1]
        )
        loop.close()


class TestSyncAsyncEquivalence:
    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_classifier_stream_bit_identical(self, router, policy):
        sync, asynchronous = _stream_pair(
            lambda: _trained_interface(
                n_shards=4, router=router, eviction=policy
            )
        )
        assert len(sync.steps) == len(asynchronous.steps)
        for sync_step, async_step in zip(sync.steps, asynchronous.steps):
            _assert_decisions_identical(
                sync_step.decisions, async_step.decisions
            )
            assert sync_step.n_flagged == async_step.n_flagged
            assert sync_step.n_relabelled == async_step.n_relabelled
            assert sync_step.alert == async_step.alert
            assert sync_step.model_updated == async_step.model_updated
            assert sync_step.rejection_rate == async_step.rejection_rate
            assert sync_step.calibration_size == async_step.calibration_size
        assert asynchronous.errors == ()
        assert sync.final_calibration_size == asynchronous.final_calibration_size
        assert sync.final_shard_sizes == asynchronous.final_shard_sizes

    def test_single_store_stream_bit_identical(self):
        sync, asynchronous = _stream_pair(lambda: _trained_interface())
        for sync_step, async_step in zip(sync.steps, asynchronous.steps):
            _assert_decisions_identical(
                sync_step.decisions, async_step.decisions
            )
        assert sync.final_calibration_size == asynchronous.final_calibration_size

    @pytest.mark.parametrize("router", ("hash", "cluster"))
    def test_regressor_stream_bit_identical(self, router):
        def make_interface():
            interface = BlobRegressionInterface(
                MLPRegressor(epochs=15, seed=0),
                max_calibration=100,
                seed=0,
                n_shards=3,
                router=router,
            )
            interface.prom.n_clusters = 3
            X, _ = make_blobs(300, seed=3)
            interface.train(X, X[:, 0])
            return interface

        X_stream, _ = _drift_stream(n=400, seed=5)
        y_stream = X_stream[:, 0]
        loop_config = LoopConfig(batch_size=50, budget_fraction=0.1, epochs=4)
        sync = stream_deployment(
            make_interface(), X_stream, y_stream,
            loop=loop_config,
            serving=ServingConfig(asynchronous=False, record_decisions=True),
        )
        asynchronous = stream_deployment(
            make_interface(), X_stream, y_stream,
            loop=loop_config,
            serving=ServingConfig(drain_each_step=True, record_decisions=True),
        )
        for sync_step, async_step in zip(sync.steps, asynchronous.steps):
            _assert_decisions_identical(
                sync_step.decisions, async_step.decisions
            )
        assert asynchronous.errors == ()


class _PluggedLoop:
    """A serving loop whose first fold blocks until released.

    Stalls the worker deterministically so queue backpressure and
    staleness bounds can be observed from the outside.
    """

    def __init__(self, interface, **kwargs):
        self.entered = threading.Event()
        self.release = threading.Event()
        original = interface.extend_calibration
        plugged = {"armed": True}

        def slow_extend(X_new, y_new, priority=None):
            if plugged["armed"]:
                plugged["armed"] = False
                self.entered.set()
                assert self.release.wait(30), "plug never released"
            return original(X_new, y_new, priority=priority)

        interface.extend_calibration = slow_extend
        self.loop = AsyncServingLoop(interface, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release.set()
        self.loop.close(drain=exc_type is None)


def _fold_batch(seed):
    return make_blobs(8, shift=2.0, seed=seed)


class TestBackpressure:
    def test_coalesce_merges_into_tail_and_loses_nothing(self):
        interface = _trained_interface()
        with _PluggedLoop(
            interface, queue_capacity=1, backpressure="coalesce"
        ) as plugged:
            loop = plugged.loop
            size_before = interface.calibration_size
            assert loop.submit_fold(*_fold_batch(40))  # plugs the worker
            assert plugged.entered.wait(30)
            assert loop.submit_fold(*_fold_batch(41))  # fills the queue
            assert loop.submit_fold(*_fold_batch(42))  # coalesces
            assert loop.submit_fold(*_fold_batch(43))  # coalesces
            assert loop.stats.jobs_coalesced == 2
            assert loop.stats.jobs_dropped == 0
            assert loop.queue_depth == 1
            plugged.release.set()
            loop.drain(timeout=30)
            # every submitted sample was folded in (4 batches of 8)
            assert interface.calibration_size == size_before + 32
        assert loop.errors == []

    def test_drop_rejects_newest_when_full(self):
        interface = _trained_interface()
        with _PluggedLoop(
            interface, queue_capacity=1, backpressure="drop"
        ) as plugged:
            loop = plugged.loop
            size_before = interface.calibration_size
            assert loop.submit_fold(*_fold_batch(50))
            assert plugged.entered.wait(30)
            assert loop.submit_fold(*_fold_batch(51))
            assert not loop.submit_fold(*_fold_batch(52))  # dropped
            assert loop.stats.jobs_dropped == 1
            plugged.release.set()
            loop.drain(timeout=30)
            assert interface.calibration_size == size_before + 16
        assert loop.errors == []

    def test_block_waits_for_space(self):
        interface = _trained_interface()
        with _PluggedLoop(
            interface, queue_capacity=1, backpressure="block"
        ) as plugged:
            loop = plugged.loop
            size_before = interface.calibration_size
            assert loop.submit_fold(*_fold_batch(60))
            assert plugged.entered.wait(30)
            assert loop.submit_fold(*_fold_batch(61))
            timer = threading.Timer(0.05, plugged.release.set)
            timer.start()
            started = time.perf_counter()
            assert loop.submit_fold(*_fold_batch(62))  # blocks until space
            assert time.perf_counter() - started >= 0.03
            timer.join()
            loop.drain(timeout=30)
            assert loop.stats.jobs_dropped == 0
            assert loop.stats.jobs_coalesced == 0
            assert interface.calibration_size == size_before + 24
        assert loop.errors == []

    def test_model_updates_never_coalesce(self):
        """Two sequential partial_fit passes != one pass over the concat.

        A full queue under the coalesce policy must reject the newer
        model update (returning False so the stream driver keeps its
        alert state) instead of silently merging the batches.
        """
        interface = _trained_interface()
        with _PluggedLoop(
            interface, queue_capacity=1, backpressure="coalesce"
        ) as plugged:
            loop = plugged.loop
            assert loop.submit_fold(*_fold_batch(75))  # plugs the worker
            assert plugged.entered.wait(30)
            assert loop.submit_model_update(*_fold_batch(76), epochs=3)
            assert not loop.submit_model_update(*_fold_batch(77), epochs=3)
            assert loop.stats.jobs_coalesced == 0
            assert loop.stats.jobs_dropped == 1
            plugged.release.set()
            loop.drain(timeout=30)
            assert loop.stats.jobs_executed == 2
        assert loop.errors == []

    def test_coalesced_recalibrations_union_shard_sets(self):
        interface = _trained_interface(n_shards=4)
        with _PluggedLoop(
            interface, queue_capacity=1, backpressure="coalesce"
        ) as plugged:
            loop = plugged.loop
            assert loop.submit_fold(*_fold_batch(70))
            assert plugged.entered.wait(30)
            assert loop.submit_recalibration([0])
            assert loop.submit_recalibration([2, 3])
            assert loop.stats.jobs_coalesced == 1
            plugged.release.set()
            loop.drain(timeout=30)
            assert loop.stats.jobs_executed == 2
        assert loop.errors == []


class TestPublishCoalescing:
    def test_backlog_publishes_once(self):
        """A burst of queued jobs pays one snapshot copy, not one per job.

        Intermediate snapshots could never be observed by a drained
        reader, so only the backlog's last job publishes.
        """
        interface = _trained_interface()
        with _PluggedLoop(interface, queue_capacity=8) as plugged:
            loop = plugged.loop
            for seed in range(400, 404):
                assert loop.submit_fold(*_fold_batch(seed))
            assert plugged.entered.wait(30)
            plugged.release.set()
            loop.drain(timeout=30)
            assert loop.stats.jobs_executed == 4
            assert loop.stats.snapshots_published == 1
            # the one published snapshot is the fully-drained state
            assert loop.snapshot.epoch == interface.epoch
            assert loop.staleness == 0
        assert loop.errors == []

    def test_sustained_backlog_publishes_every_k_jobs(self):
        """A queue that never drains must not starve readers forever."""
        interface = _trained_interface()
        with _PluggedLoop(
            interface, queue_capacity=8, publish_every=2
        ) as plugged:
            loop = plugged.loop
            for seed in range(420, 425):
                assert loop.submit_fold(*_fold_batch(seed))
            assert plugged.entered.wait(30)
            plugged.release.set()
            loop.drain(timeout=30)
            # jobs 2 and 4 hit the publish_every bound mid-backlog,
            # job 5 publishes on the emptied queue
            assert loop.stats.jobs_executed == 5
            assert loop.stats.snapshots_published == 3
            assert loop.snapshot.epoch == interface.epoch
        assert loop.errors == []

    def test_failed_tail_job_still_flushes_deferred_publish(self):
        """A crash in the backlog's last job must not strand good state."""
        interface = _trained_interface()
        with _PluggedLoop(interface, queue_capacity=8) as plugged:
            loop = plugged.loop
            loop.submit_fold(*_fold_batch(410))  # plugs, applies fine
            assert plugged.entered.wait(30)

            # the second (tail) job will fail: swap the exploding
            # extend in while the first job is still mid-plug
            def explode(X_new, y_new, priority=None):
                raise RuntimeError("tail job failure")

            interface.extend_calibration = explode
            loop.submit_fold(*_fold_batch(411))
            plugged.release.set()
            loop.drain(timeout=30)
            # the first fold deferred its publish (queue was non-empty
            # when it finished); the failing tail job must flush it
            assert loop.stats.jobs_failed == 1
            assert loop.stats.snapshots_published == 1
            assert loop.snapshot.epoch == interface.epoch
        assert len(loop.errors) == 1


class TestStalenessBounds:
    def test_staleness_bounded_by_queue_plus_workers(self):
        interface = _trained_interface()
        capacity = 3
        with _PluggedLoop(
            interface, queue_capacity=capacity, backpressure="coalesce"
        ) as plugged:
            loop = plugged.loop
            for seed in range(80, 90):
                loop.submit_fold(*_fold_batch(seed))
                assert loop.staleness <= capacity + loop.n_workers
            assert plugged.entered.wait(30)
            assert loop.snapshot.epoch < interface.epoch or loop.staleness > 0
            plugged.release.set()
            loop.drain(timeout=30)
            assert loop.staleness == 0
            assert loop.snapshot.epoch == interface.epoch
            assert loop.stats.max_staleness <= capacity + loop.n_workers
        assert loop.errors == []

    def test_stream_counts_samples_lost_to_backpressure(self):
        """Folds rejected by a full drop-policy queue must be visible.

        The result object cannot claim samples were folded into the
        calibration state when the queue discarded them.
        """
        interface = _trained_interface()
        good_extend = interface.extend_calibration

        def slow_extend(X_new, y_new, priority=None):
            time.sleep(0.25)
            return good_extend(X_new, y_new, priority=priority)

        interface.extend_calibration = slow_extend
        X_stream, y_stream = _drift_stream(n=400, seed=19)
        result = stream_deployment(
            interface,
            X_stream,
            y_stream,
            loop=LoopConfig(
                batch_size=50,
                budget_fraction=0.3,
                # never alert: every relabelled batch takes the fold path
                triggers=TriggerConfig(window=100, threshold=1.0),
            ),
            serving=ServingConfig(queue_capacity=1, backpressure="drop"),
        )
        assert result.serving.jobs_dropped > 0
        assert result.n_lost_to_backpressure > 0
        assert result.n_lost_to_backpressure == sum(
            step.n_lost_to_backpressure for step in result.steps
        )
        # lost samples are still counted as relabelled (the oracle was
        # consulted) — the loss is reported separately
        assert result.n_lost_to_backpressure <= result.n_relabelled

    def test_stream_records_staleness_and_queue_depth(self):
        interface = _trained_interface(n_shards=4)
        X_stream, y_stream = _drift_stream(n=400, seed=11)
        result = stream_deployment(
            interface,
            X_stream,
            y_stream,
            loop=LoopConfig(batch_size=50, budget_fraction=0.1, epochs=3),
            serving=ServingConfig(queue_capacity=4),
        )
        assert result.serving is not None
        assert result.serving.max_staleness <= 4 + 1
        for step in result.steps:
            assert step.snapshot_staleness <= 4 + 1
            assert step.queue_depth <= 4


class TestWorkerCrash:
    def test_failed_job_is_recorded_and_loop_survives(self):
        interface = _trained_interface()

        def explode(X_new, y_new, priority=None):
            raise RuntimeError("synthetic fold failure")

        good_extend = interface.extend_calibration
        interface.extend_calibration = explode
        loop = AsyncServingLoop(interface)
        loop.submit_fold(*_fold_batch(90))
        loop.drain(timeout=30)
        assert loop.stats.jobs_failed == 1
        assert len(loop.errors) == 1
        assert loop.errors[0].kind == "fold"
        assert "RuntimeError" in loop.errors[0].error
        assert "synthetic fold failure" in loop.errors[0].traceback
        # the loop keeps serving and later jobs still apply
        X_test, _ = make_blobs(20, seed=91)
        assert len(loop.predict(X_test)[1]) == 20
        interface.extend_calibration = good_extend
        size_before = interface.calibration_size
        loop.submit_fold(*_fold_batch(92))
        loop.drain(timeout=30)
        assert interface.calibration_size == size_before + 8
        loop.close()

    def test_stream_result_carries_worker_errors(self):
        interface = _trained_interface()

        def explode(X_new, y_new, priority=None):
            raise ValueError("poisoned calibration batch")

        interface.extend_calibration = explode
        X_stream, y_stream = _drift_stream(n=300, seed=13)
        result = stream_deployment(
            interface,
            X_stream,
            y_stream,
            loop=LoopConfig(
                batch_size=50,
                budget_fraction=0.2,
                # a maximal alert threshold keeps the model-update path
                # out of the way so every relabelled batch takes the
                # fold path
                triggers=TriggerConfig(window=100, threshold=1.0),
            ),
            serving=ServingConfig(drain_each_step=True),
        )
        assert len(result.errors) > 0
        assert all(error.kind == "fold" for error in result.errors)
        assert all("ValueError" in error.error for error in result.errors)


class TestStructuralMutationGuard:
    def test_clear_and_rebalance_rejected_under_foreign_shard_locks(self):
        interface = _trained_interface(n_shards=4)
        store = interface.streaming.store
        entered = threading.Event()
        release = threading.Event()

        def hold_lock():
            with store.acquire_shards([1]):
                entered.set()
                release.wait(30)

        holder = threading.Thread(target=hold_lock)
        holder.start()
        assert entered.wait(5)
        try:
            with pytest.raises(ServingError):
                store.clear(lifetime=True)
            with pytest.raises(ServingError):
                store.rebalance(refit_router=True)
            with pytest.raises(ServingError):
                store.replace_column(
                    "features", np.array(store.column("features"))
                )
            # non-structural reads stay fine under the lock
            assert store.column("features").shape[0] == len(store)
        finally:
            release.set()
            holder.join()
        # once released, both structural mutations succeed again
        assert store.rebalance(refit_router=True) is not None
        store.clear(lifetime=True)
        assert len(store) == 0

    def test_guard_fires_against_an_in_flight_worker(self):
        interface = _trained_interface(n_shards=4)
        store = interface.streaming.store
        with _PluggedLoop(interface, queue_capacity=2) as plugged:
            plugged.loop.submit_fold(*_fold_batch(95))
            assert plugged.entered.wait(30)
            # the worker holds every shard lock while folding
            with pytest.raises(ServingError):
                store.clear(lifetime=True)
            with pytest.raises(ServingError):
                store.rebalance(refit_router=True)
            plugged.release.set()
            plugged.loop.drain(timeout=30)
        assert plugged.loop.errors == []

    def test_holding_thread_itself_may_still_rebalance(self):
        interface = _trained_interface(n_shards=4)
        store = interface.streaming.store
        with store.acquire_shards():
            assert store.rebalance(refit_router=False) is not None


class TestConcurrencyStress:
    def test_evaluate_never_blocks_during_continuous_maintenance(self):
        interface = _trained_interface(n_shards=4, eviction="reservoir")
        loop = AsyncServingLoop(interface, n_workers=2, queue_capacity=8)
        X_test, _ = make_blobs(32, shift=1.0, seed=17)
        stop = threading.Event()
        reader_errors = []

        def reader():
            try:
                while not stop.is_set():
                    _, decisions = loop.predict(X_test)
                    assert len(decisions) == 32
            except Exception as err:  # pragma: no cover - failure path
                reader_errors.append(err)

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            for round_id in range(20):
                loop.submit_fold(*_fold_batch(100 + round_id))
                if round_id % 5 == 0:
                    loop.submit_recalibration()
            loop.drain(timeout=60)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert reader_errors == []
        assert loop.errors == []
        assert loop.stats.decisions_served >= 32
        loop.close()

    def test_drained_state_matches_fresh_calibration(self):
        """The streaming invariant survives the concurrent plane.

        After arbitrary queued maintenance has been applied, the live
        detector must still be decision-identical to a fresh detector
        calibrated on the store's surviving samples.
        """
        interface = _trained_interface(n_shards=4, eviction="lowest_weight")
        loop = AsyncServingLoop(interface, n_workers=2, queue_capacity=8)
        for round_id in range(12):
            loop.submit_fold(*_fold_batch(200 + round_id))
        loop.submit_recalibration()
        loop.drain(timeout=60)
        loop.close()
        assert loop.errors == []
        store = interface.streaming.store
        fresh = PromClassifier().calibrate(
            store.column("features"),
            store.column("probabilities"),
            store.column("label"),
        )
        X_test, _ = make_blobs(60, shift=1.5, seed=23)
        features = interface.feature_extraction(X_test)
        probabilities = interface.model.predict_proba(X_test)
        _assert_decisions_identical(
            interface.prom.evaluate(features, probabilities),
            fresh.evaluate(features, probabilities),
        )


class TestLegacyInterfaceIsolation:
    def test_override_without_isolate_model_gets_defensive_copy(self):
        """Subclass overrides predating ``isolate_model`` stay isolated.

        The worker swaps a deep model copy in before invoking such an
        override, so its in-place ``partial_fit`` can never mutate the
        model object captured by published snapshots.
        """

        class LegacyInterface(ModelInterface):
            def feature_extraction(self, X):
                return np.asarray(X)

            def incremental_update(self, X_new, y_new, epochs=20):
                self.model.partial_fit(
                    np.asarray(X_new), np.asarray(y_new), epochs=epochs
                )
                X_cal = self.X_calibration
                self.streaming.replace_outputs(
                    self.feature_extraction(X_cal),
                    self.model.predict_proba(X_cal),
                    self._label_indices(self.y_calibration),
                )
                return self

        interface = LegacyInterface(
            MLPClassifier(epochs=15, seed=0), max_calibration=120, seed=0
        )
        X, y = make_blobs(350, seed=0)
        interface.train(X, y)
        loop = AsyncServingLoop(interface)
        snapshot_model = loop.snapshot.interface.model
        X_new, y_new = make_blobs(12, shift=2.0, seed=3)
        loop.submit_model_update(X_new, y_new, epochs=3)
        loop.drain(timeout=30)
        assert loop.errors == []
        assert interface.model is not snapshot_model
        loop.close()


class TestLoopLifecycle:
    def test_submit_after_close_raises(self):
        interface = _trained_interface()
        loop = AsyncServingLoop(interface)
        loop.close()
        with pytest.raises(ServingError):
            loop.submit_fold(*_fold_batch(30))

    def test_close_without_drain_abandons_queue(self):
        interface = _trained_interface()
        with _PluggedLoop(interface, queue_capacity=8) as plugged:
            loop = plugged.loop
            for seed in range(300, 305):
                loop.submit_fold(*_fold_batch(seed))
            assert plugged.entered.wait(30)
            plugged.release.set()
            loop.close(drain=False)
        assert loop.stats.jobs_executed <= 5

    def test_context_manager_drains_on_clean_exit(self):
        interface = _trained_interface()
        size_before = interface.calibration_size
        with AsyncServingLoop(interface) as loop:
            loop.submit_fold(*_fold_batch(31))
        assert interface.calibration_size == size_before + 8

    def test_invalid_configuration_rejected(self):
        interface = _trained_interface()
        with pytest.raises(ValueError):
            AsyncServingLoop(interface, n_workers=0)
        with pytest.raises(ValueError):
            AsyncServingLoop(interface, queue_capacity=0)
        with pytest.raises(ValueError):
            AsyncServingLoop(interface, backpressure="belt")
